"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.analysis.metrics import collect_metrics
from repro.analysis.runner import CellTelemetry, SweepCell
from repro.comm.codecs import codec_family
from repro.core.execution import FULL_RECORDING, run_execution
from repro.mathx.modular import Field
from repro.obs.tracer import Tracer


@pytest.fixture(scope="session")
def field() -> Field:
    """The default prime field used by all protocol tests."""
    return Field()


@pytest.fixture(scope="session")
def small_field() -> Field:
    """A deliberately small field (soundness-error edge cases)."""
    return Field(p=101)


@pytest.fixture
def rng() -> random.Random:
    """A fresh seeded RNG per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def codecs4():
    """A small deterministic codec family."""
    return codec_family(4)


@pytest.fixture(scope="session")
def codecs8():
    """A medium deterministic codec family."""
    return codec_family(8)


@pytest.fixture(scope="session")
def full_recording_cell():
    """Hand-built reference for one ``telemetry=True`` sweep cell.

    The builder runs every seed through ``run_execution`` under
    ``FULL_RECORDING`` with one shared counters tracer (which each run
    hands on to the user) and collects the metrics — what a sweep cell
    would hold if it kept each run's whole history.
    """

    def build(user, server, goal, seeds, max_rounds, channel=None):
        tracer = Tracer()
        runs = tuple(
            collect_metrics(
                run_execution(
                    user, server, goal.world, max_rounds=max_rounds, seed=seed,
                    tracer=tracer, recording=FULL_RECORDING, channel=channel,
                ),
                goal,
            )
            for seed in seeds
        )
        return SweepCell(
            user_name=user.name,
            server_name=server.name,
            runs=runs,
            telemetry=CellTelemetry.from_counters(tracer.counters),
            channel_name=None if channel is None else channel.name,
        )

    return build
