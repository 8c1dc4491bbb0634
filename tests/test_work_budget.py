"""Work budgets: call counts that bound what a round and observation cost.

``benchmarks/bench_engine.py`` bounds the ``NoopTracer`` against
``tracer=None`` by wall clock (≤5%), which flips on a loaded machine.
The first case is the same claim in a structural form: counted with
:func:`sys.setprofile`, a no-op tracer makes exactly as many Python and C
calls per round as no tracer.  The second bounds the Python calls per
round of the sweep cast (:mod:`tests.work_budget`), which prices every
cell of Theorem 1's grid.  The third bounds the ``repro`` calls per round
of an unledgered served burst, the shape of perfbench's ``serve-burst``.
The fourth bounds the ledgered served session — trace written, and
certified at close — by the ``repro`` calls it makes per served round.
Call counts are deterministic once a warm-up pass has built the tables
the parties answer from, so the gates cannot flap.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Tuple

import pytest

import repro

from repro.obs import NoopTracer, RoundExecuted, read_trace
from repro.obs.tracer import TracerLike
from repro.serve.loadgen import demo_specs
from repro.serve.session import Session
from tests.work_budget import (
    HORIZON,
    SEEDS,
    SERVED_SPECS,
    SERVERS,
    SLICE_ROUNDS,
    cast_pass,
    layer_calls,
    served_pass,
)


def counted_pass(tracer: TracerLike) -> Tuple[int, int, int]:
    """(Python calls, C calls, rounds) of one profiled pass."""
    calls = {"call": 0, "c_call": 0}

    def profile(frame: object, event: str, arg: object) -> None:
        if event in calls:
            calls[event] += 1

    sys.setprofile(profile)
    try:
        rounds = cast_pass(tracer)
    finally:
        sys.setprofile(None)
    return calls["call"], calls["c_call"], rounds


def test_noop_tracer_adds_no_calls_per_round():
    cast_pass(None)  # Warm-up: builds the advisors' and followers' tables.
    off = counted_pass(None)
    noop = counted_pass(NoopTracer())
    python_calls, c_calls, rounds = off
    assert rounds == len(SERVERS) * len(SEEDS) * HORIZON
    # Not vacuous: the profiler saw the rounds' party steps.
    assert python_calls > 10 * rounds and c_calls > 5 * rounds
    assert noop == off, (
        f"per round: tracer=None {python_calls / rounds:.3f} Python / "
        f"{c_calls / rounds:.3f} C calls, NoopTracer "
        f"{noop[0] / rounds:.3f} / {noop[1] / rounds:.3f}"
    )


#: Python calls per round of the sweep cast, every frame counted (the
#: generated NamedTuple ``__new__``s and dataclass ``__init__``s too).
#: The change that set it measured 13.83 on Python 3.10–3.13, where the
#: parent tree read 20.78: the party steps built their values through the
#: generated ``__new__``s and relayed through ``parse_tagged``,
#: ``_decode_advice`` and ``is_tracing``.  The ceiling leaves ~8% headroom
#: (~1.2 calls a round) for small changes to the party steps; two of the
#: removed frames back on every round cross it.  Tighten, do not loosen.
SWEEP_BUDGET = 15.0


def test_sweep_cast_calls_per_round():
    cast_pass(None)  # Warm-up: builds the advisors' and followers' tables.
    calls, rounds = layer_calls()
    assert rounds == len(SERVERS) * len(SEEDS) * HORIZON
    per_round = sum(calls.values()) / rounds
    layers = ", ".join(
        f"{layer} {count / rounds:.3f}" for layer, count in calls.items()
    )
    # Not vacuous: the profiler saw the three party steps every round.
    assert min(calls["user"], calls["server"], calls["world"]) >= rounds
    assert per_round <= SWEEP_BUDGET, (
        f"{per_round:.3f} Python calls per round > {SWEEP_BUDGET} ({layers})"
    )


#: ``repro`` calls per round of the served burst (150 mixed sessions of
#: 200 rounds, two workers, 32-round slices), counted in ``repro`` frames
#: only so the event loop's frames on each Python minor version cannot
#: move it.  The change that set it measured 9.255 on Python 3.11, where
#: the parent tree read 9.292: every slice entered the generator-based
#: tracer-lending context even with no tracer to lend.  The ceiling
#: leaves ~8% headroom (~0.75 calls a round) for small changes to the
#: scheduler and the session path.  It was measured on 3.11 only; 3.12
#: and later inline comprehensions, which can only remove ``repro``
#: frames.  Tighten, do not loosen.
SERVED_BUDGET = 10.0


def test_served_slice_calls_per_round():
    served_pass()  # Warm-up: builds the parties' tables.
    calls, rounds = layer_calls(served_pass, repro_only=True)
    assert rounds == sum(spec.max_rounds for spec in SERVED_SPECS)
    per_round = sum(calls.values()) / rounds
    layers = ", ".join(
        f"{layer} {count / rounds:.3f}" for layer, count in calls.items()
    )
    # Not vacuous: the profiler saw the scheduler and the party steps.
    assert calls["serve"] > rounds / SLICE_ROUNDS
    assert min(calls["user"], calls["server"], calls["world"]) >= rounds
    assert per_round <= SERVED_BUDGET, (
        f"{per_round:.3f} repro calls per round > {SERVED_BUDGET} ({layers})"
    )


#: The ``serve-open`` session shape: the mixed relay/control/universal
#: fleet, 60 rounds, 10% Bernoulli drop.
LEDGER_SPECS = demo_specs("mixed", 60, seed=0, max_rounds=60, drop=0.1)
REPRO_CODE = str(Path(repro.__file__).parent)

#: ``repro`` calls per served round, certified and not.  The
#: one-line-per-round trace measured 33.498 and 20.027 on Python
#: 3.10/3.11 (33.398 and 19.977 on 3.12/3.13, which inline
#: comprehensions); with the one event fold, certify reads 33.548 on
#: 3.10/3.11 and 33.448 on 3.12/3.13, tracing alone unchanged.  Each
#: ceiling is the highest reading plus under 5% (it was 69.8 and 39.9,
#: the per-event ceilings of the line-per-message trace restated per
#: round): these sessions write 1.62 events per round, so one more frame
#: per event (a fold's ``feed``) or per round on either path crosses it.
#: Tighten, do not loosen.
LEDGER_BUDGET = {True: 34.5, False: 21.0}


def serve_ledgered(directory: Path, certify: bool) -> None:
    for index, spec in enumerate(LEDGER_SPECS):
        session = Session(
            spec, session_id=f"s{index}", ledger_dir=directory,
            trace=True, certify=certify,
        )
        session.step(spec.max_rounds)
        session.close()


@pytest.mark.parametrize("certify", [True, False], ids=["certify", "trace"])
def test_ledgered_session_calls_per_round(tmp_path, certify):
    serve_ledgered(tmp_path / "warm", certify)  # Builds the parties' tables.
    calls = 0

    def profile(frame, event: str, arg: object) -> None:
        nonlocal calls
        if event == "call":
            code = frame.f_code.co_filename
            if code.startswith(REPRO_CODE) or code.startswith("<line writer"):
                calls += 1

    directory = tmp_path / "counted"
    sys.setprofile(profile)
    try:
        serve_ledgered(directory, certify)
    finally:
        sys.setprofile(None)
    traces = sorted(directory.glob("*.jsonl"))
    assert len(traces) == len(LEDGER_SPECS)
    rounds = sum(
        isinstance(event, RoundExecuted)
        for path in traces
        for event in read_trace(path)[1]
    )
    assert rounds == 60 * 60  # Not vacuous: every session served its horizon.
    per_round = calls / rounds
    assert per_round <= LEDGER_BUDGET[certify], (
        f"{per_round:.2f} repro calls per served round "
        f"({calls} calls, {rounds} rounds, certify={certify})"
    )
