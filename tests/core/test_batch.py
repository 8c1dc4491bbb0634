"""Batching never changes results.

Scalar lockstep — many :class:`ExecutionStepper` objects advanced one
round at a time, round-robin, the way the session service interleaves
sessions — must produce :class:`ExecutionResult` objects equal to
:func:`run_execution`, field by field, for arbitrary strategies —
including RNG consumers, halting users, fault channels, and every
recording policy.  Since ``run_execution`` is one ``step_many`` slice,
this pins that slice boundaries (the loop's local write-back) never
change a run.  The vectorized kernel (:func:`run_tabular_batch`) must
report the same verdict arithmetic the serial engine + referee produce
over compiled casts.  numpy stays optional: without it, compilation
declines and the batched backend runs every cell on the serial engine.
"""

from __future__ import annotations

import sys

import pytest

import repro.core.batch as batch_module
from repro.comm.messages import UserOutbox
from repro.core.batch import (
    HAVE_NUMPY,
    compile_tabular_cast,
    run_tabular_batch,
)
from repro.core.execution import (
    METRICS_RECORDING,
    ExecutionStepper,
    derive_party_seeds,
    run_execution,
)
from repro.errors import ExecutionError
from repro.faults.channel import drop_channel
from repro.machines.tabular import (
    coded_server_class,
    relay_decoder_class,
    relay_goal,
)
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Tracer
from repro.users.scripted import ScriptedUser

from tests.core.helpers import (
    CountingWorld,
    EchoServer,
    IncrementingUser,
    RandomCoinUser,
)
from repro.core.strategy import SilentServer, SilentUser

SYMBOLS = ("a", "b", "c")


def serial(user, server, world, **kwargs):
    return run_execution(user, server, world, **kwargs)


def run_lockstep(steppers):
    """Step every stepper one round per pass until all settle."""
    live = [s for s in steppers if s.live]
    while live:
        for stepper in live:
            stepper.step()
        live = [s for s in live if s.live]
    return [s.finish() for s in steppers]


def lockstep_one(user, server, world, **kwargs):
    return run_lockstep([ExecutionStepper(user, server, world, **kwargs)])[0]


def assert_executions_equal(got, expected):
    """Field-wise ExecutionResult equality (UserView lacks ``__eq__``)."""
    assert got.rounds == expected.rounds
    assert got.world_states == expected.world_states
    assert got.transcript == expected.transcript
    assert got.halted == expected.halted
    assert got.user_output == expected.user_output
    assert got.final_user_state == expected.final_user_state
    assert got.rounds_completed == expected.rounds_completed
    assert got.recording == expected.recording
    assert got.channel_name == expected.channel_name
    assert list(got.user_view) == list(expected.user_view)
    assert type(got.user_view) is type(expected.user_view)


class TestScalarLockstepParity:
    def test_silent_cast(self):
        expected = serial(SilentUser(), SilentServer(), CountingWorld(),
                          max_rounds=7, seed=0)
        got = lockstep_one(SilentUser(), SilentServer(), CountingWorld(),
                           max_rounds=7, seed=0)
        assert_executions_equal(got, expected)

    def test_rng_consuming_user(self):
        """Per-slot RNG streams match the serial per-party derivation."""
        for seed in (0, 1, 17):
            expected = serial(RandomCoinUser(), EchoServer(), CountingWorld(),
                              max_rounds=9, seed=seed)
            got = lockstep_one(RandomCoinUser(), EchoServer(), CountingWorld(),
                               max_rounds=9, seed=seed)
            assert_executions_equal(got, expected)

    def test_halting_user_stops_its_slot_only(self):
        steppers = [
            ExecutionStepper(IncrementingUser(limit=3), SilentServer(),
                             CountingWorld(), seed=0, max_rounds=100),
            ExecutionStepper(SilentUser(), SilentServer(), CountingWorld(),
                             seed=0, max_rounds=10),
        ]
        halted, full = run_lockstep(steppers)
        assert halted.halted and halted.rounds_executed == 4
        assert halted.user_output == "sent:3"
        assert not full.halted and full.rounds_executed == 10

    def test_fault_channel_parity(self):
        channel = drop_channel(0.2)
        expected = serial(ScriptedUser([UserOutbox(to_server="ping")] * 6),
                          EchoServer(), CountingWorld(),
                          max_rounds=6, seed=3, channel=channel)
        got = lockstep_one(ScriptedUser([UserOutbox(to_server="ping")] * 6),
                           EchoServer(), CountingWorld(),
                           max_rounds=6, seed=3, channel=drop_channel(0.2))
        assert_executions_equal(got, expected)

    def test_recording_policy_parity(self):
        expected = serial(RandomCoinUser(), EchoServer(), CountingWorld(),
                          max_rounds=12, seed=5, recording=METRICS_RECORDING)
        got = lockstep_one(RandomCoinUser(), EchoServer(), CountingWorld(),
                           max_rounds=12, seed=5, recording=METRICS_RECORDING)
        assert_executions_equal(got, expected)

    def test_mixed_batch_matches_pairwise_serial(self):
        """Slots with different casts, seeds, and horizons interleave freely."""
        params = [(0, 3), (1, 11), (2, 7), (3, 1)]
        got = run_lockstep([
            ExecutionStepper(RandomCoinUser(), EchoServer(), CountingWorld(),
                             seed=s, max_rounds=r)
            for s, r in params
        ])
        for (seed, max_rounds), result in zip(params, got):
            assert_executions_equal(
                result,
                serial(RandomCoinUser(), EchoServer(), CountingWorld(),
                       max_rounds=max_rounds, seed=seed),
            )

    def test_tracer_counters_match_serial(self):
        sink = MemorySink()
        tracer = Tracer(sink=sink)
        serial(ScriptedUser([UserOutbox(to_server="ping")] * 4), EchoServer(),
               CountingWorld(), max_rounds=4, seed=0, tracer=tracer)
        batch_sink = MemorySink()
        lockstep_one(ScriptedUser([UserOutbox(to_server="ping")] * 4),
                     EchoServer(), CountingWorld(), max_rounds=4, seed=0,
                     tracer=Tracer(sink=batch_sink))
        assert batch_sink.events == sink.events

    def test_empty_batch(self):
        assert run_lockstep([]) == []

    def test_item_validation(self):
        with pytest.raises(ExecutionError):
            ExecutionStepper(SilentUser(), SilentServer(), CountingWorld(),
                             max_rounds=0)

    def test_seed_derivation_matches_engine_observables(self):
        """Same master seed → same user coin stream as the serial engine."""
        u, s, w, _chan = derive_party_seeds(42)
        assert (u, s, w) != (0, 0, 0)
        a = lockstep_one(RandomCoinUser(), EchoServer(), CountingWorld(),
                         max_rounds=5, seed=42)
        b = serial(RandomCoinUser(), EchoServer(), CountingWorld(),
                   max_rounds=5, seed=42)
        assert a.transcript == b.transcript
        assert_executions_equal(a, b)


def relay_cast(user_shift=0, server_shift=0):
    goal = relay_goal(SYMBOLS)
    user = relay_decoder_class(SYMBOLS)[user_shift]
    server = coded_server_class(SYMBOLS)[server_shift]
    return user, server, goal


@pytest.mark.skipif(not HAVE_NUMPY, reason="vectorized tier needs numpy")
class TestVectorizedKernel:
    def test_verdict_parity_with_serial_referee(self):
        """Kernel verdict arithmetic == serial engine + referee, per cell."""
        goal = relay_goal(SYMBOLS)
        users = relay_decoder_class(SYMBOLS)
        servers = coded_server_class(SYMBOLS)
        casts = []
        expected = []
        for user in users:
            for server in servers:
                cast = compile_tabular_cast(user, server, goal.world, goal)
                assert cast is not None
                casts.append(cast)
                execution = serial(user, server, goal.world,
                                   max_rounds=40, seed=0)
                expected.append(goal.evaluate(execution))
        outcomes = run_tabular_batch(casts, max_rounds=40)
        for outcome, verdict in zip(outcomes, expected):
            assert outcome.achieved == verdict.achieved
            assert verdict.compact_verdict is not None
            assert outcome.bad_prefixes == verdict.compact_verdict.bad_prefixes
            assert (
                outcome.last_bad_round
                == verdict.compact_verdict.last_bad_round
            )

    def test_only_matching_decoder_achieves(self):
        goal = relay_goal(SYMBOLS)
        user = relay_decoder_class(SYMBOLS)[1]
        casts = [
            compile_tabular_cast(user, server, goal.world, goal)
            for server in coded_server_class(SYMBOLS)
        ]
        outcomes = run_tabular_batch(casts, max_rounds=60)
        assert [o.achieved for o in outcomes] == [False, True, False]

    def test_message_counters_match_serial_tracer(self):
        user, server, goal = relay_cast()
        cast = compile_tabular_cast(user, server, goal.world, goal)
        [outcome] = run_tabular_batch([cast], max_rounds=30,
                                      count_messages=True)
        tracer = Tracer()
        serial(user, server, goal.world, max_rounds=30, seed=0, tracer=tracer)
        counters = dict(tracer.counters.snapshot())
        assert outcome.messages == counters["messages"]
        assert outcome.message_bytes == counters["message_bytes"]

    def test_compile_declines_on_channel(self):
        user, server, goal = relay_cast()
        assert compile_tabular_cast(
            user, server, goal.world, goal, channel=drop_channel(0.1)
        ) is None

    def test_compile_declines_on_untabular_party(self):
        _, server, goal = relay_cast()
        assert compile_tabular_cast(
            RandomCoinUser(), server, goal.world, goal
        ) is None

    def test_batch_validation(self):
        user, server, goal = relay_cast()
        cast = compile_tabular_cast(user, server, goal.world, goal)
        with pytest.raises(ExecutionError):
            run_tabular_batch([cast], max_rounds=0)
        assert run_tabular_batch([], max_rounds=5) == []


def hide_numpy(monkeypatch):
    """Make the numpy accessor report numpy as unavailable."""
    monkeypatch.setattr(batch_module, "_numpy", lambda: None)


class TestNumpyOptional:
    def test_compile_declines_without_numpy(self, monkeypatch):
        hide_numpy(monkeypatch)
        user, server, goal = relay_cast()
        assert compile_tabular_cast(user, server, goal.world, goal) is None

    def test_kernel_raises_without_numpy(self, monkeypatch):
        hide_numpy(monkeypatch)
        with pytest.raises(ExecutionError, match="numpy"):
            run_tabular_batch([], max_rounds=5)

    def test_scalar_lockstep_runs_without_numpy(self, monkeypatch):
        hide_numpy(monkeypatch)
        got = lockstep_one(SilentUser(), SilentServer(), CountingWorld(),
                           max_rounds=3, seed=0)
        assert got.rounds_executed == 3

    def test_batch_sweep_runs_serially_without_numpy(self, monkeypatch):
        """Nothing compiles without numpy; ``batch=`` still equals serial."""
        from repro.analysis.runner import sweep

        hide_numpy(monkeypatch)
        user, _, goal = relay_cast()
        servers = coded_server_class(SYMBOLS)
        expected = sweep(user, servers, goal, seeds=(0, 1), max_rounds=20)
        batched = sweep(
            user, servers, goal, seeds=(0, 1), max_rounds=20, batch=4
        )
        assert batched == expected

    def test_numpy_that_fails_to_import_falls_back_to_serial(
        self, monkeypatch
    ):
        """An installed numpy whose import raises acts as an absent one."""
        from repro.analysis.runner import sweep

        # ``None`` in sys.modules makes ``import numpy`` raise ImportError.
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.setattr(batch_module, "HAVE_NUMPY", True)
        batch_module._numpy.cache_clear()
        try:
            assert batch_module._numpy() is None
            user, server, goal = relay_cast()
            assert compile_tabular_cast(user, server, goal.world, goal) is None
            servers = coded_server_class(SYMBOLS)
            expected = sweep(user, servers, goal, seeds=(0, 1), max_rounds=20)
            batched = sweep(
                user, servers, goal, seeds=(0, 1), max_rounds=20, batch=4
            )
            assert batched == expected
        finally:
            # Forget the failure so later callers import the real numpy.
            batch_module._numpy.cache_clear()
