"""ServeEngine semantics: scheduling, backpressure, drain, telemetry.

All tests drive the engine through ``asyncio.run`` (stdlib only — no
pytest-asyncio in the image).  The headline assertions: multiplexed
sessions settle with results bitwise-equal to the batch engine's, a full
engine rejects or parks exactly as configured, drain is graceful
mid-enumeration, one broken session cannot take its neighbours down, and
the counters add up.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro.core.execution import FULL_RECORDING, run_execution
from repro.core.strategy import UserStrategy
from repro.errors import ServeError
from repro.obs.certify import certify_run
from repro.obs.ledger import MANIFEST_STREAM, read_manifests
from repro.serve.engine import (
    EngineClosed,
    ServeEngine,
    SessionRejected,
)
from repro.serve.loadgen import demo_specs
from repro.serve.session import SessionOutcome


def run(coroutine):
    return asyncio.run(coroutine)


def batch_reference(spec):
    execution = run_execution(
        spec.user, spec.server, spec.goal.world,
        max_rounds=spec.max_rounds, seed=spec.seed,
        recording=spec.recording, channel=spec.channel,
        referee=spec.goal.referee,
    )
    return execution, spec.goal.evaluate(execution)


class ExplodingUser(UserStrategy):
    """Steps fine for a while, then raises — a broken tenant."""

    def __init__(self, after: int) -> None:
        self._after = after

    def initial_state(self, rng):
        return 0

    def step(self, state, inbox, rng):
        if state >= self._after:
            raise RuntimeError("tenant bug")
        from repro.comm.messages import UserOutbox

        return state + 1, UserOutbox()


class TestEndToEndParity:
    def test_multiplexed_equals_batch_bitwise(self):
        specs = demo_specs(
            "mixed", 18, seed=21, max_rounds=90, drop=0.1,
            recording=FULL_RECORDING,
        )

        async def serve():
            async with ServeEngine(max_open=6, workers=2, slice_rounds=5) as eng:
                handles = [await eng.submit(spec) for spec in specs]
                return await asyncio.gather(*(h.future for h in handles))

        outcomes = run(serve())
        for spec, outcome in zip(specs, outcomes):
            execution, verdict = batch_reference(spec)
            assert outcome.execution == execution, spec.label
            assert outcome.outcome == verdict, spec.label

    def test_served_traces_certify(self, tmp_path):
        specs = demo_specs("mixed", 6, seed=2, max_rounds=60, drop=0.1)

        async def serve():
            engine = ServeEngine(
                max_open=4, workers=2, slice_rounds=8,
                ledger_dir=tmp_path, trace=True,
            )
            async with engine:
                handles = [await engine.submit(spec) for spec in specs]
                return await asyncio.gather(*(h.future for h in handles))

        outcomes = run(serve())
        for outcome in outcomes:
            certify_run(outcome.trace_path, outcome.manifest_location)

    def test_session_ids_unique_and_handles_awaitable(self):
        specs = demo_specs("relay", 5, seed=1, max_rounds=30)

        async def serve():
            async with ServeEngine(max_open=8, workers=1) as engine:
                handles = [await engine.submit(spec) for spec in specs]
                ids = [h.session_id for h in handles]
                assert len(set(ids)) == len(ids)
                return [await h for h in handles]  # __await__ delegation

        outcomes = run(serve())
        assert all(isinstance(o, SessionOutcome) for o in outcomes)


class TestBackpressure:
    def test_try_submit_rejects_when_full(self):
        specs = demo_specs("relay", 3, seed=1, max_rounds=200)

        async def serve():
            async with ServeEngine(max_open=2, workers=1) as engine:
                engine.try_submit(specs[0])
                engine.try_submit(specs[1])
                with pytest.raises(SessionRejected, match="max_open"):
                    engine.try_submit(specs[2])
                assert engine.counters.get("serve.sessions_rejected") == 1
                assert engine.open_sessions == 2

        run(serve())

    def test_submit_parks_until_a_slot_frees(self):
        specs = demo_specs("relay", 3, seed=1, max_rounds=40)

        async def serve():
            async with ServeEngine(max_open=2, workers=1, slice_rounds=8) as eng:
                first = await eng.submit(specs[0])
                second = await eng.submit(specs[1])
                parked = asyncio.ensure_future(eng.submit(specs[2]))
                await asyncio.sleep(0)
                assert not parked.done()  # engine full: the submitter waits
                await asyncio.gather(first.future, second.future)
                third = await parked  # a settle freed a slot
                await third.future
                assert eng.counters.get("serve.sessions_parked") == 1
                assert eng.counters.get("serve.sessions_settled") == 3

        run(serve())

    def test_open_high_water_respects_bound(self):
        specs = demo_specs("relay", 12, seed=1, max_rounds=40)

        async def serve():
            async with ServeEngine(max_open=3, workers=2, slice_rounds=8) as eng:
                handles = [await eng.submit(spec) for spec in specs]
                await asyncio.gather(*(h.future for h in handles))
                return eng.counters.histogram("serve.open_sessions").maximum

        assert run(serve()) <= 3


class TestDrainAndShutdown:
    def test_drain_is_graceful_mid_enumeration(self):
        """Sessions admitted before the drain keep their enumeration
        state and settle with the exact batch verdicts."""
        specs = demo_specs("universal", 5, seed=8, max_rounds=120, drop=0.1)

        async def serve():
            engine = ServeEngine(max_open=8, workers=2, slice_rounds=4)
            engine.start()
            handles = [await engine.submit(spec) for spec in specs]
            # Let every session get partway through its enumeration.
            for _ in range(10):
                await asyncio.sleep(0)
            assert engine.open_sessions > 0  # genuinely mid-flight
            await engine.drain()
            assert engine.open_sessions == 0
            with pytest.raises(EngineClosed):
                engine.try_submit(specs[0])
            outcomes = [handle.future.result() for handle in handles]
            await engine.close()
            return outcomes

        outcomes = run(serve())
        for spec, outcome in zip(specs, outcomes):
            _, verdict = batch_reference(spec)
            assert outcome.outcome == verdict

    def test_drain_wakes_parked_submitters(self):
        specs = demo_specs("relay", 3, seed=1, max_rounds=5000)

        async def serve():
            engine = ServeEngine(max_open=2, workers=1, slice_rounds=2)
            engine.start()
            await engine.submit(specs[0])
            await engine.submit(specs[1])
            parked = asyncio.ensure_future(engine.submit(specs[2]))
            await asyncio.sleep(0)
            drain = asyncio.ensure_future(engine.drain())
            with pytest.raises(EngineClosed):
                await parked
            await drain
            await engine.close()

        run(serve())

    def test_abort_fails_open_sessions(self):
        specs = demo_specs("relay", 3, seed=1, max_rounds=100_000)

        async def serve():
            engine = ServeEngine(max_open=4, workers=1, slice_rounds=2)
            engine.start()
            handles = [await engine.submit(spec) for spec in specs]
            await asyncio.sleep(0)
            await engine.abort()
            for handle in handles:
                with pytest.raises(ServeError, match="aborted"):
                    await handle.future

        run(serve())

    def test_aexit_on_exception_aborts(self):
        spec = demo_specs("relay", 1, seed=1, max_rounds=100_000)[0]

        async def serve():
            handle = None
            with pytest.raises(RuntimeError, match="boom"):
                async with ServeEngine(max_open=2, workers=1) as engine:
                    handle = await engine.submit(spec)
                    raise RuntimeError("boom")
            with pytest.raises(ServeError):
                await handle.future

        run(serve())


class TestFailureIsolation:
    def test_one_broken_session_cannot_sink_the_rest(self):
        good = demo_specs("control", 4, seed=3, max_rounds=60)
        bad = good[0].__class__(
            user=ExplodingUser(after=10),
            server=good[0].server,
            goal=good[0].goal,
            seed=1,
            max_rounds=60,
        )

        async def serve():
            async with ServeEngine(max_open=8, workers=2, slice_rounds=4) as eng:
                bad_handle = eng.try_submit(bad)
                handles = [await eng.submit(spec) for spec in good]
                with pytest.raises(RuntimeError, match="tenant bug"):
                    await bad_handle.future
                outcomes = await asyncio.gather(*(h.future for h in handles))
                assert eng.counters.get("serve.sessions_failed") == 1
                assert eng.counters.get("serve.sessions_settled") == len(good)
                return outcomes

        outcomes = run(serve())
        for spec, outcome in zip(good, outcomes):
            execution, _ = batch_reference(spec)
            assert outcome.execution == execution


class TestTelemetry:
    def test_counters_add_up(self):
        specs = demo_specs("mixed", 9, seed=4, max_rounds=60, drop=0.1)

        async def serve():
            async with ServeEngine(max_open=4, workers=2, slice_rounds=8) as eng:
                handles = [await eng.submit(spec) for spec in specs]
                outcomes = await asyncio.gather(*(h.future for h in handles))
                return eng, outcomes

        engine, outcomes = run(serve())
        counters = engine.counters
        assert counters.get("serve.sessions_submitted") == len(specs)
        assert counters.get("serve.sessions_settled") == len(specs)
        assert counters.get("serve.sessions_achieved") == sum(
            1 for o in outcomes if o.outcome.achieved
        )
        assert counters.get("serve.rounds") == sum(
            o.execution.rounds_executed for o in outcomes
        )
        stats = engine.stats()
        assert stats["open_sessions_now"] == 0
        assert stats["serve.session_rounds"]["count"] == len(specs)

    def test_engine_summary_written_beside_ledger(self, tmp_path):
        specs = demo_specs("relay", 3, seed=1, max_rounds=30)

        async def serve():
            async with ServeEngine(
                max_open=4, workers=1, ledger_dir=tmp_path
            ) as engine:
                handles = [await engine.submit(spec) for spec in specs]
                await asyncio.gather(*(h.future for h in handles))

        run(serve())
        summary = json.loads((tmp_path / "engine.json").read_text())
        assert summary["serve.sessions_settled"] == 3
        assert len(read_manifests(tmp_path / MANIFEST_STREAM)) == 3


class TestValidation:
    def test_constructor_rejects_nonsense(self):
        with pytest.raises(ServeError):
            ServeEngine(max_open=0)
        with pytest.raises(ServeError):
            ServeEngine(workers=0)
        with pytest.raises(ServeError):
            ServeEngine(slice_rounds=0)

    def test_double_start_rejected(self):
        async def serve():
            async with ServeEngine() as engine:
                with pytest.raises(ServeError, match="started"):
                    engine.start()

        run(serve())

    def test_scheduling_order_never_changes_results(self):
        """Two engines with different worker/slice shapes, shuffled
        submission orders — identical per-spec results."""
        specs = demo_specs("mixed", 9, seed=6, max_rounds=60, drop=0.1)
        shuffled = list(specs)
        random.Random(0).shuffle(shuffled)

        async def serve(ordering, workers, slice_rounds):
            async with ServeEngine(
                max_open=5, workers=workers, slice_rounds=slice_rounds
            ) as engine:
                handles = {
                    spec.label: await engine.submit(spec) for spec in ordering
                }
                return {
                    label: await handle.future
                    for label, handle in handles.items()
                }

        first = run(serve(specs, workers=1, slice_rounds=64))
        second = run(serve(shuffled, workers=3, slice_rounds=3))
        assert first.keys() == second.keys()
        for label, outcome in first.items():
            assert outcome.execution == second[label].execution, label
