"""CI smoke: the session service under production-shaped load.

Drives 200 genuinely concurrent sessions — mixed goal families (relay /
control / universal), 10% Bernoulli message drop — through one
:class:`~repro.serve.engine.ServeEngine`, all admitted before the first
scheduler slice runs, and then holds the service to the reproduction
repo's standard of evidence:

* every session settles with an :class:`~repro.core.execution
  .ExecutionResult` **equal** to ``run_execution`` on the same cast/seed
  (the serve layer may change where rounds run, never what they compute),
  and the same goal verdict;
* every session leaves one file, its trace, in the ledger directory
  named by ``argv[1]``, and one line in the ledger's ``manifests.ndjson``;
  each trace is certified in-process here (``certify_run``) and
  re-certified by the CI job through the engine-free
  ``python -m repro.obs certify DIR`` CLI (one call for the whole
  ledger) before upload;
* the live telemetry plane holds up under the same load: a mid-run
  admin scrape returns live gauges and Prometheus text that parses, the
  ``metrics.jsonl`` stream's cumulative counters exactly equal the final
  ``engine.json``, and a deliberately broken incident session leaves a
  flight dump under ``<ledger>/flight/`` that certifies as a fragment.

Exits non-zero on any parity break, failed session, or uncertifiable
trace, so the CI step is a real gate, not just an artifact producer.

Runs numpy-free on purpose: the smoke jobs install only pytest, pinning
the service to the stdlib.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

from repro.core.execution import run_execution
from repro.core.strategy import UserStrategy
from repro.obs.certify import certify_run, certify_trace
from repro.obs.ledger import MANIFEST_STREAM, read_manifests
from repro.obs.live import (
    cumulative_counters,
    fetch_admin,
    parse_prometheus,
    read_metrics,
)
from repro.serve.engine import ServeEngine
from repro.serve.loadgen import demo_specs

SESSIONS = 200
HORIZON = 150
DROP = 0.1
SEED = 17


class BrokenTenant(UserStrategy):
    """Steps fine for a while, then raises — the incident under test."""

    def initial_state(self, rng):
        return 0

    def step(self, state, inbox, rng):
        if state >= 8:
            raise RuntimeError("incident: tenant bug")
        from repro.comm.messages import UserOutbox

        return state + 1, UserOutbox()


def main() -> int:
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "serve-smoke")
    metrics = out / "metrics.jsonl"
    specs = demo_specs(
        "mixed", SESSIONS, seed=SEED, max_rounds=HORIZON, drop=DROP
    )

    async def serve():
        engine = ServeEngine(
            max_open=SESSIONS + 1, workers=4, slice_rounds=16,
            ledger_dir=out, trace=True,
            metrics_path=metrics, metrics_interval_s=0.25,
            admin="127.0.0.1:0", flight=64,
        )
        async with engine:
            # try_submit never awaits, so all 200 sessions are open before
            # the first worker slice runs: the high-water mark below is a
            # real concurrency witness, not a race.
            # Inline ledger open at admission is the serve design
            # (single-threaded write path, docs/SERVING.md).
            handles = [engine.try_submit(spec) for spec in specs]  # reprolint: disable=RL101

            # Mid-run admin scrape: live gauges + Prometheus exposition
            # while every session is still open.
            address = await engine.admin_address()
            status = json.loads(await fetch_admin(address, "/status"))
            assert status["gauges"]["open_sessions"] == SESSIONS, status
            assert status["gauges"]["draining"] == 0.0, status
            scraped = parse_prometheus(await fetch_admin(address, "/metrics"))
            assert scraped["repro_open_sessions"] == float(SESSIONS), scraped

            outcomes = await asyncio.gather(*(h.future for h in handles))
            return engine, outcomes, scraped

    engine, outcomes, scraped = asyncio.run(serve())

    high_water = int(engine.counters.histogram("serve.open_sessions").maximum)
    assert high_water == SESSIONS, (
        f"expected {SESSIONS} concurrently open sessions, saw {high_water}"
    )
    assert engine.counters.get("serve.sessions_failed") == 0

    achieved = 0
    for spec, outcome in zip(specs, outcomes):
        reference = run_execution(
            spec.user, spec.server, spec.goal.world,
            max_rounds=spec.max_rounds, seed=spec.seed,
            recording=spec.recording, channel=spec.channel,
            referee=spec.goal.referee,
        )
        verdict = spec.goal.evaluate(reference)
        assert outcome.execution == reference, (
            f"served result diverged from batch run_execution: {spec.label}"
        )
        assert outcome.outcome == verdict, (
            f"served verdict diverged from batch evaluation: {spec.label}"
        )
        certify_run(outcome.trace_path, outcome.manifest_location)
        certify_run(outcome.trace_path)
        achieved += int(verdict.achieved)

    # One file per session (its trace); every manifest is a line of the
    # one stream, in which each trace is named exactly once.
    files = sorted(p.name for p in out.iterdir() if p.is_file())
    expected = sorted(
        [f"{o.session_id}.jsonl" for o in outcomes]
        + [MANIFEST_STREAM, "engine.json", metrics.name]
    )
    assert files == expected, sorted(set(files) ^ set(expected))
    named = [m.trace_path for m in read_manifests(out / MANIFEST_STREAM)]
    assert sorted(named) == sorted(o.trace_path.name for o in outcomes)

    # The metrics stream and the final summary are two views of one
    # CounterSet: summed per-tick deltas must equal engine.json exactly,
    # and the mid-run scrape must agree on everything frozen by then.
    summary = json.loads((out / "engine.json").read_text())
    _, samples = read_metrics(metrics)
    totals = cumulative_counters(samples)
    for name, value in summary.items():
        if isinstance(value, int) and name.startswith("serve."):
            assert totals.get(name, 0) == value, (name, totals.get(name), value)
    assert scraped["repro_serve_sessions_submitted_total"] == float(
        summary["serve.sessions_submitted"]
    )

    # Incident drill: one broken session through a flight-recording
    # engine leaves a fragment-certifiable dump for the postmortem.
    incident_spec = specs[0].__class__(
        user=BrokenTenant(), server=specs[0].server, goal=specs[0].goal,
        seed=1, max_rounds=HORIZON, label="incident",
    )

    # The incident engine gets its own ledger subdirectory so its
    # engine.json cannot recompose over the 200-session run's summary.
    async def crash():
        async with ServeEngine(
            max_open=4, workers=1, slice_rounds=4,
            ledger_dir=out / "incident", flight=32,
        ) as eng:
            # Same inline-ledger-open-at-admission design note as above.
            handle = eng.try_submit(incident_spec, session_id="incident-0")  # reprolint: disable=RL101
            try:
                await handle.future
            except RuntimeError:
                return
            raise AssertionError("incident session settled cleanly?")

    asyncio.run(crash())
    dump = out / "incident" / "flight" / "incident-0.jsonl"
    assert dump.exists(), "incident left no flight dump"
    report = certify_trace(dump, fragment=True)
    assert report.certifiable, report.issues

    print(
        f"serve smoke OK: {len(outcomes)} sessions settled "
        f"({achieved} achieved), high water {high_water}, "
        f"{engine.counters.get('serve.rounds')} rounds, "
        f"{len(samples)} metrics samples agree with engine.json, "
        f"traces + flight dump certified in {out}/"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
