"""The ``python -m repro.serve`` command line — serve load generation.

Runs one of the demo fleets (:func:`repro.serve.loadgen.demo_specs`)
through a fresh :class:`~repro.serve.engine.ServeEngine` and reports the
capacity figures::

    python -m repro.serve --sessions 1200 --family mixed --horizon 160
    python -m repro.serve --sessions 200 --drop 0.1 --ledger runs/ --trace

``--out BENCH_serve.json`` writes the report in the bench-baseline shape
consumed by ``benchmarks/check_bench_regression.py --metric
sessions_per_s``; ``--format json`` prints the same payload to stdout.
``--ledger DIR`` makes every session append a manifest line to
``DIR/manifests.ndjson`` (add ``--trace`` for certifiable traces, one file
per session, and ``--certify`` to re-check each one on the spot).

The live telemetry plane (:mod:`repro.obs.live`): ``--metrics FILE``
streams flushed per-interval samples, ``--admin SPEC`` serves
``/status``/``/sessions``/``/metrics`` on loopback or a UNIX socket
(watch either with ``python -m repro.obs top``), and ``--flight N``
gives every session a bounded flight recorder whose last events are
dumped under ``<ledger>/flight/`` when the session dies.

Exit codes: 0 on a clean run, 1 when any session failed, 2 on usage
errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.serve.loadgen import ADMISSION_MODES, FAMILIES, demo_specs, run_load


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "Serve a fleet of goal-oriented sessions through the asyncio "
            "engine and report throughput/latency figures."
        ),
    )
    parser.add_argument(
        "--sessions", type=int, default=1000,
        help="fleet size (default 1000)",
    )
    parser.add_argument(
        "--family", choices=FAMILIES, default="mixed",
        help="demo goal family to serve (default mixed)",
    )
    parser.add_argument(
        "--horizon", type=int, default=160, metavar="ROUNDS",
        help="max rounds per session (default 160)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="master seed; per-session seeds fan out from it (default 0)",
    )
    parser.add_argument(
        "--drop", type=float, default=0.0, metavar="RATE",
        help="Bernoulli drop rate on every session's channel (default 0)",
    )
    parser.add_argument(
        "--rate", type=float, default=0.0, metavar="PER_S",
        help="arrival rate in sessions/s (default 0 = burst)",
    )
    parser.add_argument(
        "--admission", choices=ADMISSION_MODES, default="park",
        help="what a full engine does to arrivals (default park)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="engine worker tasks (default 2)",
    )
    parser.add_argument(
        "--max-open", type=int, default=2048, metavar="N",
        help="admission bound: max open sessions (default 2048)",
    )
    parser.add_argument(
        "--slice", dest="slice_rounds", type=int, default=32, metavar="ROUNDS",
        help="rounds per scheduling slice (default 32)",
    )
    parser.add_argument(
        "--ledger", type=Path, metavar="DIR",
        help="write a RunManifest per session into this directory",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="also write a certifiable JSONL trace per session (needs --ledger)",
    )
    parser.add_argument(
        "--certify", action="store_true",
        help="re-check every trace/manifest pair as it is written",
    )
    parser.add_argument(
        "--metrics", type=Path, metavar="FILE",
        help="stream live telemetry samples to this metrics.jsonl file",
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=1.0, metavar="SECONDS",
        help="sampling interval for --metrics (default 1.0)",
    )
    parser.add_argument(
        "--admin", metavar="SPEC",
        help="serve /status /sessions /metrics on [host:]port (loopback) "
        "or a UNIX socket path",
    )
    parser.add_argument(
        "--flight", type=int, default=0, metavar="N",
        help="per-session flight-recorder capacity; failed sessions dump "
        "their last N events under <ledger>/flight/ (needs --ledger)",
    )
    parser.add_argument(
        "--out", type=Path, metavar="FILE",
        help="merge the report into this JSON baseline (BENCH_serve.json)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout rendering (default text)",
    )
    return parser


def _merge_baseline(path: Path, fields: Dict[str, Any]) -> None:
    """Merge ``fields`` into ``path`` the way the sweep bench composes
    BENCH_sweep.json — existing keys survive unless overwritten."""
    payload: Dict[str, Any] = {}
    if path.exists():
        loaded = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(loaded, dict):
            payload = loaded
    payload.update(fields)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _render_text(payload: Dict[str, Any]) -> str:
    lines = [
        f"served {payload['settled']}/{payload['sessions']} sessions "
        f"({payload['achieved']} achieved, {payload['failed']} failed, "
        f"{payload['rejected']} rejected) in {payload['wall_s']:.3f}s",
        f"throughput : {payload['sessions_per_s']:.1f} sessions/s, "
        f"{payload['rounds_per_s']:.0f} rounds/s",
        f"concurrency: {payload['open_high_water']} open sessions high-water "
        f"(max_open={payload['max_open']}, {payload['workers']} workers, "
        f"slice={payload['slice_rounds']})",
    ]
    p50, p95, p99 = (
        payload["latency_p50_ms"], payload["latency_p95_ms"],
        payload["latency_p99_ms"],
    )
    if p50 is not None:
        lines.append(
            f"latency    : p50 {p50:.1f}ms, p95 {p95:.1f}ms, p99 {p99:.1f}ms "
            "(arrival to settled)"
        )
    if payload.get("peak_rss_mb") is not None:
        lines.append(f"memory     : peak RSS {payload['peak_rss_mb']:.1f} MB")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.trace and args.ledger is None:
        _parser().error("--trace requires --ledger DIR")
    if args.certify and not args.trace:
        _parser().error("--certify requires --trace")
    if args.flight and args.ledger is None:
        _parser().error("--flight requires --ledger DIR")

    specs = demo_specs(
        args.family,
        args.sessions,
        seed=args.seed,
        max_rounds=args.horizon,
        drop=args.drop,
    )
    report = run_load(
        specs,
        rate=args.rate,
        admission=args.admission,
        max_open=args.max_open,
        workers=args.workers,
        slice_rounds=args.slice_rounds,
        ledger_dir=None if args.ledger is None else str(args.ledger),
        trace=args.trace,
        certify=args.certify,
        metrics_path=None if args.metrics is None else str(args.metrics),
        metrics_interval_s=args.metrics_interval,
        admin=args.admin,
        flight=args.flight,
    )

    payload = report.to_payload()
    payload.update(
        {
            "family": args.family,
            "horizon": args.horizon,
            "drop": args.drop,
            "rate": args.rate,
            "workers": args.workers,
            "max_open": args.max_open,
            "slice_rounds": args.slice_rounds,
            "seed": args.seed,
            "cores": os.cpu_count() or 1,
        }
    )
    if args.out is not None:
        _merge_baseline(args.out, payload)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(_render_text(payload))
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
