"""Compare a fresh BENCH_sweep.json against the committed baseline.

The CI bench gate works in three steps: stash the committed baseline,
re-run ``benchmarks/bench_sweep.py`` (which overwrites the JSON), then
invoke this script with both files::

    python benchmarks/check_bench_regression.py baseline.json BENCH_sweep.json

The gate is throughput, not wall-clock: ``cells_per_s`` (serial cells per
second) is the one figure that is comparable across runs of the same
machine class, and ``batched_cells_per_s`` (the vectorized lockstep
backend) gates the same way when both files carry it.  A candidate more
than ``--tolerance`` (default 25%) slower than baseline fails with exit
code 1.  Wall-clock fields and speedups are printed for context but never
gate — CI runners vary too much in core count for the parallel numbers to
be stable.

``--metric KEY`` points the gate at a different throughput figure; the
serve capacity gate compares ``BENCH_serve.json`` files the same way::

    python benchmarks/check_bench_regression.py \
        baseline_serve.json BENCH_serve.json --metric sessions_per_s

(The secondary ``batched_cells_per_s`` check only applies to the default
``cells_per_s`` metric.  The serve gate also bounds tail latency and
memory: when both files carry ``latency_p95_ms`` — the loadgen's
streaming-histogram p95 — or ``peak_rss_mb`` — the serving process's
``ru_maxrss`` — the candidate may not exceed the baseline by more than
the same tolerance.)

Baselines recorded on a different core count are reported but not
enforced, since serial throughput also shifts with the machine class.

Several candidate files may follow the baseline; the gate then compares
each figure's median over the candidates that carry it, so one noisy run
neither fails nor passes the gate on its own::

    python benchmarks/check_bench_regression.py baseline_serve.json \
        run1.json run2.json run3.json --metric sessions_per_s

``--record FILE`` additionally appends one ``{"manifest", "metrics"}``
line for the candidate to a bench-history JSONL file (conventionally
``BENCH_history.jsonl``); ``python -m repro.obs diff --history FILE``
compares the two newest entries.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

# CI runs this script without PYTHONPATH=src; the ledger import for
# --record needs the in-repo package.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"error: benchmark file not found: {path}")
    except json.JSONDecodeError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def median_payload(payloads: list[dict]) -> dict:
    """One payload whose numeric figures are medians over ``payloads``.

    Non-numeric fields (and ``cores``, which identifies the machine class)
    come from the first payload; a figure is the median of the payloads
    that carry it as a number, and stays absent or null when none does.
    """
    merged = dict(payloads[0])
    keys = {key for payload in payloads for key in payload}
    for key in sorted(keys - {"cores"}):
        values = [p[key] for p in payloads if _is_number(p.get(key))]
        if values:
            merged[key] = statistics.median(values)
    return merged


def throughput(payload: dict, label: str, metric: str = "cells_per_s") -> float:
    if metric in payload:
        return float(payload[metric])
    if metric == "cells_per_s":
        # Older baselines predate the explicit field; derive it.
        try:
            return payload["cells"] / payload["serial_s"]
        except (KeyError, ZeroDivisionError):
            pass
    sys.exit(f"error: {label} has no usable {metric} figures")


def unit(metric: str) -> str:
    """Human display unit for a ``*_per_s`` metric key."""
    if metric.endswith("_per_s"):
        return metric[: -len("_per_s")].replace("_", " ") + "/s"
    return metric


def record_history(history: Path, candidate: dict, source: Path) -> None:
    """Append one ``{"manifest", "metrics"}`` line for the candidate.

    The manifest half is provenance (version, commit, machine class); the
    metrics half is every numeric figure in the bench payload, which is
    exactly the shape ``python -m repro.obs diff --history`` consumes.
    """
    from repro.obs.ledger import LEDGER_SCHEMA, git_sha
    from repro.version import __version__

    metrics = {key: value for key, value in candidate.items() if _is_number(value)}
    entry = {
        "manifest": {
            "ledger_schema": LEDGER_SCHEMA,
            "kind": "bench",
            "source": source.name,
            "repro_version": __version__,
            "git_sha": git_sha(),
            "cores": candidate.get("cores"),
        },
        "metrics": metrics,
    }
    with history.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
    print(f"recorded candidate metrics to {history}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed BENCH_sweep.json")
    parser.add_argument(
        "candidates",
        type=Path,
        nargs="+",
        metavar="candidate",
        help="freshly generated JSON; several runs gate on their per-figure "
        "median",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    parser.add_argument(
        "--record",
        type=Path,
        metavar="FILE",
        help="append the candidate's {manifest, metrics} to this "
        "bench-history JSONL file (see python -m repro.obs diff --history)",
    )
    parser.add_argument(
        "--metric",
        default="cells_per_s",
        metavar="KEY",
        help="throughput key to gate on (default cells_per_s; the serve "
        "gate passes sessions_per_s for BENCH_serve.json pairs)",
    )
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    candidate = median_payload([load(path) for path in args.candidates])

    if args.record is not None:
        record_history(args.record, candidate, args.candidates[0])

    base_tp = throughput(baseline, "baseline", args.metric)
    cand_tp = throughput(candidate, "candidate", args.metric)
    ratio = cand_tp / base_tp if base_tp else float("inf")
    figures = unit(args.metric)

    print(f"baseline  : {base_tp:.2f} {figures} ({baseline.get('cores')} cores)")
    runs = len(args.candidates)
    print(
        f"candidate : {cand_tp:.2f} {figures} ({candidate.get('cores')} cores"
        + (f", median of {runs} runs)" if runs > 1 else ")")
    )
    print(f"ratio     : {ratio:.3f} (floor {1 - args.tolerance:.2f})")

    if baseline.get("cores") != candidate.get("cores"):
        print("note: core counts differ — skipping the throughput gate")
        return 0
    if ratio < 1 - args.tolerance:
        print(
            f"FAIL: {figures} throughput regressed by {(1 - ratio) * 100:.1f}% "
            f"(> {args.tolerance * 100:.0f}% allowed)"
        )
        return 1

    # The batched backend gates only when both sides measured it (older
    # baselines predate it; numpy-less runs skip the batched bench), and
    # only alongside the default serial metric.
    base_batched = baseline.get("batched_cells_per_s")
    cand_batched = candidate.get("batched_cells_per_s")
    if args.metric == "cells_per_s" and base_batched and cand_batched:
        batched_ratio = float(cand_batched) / float(base_batched)
        print(
            f"batched   : {float(cand_batched):.2f} vs "
            f"{float(base_batched):.2f} cells/s "
            f"(ratio {batched_ratio:.3f}, floor {1 - args.tolerance:.2f})"
        )
        if batched_ratio < 1 - args.tolerance:
            print(
                f"FAIL: batched throughput regressed by "
                f"{(1 - batched_ratio) * 100:.1f}% "
                f"(> {args.tolerance * 100:.0f}% allowed)"
            )
            return 1

    # Tail latency and peak memory gate the serve bench the other way
    # around: higher is worse.  Only when both sides measured them (burst
    # runs without settled sessions report null p95s; older baselines
    # lack the keys).
    if args.metric == "sessions_per_s":
        for key, label, figure in (
            ("latency_p95_ms", "p95", "ms"),
            ("peak_rss_mb", "peak RSS", "MB"),
        ):
            base_value = baseline.get(key)
            cand_value = candidate.get(key)
            if not (base_value and cand_value):
                continue
            ceiling_ratio = float(cand_value) / float(base_value)
            print(
                f"{label:<10}: {float(cand_value):.1f} vs {float(base_value):.1f} "
                f"{figure} (ratio {ceiling_ratio:.3f}, "
                f"ceiling {1 + args.tolerance:.2f})"
            )
            if ceiling_ratio > 1 + args.tolerance:
                print(
                    f"FAIL: {label} grew by {(ceiling_ratio - 1) * 100:.1f}% "
                    f"(> {args.tolerance * 100:.0f}% allowed)"
                )
                return 1
    print("OK: throughput within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
