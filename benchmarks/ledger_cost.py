"""CPU cost of one ledgered served session, split by what the ledger adds.

Serves the same mixed relay/control/universal fleet (60 rounds, 10%
Bernoulli drop — the ``serve-open`` session shape) four ways and prints
the process CPU time per session, best of ``--repeats`` passes::

    PYTHONPATH=src python benchmarks/ledger_cost.py [--sessions 300] [--repeats 5]

* ``session``  — ``Session(spec)`` stepped and closed, no ledger;
* ``manifest`` — plus a ``RunManifest`` per session (``ledger_dir``);
* ``trace``    — plus the JSONL trace (``trace=True``);
* ``certify``  — plus ``certify_run`` on the fresh pair (``certify=True``).

The table reports each mode and its increment over the previous one, so
the ``trace``, ``manifest`` and ``certify`` rows are what writing the
trace, stamping the manifest and certifying cost on top of the bare
session.  Pointing ``PYTHONPATH`` at another checkout measures that
checkout with the same script.
"""

from __future__ import annotations

import argparse
import os
import shutil
import tempfile
import time
from typing import Any, Dict, List

MODES: Dict[str, Dict[str, bool]] = {
    "session": {},
    "manifest": {"ledger": True},
    "trace": {"ledger": True, "trace": True},
    "certify": {"ledger": True, "trace": True, "certify": True},
}


def serve_once(specs: List[Any], ledger: bool, trace: bool, certify: bool) -> float:
    """CPU seconds to create, step and close every session once."""
    from repro.serve.session import Session

    directory = tempfile.mkdtemp(prefix="ledger-cost-") if ledger else None
    try:
        start = time.process_time()
        for index, spec in enumerate(specs):
            session = Session(
                spec,
                session_id=f"s{index}",
                ledger_dir=directory,
                trace=trace,
                certify=certify,
            )
            session.step(spec.max_rounds)
            session.close()
        return time.process_time() - start
    finally:
        if directory is not None:
            shutil.rmtree(directory)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=300)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.serve.loadgen import demo_specs

    specs = demo_specs("mixed", args.sessions, seed=args.seed, max_rounds=60, drop=0.1)
    serve_once(specs[:30], ledger=True, trace=True, certify=True)  # Warm imports.
    best = {name: float("inf") for name in MODES}
    for _ in range(args.repeats):
        for name, flags in MODES.items():
            seconds = serve_once(
                specs,
                ledger=flags.get("ledger", False),
                trace=flags.get("trace", False),
                certify=flags.get("certify", False),
            )
            best[name] = min(best[name], seconds)

    print(
        f"{args.sessions} sessions, best of {args.repeats}, "
        f"{os.cpu_count()} cores (CPU us per session)"
    )
    previous = 0.0
    for name in MODES:
        per_session = best[name] / args.sessions * 1e6
        print(f"{name:<9} {per_session:>8.0f}  (+{per_session - previous:.0f})")
        previous = per_session
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
