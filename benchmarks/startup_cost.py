"""Startup cost: what importing each entry point costs a fresh process.

Imports each entry point in a new interpreter and prints the CPU seconds
the imports take, the peak RSS after them, the number of loaded modules
and which of the optional heavy modules (numpy, the process pool, the
live-telemetry plane) came along — the median of ``--repeats`` fresh
interpreters per row::

    python benchmarks/startup_cost.py [--src DIR ...] [--repeats 7] [--cache DIR]

``--src`` (repeatable, default this checkout's ``src``) names the source
trees to measure; with several, the runs alternate between them, so a
before/after comparison shares the machine's state.  Without ``--cache``
no bytecode is written (``PYTHONDONTWRITEBYTECODE=1``), so a tree without
``__pycache__`` directories compiles its sources on every start.  With
``--cache DIR`` every interpreter keeps its bytecode under ``DIR``
(``PYTHONPYCACHEPREFIX``, one directory per tree), warmed by one
unmeasured run first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ENTRY_POINTS: Tuple[Tuple[str, ...], ...] = (
    ("repro.analysis.runner",),
    ("repro.obs.certify",),
    ("repro.serve.engine",),
    ("repro.analysis.runner", "repro.obs.certify", "repro.serve.engine"),
)

HEAVY = ("numpy", "multiprocessing", "concurrent.futures.process", "repro.obs.live")

PROBE = """
import importlib, json, resource, sys, time
start = time.process_time()
for name in sys.argv[1:]:
    importlib.import_module(name)
cpu_s = time.process_time() - start
print(json.dumps({
    "cpu_s": cpu_s,
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "modules": len(sys.modules),
    "heavy": [m for m in %r if sys.modules.get(m) is not None],
}))
""" % (HEAVY,)


def probe(src: Path, names: Tuple[str, ...], cache: Optional[Path]) -> Dict[str, Any]:
    """One fresh interpreter importing ``names`` from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONPYCACHEPREFIX", None)
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(cache)
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, *names],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(completed.stdout)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append", help="source tree")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--cache", type=Path, help="bytecode cache root")
    args = parser.parse_args(argv)
    default = Path(__file__).resolve().parent.parent / "src"
    trees: List[Path] = [path.resolve() for path in args.src or [default]]
    caches: Dict[Path, Optional[Path]] = {
        tree: None if args.cache is None else args.cache / f"tree{index}"
        for index, tree in enumerate(trees)
    }
    if args.cache is not None:
        for tree in trees:
            probe(tree, ENTRY_POINTS[-1], caches[tree])
    samples: Dict[Tuple[Path, int], List[Dict[str, Any]]] = {}
    for _ in range(args.repeats):
        for index, names in enumerate(ENTRY_POINTS):
            for tree in trees:
                samples.setdefault((tree, index), []).append(
                    probe(tree, names, caches[tree])
                )
    cores = os.cpu_count() or 1
    mode = "no bytecode cache" if args.cache is None else "warm bytecode cache"
    print(f"import cost, median of {args.repeats} ({mode}, {cores} cores)")
    print(f"{'tree':<28} {'entry point':<34} {'cpu_s':>7} {'rss_mb':>7} "
          f"{'modules':>7}  heavy")
    for tree in trees:
        for index, names in enumerate(ENTRY_POINTS):
            runs = samples[(tree, index)]
            label = names[0] if len(names) == 1 else "all three"
            cpu = statistics.median(r["cpu_s"] for r in runs)
            rss = statistics.median(r["rss_mb"] for r in runs)
            modules = statistics.median(r["modules"] for r in runs)
            heavy = ",".join(runs[-1]["heavy"]) or "-"
            print(f"{str(tree)[-28:]:<28} {label:<34} {cpu:7.3f} {rss:7.1f} "
                  f"{modules:7.0f}  {heavy}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
