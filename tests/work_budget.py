"""Call counts per round, whole and by layer, of the sweep cast and a
served burst.

:func:`cast_pass` runs the shape of perfbench's ``sweep`` workload: the
compact universal user over the 8-codec follower class against advisors,
2000 rounds, metrics-only and judged as it goes (two servers and two seeds
keep it quick).  :func:`served_pass` runs the shape of perfbench's
``serve-burst``: the mixed relay/control/universal fleet (150 sessions of
200 rounds, metrics-only, no ledger) submitted at once to a fresh
:class:`~repro.serve.engine.ServeEngine` with two workers and 32-round
slices.  :func:`layer_calls` profiles one pass with :func:`sys.setprofile`
and files every Python call under a layer by the module of its code
object:

* ``serve`` — ``repro.serve`` (the scheduler and the session's slice);
* ``engine`` — ``repro.core`` outside sensing (the round loop, the
  referee's monitor);
* ``user``, ``server``, ``world`` — ``repro.users``, ``repro.servers``,
  ``repro.worlds``;
* ``trial`` — ``repro.universal`` (the universal user's trial kernel);
* ``sensing`` — ``repro.core.sensing``;
* ``value constructors`` — generated code (a NamedTuple's ``__new__``,
  a dataclass's ``__init__``);
* ``stdlib`` — everything outside ``repro`` (``random``'s draws, and the
  pass's own few frames).

A helper module with no layer of its own (``repro.comm``'s codecs and
message parsing, ``repro.obs``) is filed under its caller's layer: a codec
decode is work the user does.  The served pass counts ``repro`` frames
only, so the event loop's own frames, which differ between Python minor
versions, cannot move it.  ``tests/test_work_budget.py`` pins both
totals; the tables in ``docs/PERFORMANCE.md`` come from::

    PYTHONPATH=src python -m tests.work_budget --src A/src --src B/src
    PYTHONPATH=src python -m tests.work_budget --served --src A/src --src B/src

which run each source tree in a fresh interpreter and print one column
per tree.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from types import CodeType, FrameType
from typing import Callable, Dict, List, Optional, Tuple

import repro

from repro.comm.codecs import codec_family
from repro.core.execution import METRICS_RECORDING, run_execution
from repro.obs.tracer import TracerLike
from repro.serve.engine import ServeEngine
from repro.serve.loadgen import demo_specs
from repro.servers.advisors import advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.worlds.control import control_goal, control_sensing, random_law

CODECS = codec_family(8)
LAW = random_law(random.Random(0))
GOAL = control_goal(LAW)
SERVERS = advisor_server_class(LAW, CODECS)[:2]
SEEDS = (0, 1)
HORIZON = 2000

#: The served burst: perfbench ``serve-burst``'s fleet and engine shape.
SERVED_SPECS = demo_specs("mixed", 150, seed=0, max_rounds=200)
SERVED_WORKERS = 2
SLICE_ROUNDS = 32

LAYERS = (
    "serve", "engine", "user", "trial", "sensing", "server", "world",
    "value constructors", "stdlib",
)

#: The layers a ``repro``-only count can file calls under.
REPRO_LAYERS = LAYERS[:-2]

#: Module path under ``repro/`` -> layer; the first matching prefix wins.
#: A ``repro`` module matching none takes its caller's layer.
LAYER_PREFIXES = (
    ("serve/", "serve"),
    ("core/sensing.py", "sensing"),
    ("core/", "engine"),
    ("universal/", "trial"),
    ("users/", "user"),
    ("servers/", "server"),
    ("worlds/", "world"),
)

REPRO_CODE = str(Path(repro.__file__).parent) + os.sep


def cast_pass(tracer: TracerLike) -> int:
    """One pass over the cast with ``tracer`` on each run (which hands it
    on to the user); returns the rounds run."""
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS), label="followers"),
        control_sensing(),
    )
    rounds = 0
    for server in SERVERS:
        for seed in SEEDS:
            execution = run_execution(
                user, server, GOAL.world, max_rounds=HORIZON, seed=seed,
                tracer=tracer, recording=METRICS_RECORDING, referee=GOAL.referee,
            )
            rounds += execution.rounds_executed
    return rounds


def served_pass() -> int:
    """One burst of the served fleet through a fresh engine; returns the
    rounds run."""

    async def burst() -> int:
        async with ServeEngine(
            max_open=len(SERVED_SPECS), workers=SERVED_WORKERS,
            slice_rounds=SLICE_ROUNDS,
        ) as engine:
            handles = [await engine.submit(spec) for spec in SERVED_SPECS]
            outcomes = [await handle for handle in handles]
        return sum(outcome.execution.rounds_executed for outcome in outcomes)

    return asyncio.run(burst())



def own_layer(code: CodeType) -> Optional[str]:
    """``code``'s layer by its module, or None for a helper module."""
    filename = code.co_filename
    if filename.startswith("<"):
        return "value constructors"
    if not filename.startswith(REPRO_CODE):
        return "stdlib"
    module = filename[len(REPRO_CODE):].replace(os.sep, "/")
    for prefix, layer in LAYER_PREFIXES:
        if module.startswith(prefix):
            return layer
    return None


def layer_calls(
    run: Callable[[], int] = partial(cast_pass, None), *, repro_only: bool = False
) -> Tuple[Dict[str, int], int]:
    """(Python calls by layer, rounds) of one profiled ``run``.

    With ``repro_only`` a frame counts only when its own code is in
    ``repro``, and the table has only the ``repro`` layers.
    """
    layers: Dict[CodeType, Optional[str]] = {}
    calls: Counter[str] = Counter()

    def profile(frame: FrameType, event: str, arg: object) -> None:
        if event != "call":
            return
        if repro_only and not frame.f_code.co_filename.startswith(REPRO_CODE):
            return
        caller: Optional[FrameType] = frame
        layer = None
        while layer is None and caller is not None:
            code = caller.f_code
            if code not in layers:
                layers[code] = own_layer(code)
            layer = layers[code]
            caller = caller.f_back
        calls[layer or "stdlib"] += 1

    sys.setprofile(profile)
    try:
        rounds = run()
    finally:
        sys.setprofile(None)
    shown = REPRO_LAYERS if repro_only else LAYERS
    return {layer: calls[layer] for layer in shown}, rounds


def measure(served: bool = False) -> Dict[str, float]:
    """Calls per round by layer of the sweep cast or, with ``served``, of
    the served burst, after one warm-up pass (which builds the parties'
    tables)."""
    run = served_pass if served else partial(cast_pass, None)
    run()
    calls, rounds = layer_calls(run, repro_only=served)
    return {layer: count / rounds for layer, count in calls.items()}


def table(columns: Dict[str, Dict[str, float]]) -> str:
    """A Markdown table: one row per layer plus the total, one column per
    source tree."""
    names = list(columns)
    lines = [
        "| layer | " + " | ".join(names) + " |",
        "|---|" + "---:|" * len(names),
    ]
    for layer in columns[names[0]]:
        cells = (f"{columns[name][layer]:.3f}" for name in names)
        lines.append(f"| {layer} | " + " | ".join(cells) + " |")
    totals = (f"**{sum(columns[name].values()):.3f}**" for name in names)
    lines.append("| **total** | " + " | ".join(totals) + " |")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", action="append", type=Path, metavar="DIR",
        help="a source tree to measure (repeatable; default: this process's repro)",
    )
    parser.add_argument(
        "--served", action="store_true",
        help="measure the served burst (repro calls only), not the sweep cast",
    )
    parser.add_argument(
        "--json", action="store_true", help="print this process's figures as JSON",
    )
    args = parser.parse_args(argv)
    if args.json or not args.src:
        figures = measure(args.served)
        print(json.dumps(figures) if args.json else table({"calls": figures}))
        return 0
    root = Path(__file__).resolve().parent.parent
    columns = {}
    for src in args.src:
        env = dict(os.environ, PYTHONPATH=str(src.resolve()))
        out = subprocess.run(
            [sys.executable, "-m", "tests.work_budget", "--json"]
            + (["--served"] if args.served else []),
            cwd=root, env=env, check=True, capture_output=True, text=True,
        ).stdout
        columns[str(src)] = json.loads(out)
    print(table(columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
