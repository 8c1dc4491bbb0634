"""The sweep cast's call count per round, whole and by layer.

:func:`cast_pass` runs the shape of perfbench's ``sweep`` workload: the
compact universal user over the 8-codec follower class against advisors,
2000 rounds, metrics-only and judged as it goes (two servers and two seeds
keep it quick).  :func:`layer_calls` profiles one pass with
:func:`sys.setprofile` and files every Python call under a layer by the
module of its code object:

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
decode is work the user does.  ``tests/test_work_budget.py`` pins the
total; the table in ``docs/PERFORMANCE.md`` comes from::

    PYTHONPATH=src python -m tests.work_budget --src A/src --src B/src

which runs each source tree in a fresh interpreter and prints one column
per tree.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import CodeType, FrameType
from typing import Dict, List, Optional, Tuple

import repro

from repro.comm.codecs import codec_family
from repro.core.execution import METRICS_RECORDING, run_execution
from repro.obs.tracer import TracerLike
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

LAYERS = (
    "engine", "user", "trial", "sensing", "server", "world",
    "value constructors", "stdlib",
)

#: Module path under ``repro/`` -> layer; the first matching prefix wins.
#: A ``repro`` module matching none takes its caller's layer.
LAYER_PREFIXES = (
    ("core/sensing.py", "sensing"),
    ("core/", "engine"),
    ("universal/", "trial"),
    ("users/", "user"),
    ("servers/", "server"),
    ("worlds/", "world"),
)

REPRO_CODE = str(Path(repro.__file__).parent) + os.sep


def cast_pass(tracer: TracerLike) -> int:
    """One pass over the cast with ``tracer`` on the engine and the user;
    returns the rounds run."""
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS), label="followers"),
        control_sensing(),
        tracer=tracer,
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


def layer_calls(tracer: TracerLike = None) -> Tuple[Dict[str, int], int]:
    """(Python calls by layer, rounds) of one profiled pass over the cast."""
    layers: Dict[CodeType, Optional[str]] = {}
    calls: Counter[str] = Counter()

    def profile(frame: FrameType, event: str, arg: object) -> None:
        if event != "call":
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
        rounds = cast_pass(tracer)
    finally:
        sys.setprofile(None)
    return {layer: calls[layer] for layer in LAYERS}, rounds


def measure() -> Dict[str, float]:
    """Python calls per round by layer, after one warm-up pass."""
    cast_pass(None)  # Builds the advisors' and followers' tables.
    calls, rounds = layer_calls()
    return {layer: count / rounds for layer, count in calls.items()}


def table(columns: Dict[str, Dict[str, float]]) -> str:
    """A Markdown table: one row per layer plus the total, one column per
    source tree."""
    names = list(columns)
    lines = [
        "| layer | " + " | ".join(names) + " |",
        "|---|" + "---:|" * len(names),
    ]
    for layer in LAYERS:
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
        "--json", action="store_true", help="print this process's figures as JSON",
    )
    args = parser.parse_args(argv)
    if args.json or not args.src:
        figures = measure()
        print(json.dumps(figures) if args.json else table({"calls": figures}))
        return 0
    root = Path(__file__).resolve().parent.parent
    columns = {}
    for src in args.src:
        env = dict(os.environ, PYTHONPATH=str(src.resolve()))
        out = subprocess.run(
            [sys.executable, "-m", "tests.work_budget", "--json"],
            cwd=root, env=env, check=True, capture_output=True, text=True,
        ).stdout
        columns[str(src)] = json.loads(out)
    print(table(columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
