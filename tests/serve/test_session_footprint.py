"""Footprint budget: what one open served session holds between slices.

``perfbench``'s ``serve-burst`` holds 1200 sessions open at once, and the
service is meant to hold thousands, so the bytes a parked session keeps
set the process's peak memory.  The check runs the burst fleet's shape
(the mixed relay/control/universal fleet of
:func:`~repro.serve.loadgen.demo_specs`, metrics-only, no ledger), opens
every session and steps it one 32-round slice, the engine's default, and
reads the bytes :mod:`tracemalloc` traces per open session.  It runs in a
fresh interpreter after a warm-up pass has built the tables the parties
answer from, so nothing this test session allocated earlier can move it.
The budget is structural (bytes allocated, on no clock), so it cannot
flap on a loaded machine; ``docs/PERFORMANCE.md`` ("Lean open sessions")
has the peak RSS it buys.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

SESSIONS = 300

MEASURE = f"""
import gc
import tracemalloc

from repro.serve.loadgen import demo_specs
from repro.serve.session import Session

specs = demo_specs("mixed", {SESSIONS}, seed=0, max_rounds=200)


def open_fleet(prefix):
    sessions = []
    for index, spec in enumerate(specs):
        session = Session(spec, session_id=f"{{prefix}}{{index}}")
        session.step(32)
        sessions.append(session)
    return sessions


open_fleet("w")  # Warm-up: builds the advisors', followers' and relays' tables.
gc.collect()
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
fleet = open_fleet("s")
gc.collect()
held = tracemalloc.get_traced_memory()[0] - before
assert all(session.live for session in fleet)
print(held / len(fleet))
"""

#: Bytes per open session.  The change that set it measured 3.90 KB on
#: Python 3.11, where the parent tree read 10.10 KB: each session seeded
#: three 2560-byte ``random.Random`` states, and in this fleet only the
#: control world ever draws.  The ceiling leaves ~1.2 KB (~24%) of
#: headroom for small changes to the session path and for other
#: interpreters' object sizes; one eagerly seeded party stream back in
#: every session crosses it.  Tighten, do not loosen.
FOOTPRINT_BUDGET = 5 * 1024


def test_open_session_footprint():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH")))
    )
    completed = subprocess.run(
        [sys.executable, "-c", MEASURE], capture_output=True, text=True, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    per_session = float(completed.stdout.split()[-1])
    assert per_session > 1024  # Not vacuous: a session holds its parties.
    assert per_session <= FOOTPRINT_BUDGET, (
        f"{per_session:.0f} bytes traced per open session > {FOOTPRINT_BUDGET}"
    )
