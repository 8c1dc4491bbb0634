"""Import budget: a run loads only the machinery it uses.

numpy (the vectorized sweep tier), the process pool (``multiprocessing``
through ``concurrent.futures.process``) and the live-telemetry plane
(:mod:`repro.obs.live`) each load where a run first uses them, never at
import.  Each check runs in a fresh interpreter, because this test
session has long since imported all of them.  The budget is structural
(which modules are in ``sys.modules``), not a wall-clock bound, so it
cannot flap on a loaded machine; ``docs/PERFORMANCE.md`` ("Startup") has
the time and memory it buys.

The positive twins pin the other half: the deferred imports still
happen, and the runs that need them still equal the serial reference.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.batch import HAVE_NUMPY

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules no serial sweep, plain served session or certify run may load.
HEAVY = (
    "numpy",
    "multiprocessing",
    "concurrent.futures.process",
    "repro.obs.live",
)

PRELUDE = f"""
import sys

HEAVY = {HEAVY!r}


def loaded():
    # A module hidden as ``sys.modules[name] = None`` is not loaded.
    return [name for name in HEAVY if sys.modules.get(name) is not None]


from repro.machines.tabular import (
    coded_server_class,
    relay_decoder_class,
    relay_goal,
)

SYMBOLS = tuple("abcd")
USER = relay_decoder_class(SYMBOLS)[0]
SERVERS = coded_server_class(SYMBOLS)
GOAL = relay_goal(SYMBOLS)
"""

LEAN_RUN = """
import asyncio
import tempfile

import repro.analysis.runner
import repro.obs.certify
import repro.serve.engine
from repro.analysis.runner import sweep
from repro.obs.certify import certify_trace
from repro.serve.engine import ServeEngine
from repro.serve.session import Session, SessionSpec

assert not loaded(), ("after import", loaded())

result = sweep(USER, SERVERS, GOAL, seeds=(0, 1), max_rounds=30)
assert result.cells and all(cell.runs for cell in result.cells)
assert not loaded(), ("after a serial sweep", loaded())

with tempfile.TemporaryDirectory() as ledger:
    spec = SessionSpec(user=USER, server=SERVERS[0], goal=GOAL, max_rounds=30)
    session = Session(spec, ledger_dir=ledger, trace=True, certify=True)
    session.step(30)
    outcome = session.close()
    assert outcome.trace_path is not None
    report = certify_trace(outcome.trace_path)
    assert report.ok, report.format()
assert not loaded(), ("after a ledgered session and certify", loaded())


async def serve():
    async with ServeEngine(max_open=4, workers=1) as engine:
        handles = [
            await engine.submit(SessionSpec(user=USER, server=s, goal=GOAL,
                                            max_rounds=30))
            for s in SERVERS
        ]
        return [await handle.future for handle in handles]


assert len(asyncio.run(serve())) == len(SERVERS)
assert not loaded(), ("after a plain served fleet", loaded())
"""


def run_fresh(code: str, *, hide_numpy: bool = False) -> None:
    """Run ``PRELUDE + code`` in a new interpreter; fail on its stderr."""
    head = "import sys\nsys.modules['numpy'] = None\n" if hide_numpy else ""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH")))
    )
    completed = subprocess.run(
        [sys.executable, "-c", head + PRELUDE + code],
        capture_output=True, text=True, env=env,
    )
    assert completed.returncode == 0, completed.stderr


class TestImportBudget:
    @pytest.mark.parametrize("hide_numpy", [False, True],
                             ids=["numpy-as-installed", "numpy-absent"])
    def test_lean_runs_load_no_heavy_module(self, hide_numpy):
        """Import, serial sweep, ledgered session, certify, plain serve."""
        run_fresh(LEAN_RUN, hide_numpy=hide_numpy)


class TestDeferredImportsStillHappen:
    @pytest.mark.skipif(not HAVE_NUMPY, reason="vectorized tier needs numpy")
    def test_batched_sweep_loads_numpy_vectorizes_and_equals_serial(self):
        run_fresh("""
import repro.analysis.batch as analysis_batch
from repro.analysis.runner import sweep

kernel = analysis_batch.run_tabular_batch
dispatches = []


def counting_kernel(casts, **kwargs):
    dispatches.append(len(casts))
    return kernel(casts, **kwargs)


analysis_batch.run_tabular_batch = counting_kernel
serial = sweep(USER, SERVERS, GOAL, seeds=(0, 1), max_rounds=30)
assert "numpy" not in sys.modules
batched = sweep(USER, SERVERS, GOAL, seeds=(0, 1), max_rounds=30, batch=8)
assert "numpy" in sys.modules
assert dispatches and sum(dispatches) == len(SERVERS), dispatches
assert batched == serial
""")

    def test_process_pool_loads_multiprocessing_and_equals_serial(self):
        run_fresh("""
from repro.analysis.parallel import ProcessExecutor
from repro.analysis.runner import sweep

serial = sweep(USER, SERVERS, GOAL, seeds=(0, 1), max_rounds=30)
assert "multiprocessing" not in sys.modules
with ProcessExecutor(max_workers=2) as executor:
    pooled = sweep(USER, SERVERS, GOAL, seeds=(0, 1), max_rounds=30,
                   executor=executor)
assert "concurrent.futures.process" in sys.modules
assert pooled == serial
""")

    def test_engine_with_admin_and_metrics_loads_the_live_plane(self):
        run_fresh("""
import asyncio
import tempfile
from pathlib import Path

from repro.serve.engine import ServeEngine
from repro.serve.session import SessionSpec

assert "repro.obs.live" not in sys.modules


async def serve(metrics):
    async with ServeEngine(max_open=4, workers=1, admin="127.0.0.1:0",
                           metrics_path=metrics,
                           metrics_interval_s=0.01) as engine:
        from repro.obs.live import fetch_admin

        address = await engine.admin_address()
        handle = await engine.submit(
            SessionSpec(user=USER, server=SERVERS[0], goal=GOAL, max_rounds=30)
        )
        await handle.future
        return await fetch_admin(address, "/metrics")


with tempfile.TemporaryDirectory() as scratch:
    metrics = Path(scratch) / "metrics.jsonl"
    text = asyncio.run(serve(metrics))
    assert metrics.read_text().strip(), "no metrics stream written"
assert "serve_sessions_settled" in text, text
""")
