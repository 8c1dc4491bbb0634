"""CI smoke: one batched, ledgered, certified sweep — read back and compared.

Writes into the directory named by argv[1]:

* ``sweep/manifests.ndjson`` — one line per cell, then the sweep index
  line, from a relay-grid sweep run through the vectorized batch backend
  (``sweep(..., batch=8, ledger_dir=..., certify=True)``).

Gates, in order:

1. the sweep manifest round-trips and is stamped ``backend="batch"``
   with the requested ``batch_width``;
2. every cell line reads back with a unique run id, listed by the index;
3. the batched report equals a serial re-run of the same grid — the
   ledger records a backend, never a different result.

Exits non-zero on any failure, so the CI step is a real gate, not just
an artifact producer.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.analysis.runner import sweep
from repro.core.batch import HAVE_NUMPY
from repro.machines.tabular import (
    coded_server_class,
    relay_decoder_class,
    relay_goal,
)
from repro.obs.ledger import MANIFEST_STREAM, read_manifest, read_manifests

SYMBOLS = ("a", "b", "c", "d")
BATCH_WIDTH = 8


def main() -> int:
    assert HAVE_NUMPY, "batched smoke requires numpy (install step missing?)"
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "batched-ledger-smoke")
    goal = relay_goal(SYMBOLS)
    user = relay_decoder_class(SYMBOLS)[0]
    servers = coded_server_class(SYMBOLS)

    ledger = out / "sweep"
    batched = sweep(
        user, servers, goal,
        seeds=(0, 1), max_rounds=200,
        batch=BATCH_WIDTH, ledger_dir=ledger, certify=True,
    )

    *cells, index = read_manifests(ledger / MANIFEST_STREAM)
    assert read_manifest(ledger / MANIFEST_STREAM) == index
    assert index.backend == "batch", f"backend stamp: {index.backend!r}"
    assert index.batch_width == BATCH_WIDTH, (
        f"batch_width stamp: {index.batch_width!r}"
    )
    ids = [manifest.run_id() for manifest in cells]
    assert tuple(ids) == index.cells, "index does not list the cell lines"
    assert len(set(ids)) == len(index.cells), "cell run_ids are not unique"

    serial = sweep(user, servers, goal, seeds=(0, 1), max_rounds=200)
    assert batched == serial, "batched sweep diverged from serial"

    print(f"batched ledger smoke OK: backend={index.backend} "
          f"width={index.batch_width}, {len(index.cells)} cells under {ledger}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
