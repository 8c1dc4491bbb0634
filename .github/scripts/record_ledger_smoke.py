"""CI smoke: record a faulted run + a ledgered sweep, then read both back.

Writes into the directory named by argv[1]:

* ``run.jsonl`` — one traced execution of a compact universal user over
  a lossy channel, via ``record_run``;
* ``qbf.jsonl`` — one QBF delegation run whose trace carries the
  interactive-proof transcript;
* ``manifests.ndjson`` — the two runs' manifests, one line each;
* ``sweep/manifests.ndjson`` — one line per cell, then the sweep index
  line, from a small faulted sweep, via ``sweep(..., ledger_dir=)``.

Everything is recorded with ``certify=True``, so each artefact is
checked against its own trace before it is ever uploaded; the CI job
then re-certifies the directory and the sweep ledger through
``python -m repro.obs certify DIR`` (the engine-free path) and uploads
the certificates alongside.

Exits non-zero if any written manifest fails to round-trip, or if a
trace lacks the user's own events (the compact universal user's trials
and switches, the delegation verifier's finished proof) — a tracer that
stopped reaching the user would still leave traces that certify — so the
CI step is a real gate, not just an artifact producer.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from repro.analysis.runner import sweep
from repro.comm.codecs import IdentityCodec, codec_family
from repro.faults.channel import drop_channel
from repro.mathx.modular import Field
from repro.obs.events import ProofFinished
from repro.obs.ledger import MANIFEST_STREAM, read_manifest, read_manifests, record_run
from repro.obs.overhead import compute_overhead
from repro.obs.sinks import iter_trace
from repro.qbf.generators import random_qbf
from repro.servers.advisors import advisor_server_class
from repro.servers.provers import HonestProverServer
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.users.delegation_users import DelegationUser
from repro.worlds.computation import delegation_goal
from repro.worlds.control import control_goal, control_sensing, random_law


def main() -> int:
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "ledger-smoke")
    law = random_law(random.Random(11))
    goal = control_goal(law)
    codecs = codec_family(4)
    servers = advisor_server_class(law, codecs)

    def universal() -> CompactUniversalUser:
        return CompactUniversalUser(
            ListEnumeration(follower_user_class(codecs)), control_sensing()
        )

    recorded = record_run(
        universal(), servers[2], goal,
        max_rounds=1200, seed=0, out_dir=out, name="run",
        channel=drop_channel(0.05), certify=True,
    )
    assert recorded.manifest.achieved == 1, "smoke run failed to achieve"
    assert read_manifest(recorded.manifest_location) == recorded.manifest
    overhead = compute_overhead(iter_trace(recorded.trace_path)[1])
    assert overhead.trials >= 1 and overhead.switches >= 1, (
        f"run.jsonl lacks the universal user's events: {overhead.trials} "
        f"trials, {overhead.switches} switches"
    )

    field = Field()
    delegated = record_run(
        DelegationUser(IdentityCodec(), field),
        HonestProverServer(field),
        delegation_goal([random_qbf(random.Random(s), 2) for s in (1, 4)]),
        max_rounds=300, seed=0, out_dir=out, name="qbf", certify=True,
    )
    assert delegated.manifest.achieved == 1, "delegation smoke failed"
    assert any(
        isinstance(event, ProofFinished)
        for event in iter_trace(delegated.trace_path)[1]
    ), "qbf.jsonl lacks the verifier's proof-finished event"
    assert read_manifests(out / MANIFEST_STREAM)[-2:] == (
        recorded.manifest, delegated.manifest,
    )

    ledger = out / "sweep"
    sweep(
        universal(), servers, goal,
        seeds=(0, 1), max_rounds=1200,
        faults=[None, drop_channel(0.05)], ledger_dir=ledger, certify=True,
    )
    *cells, index = read_manifests(ledger / MANIFEST_STREAM)
    ids = [manifest.run_id() for manifest in cells]
    assert tuple(ids) == index.cells, "index does not list the cell lines"
    assert len(set(ids)) == len(index.cells), "cell run_ids are not unique"

    print(f"ledger smoke OK: {recorded.manifest_location}, "
          f"{len(index.cells)} sweep cells under {ledger}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
