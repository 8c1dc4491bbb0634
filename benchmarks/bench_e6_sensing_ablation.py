"""E6 — Theorem 1's hypotheses are necessary: sensing ablations.

Claim: safety and viability are not decorative.  The table runs the same
universal constructions with (a) proper sensing, (b) unsafe
(always-positive) sensing, (c) non-viable (always-negative) sensing, and
reports goal achievement and failure mode.

Expected shape: proper = achieved; unsafe = false success (finite: halts
wrong / compact: sticks with a failing candidate); non-viable = starvation
(never halts / cycles forever).

Each run is judged by :func:`repro.core.properties.judge_run` under the
ablated sensing, so the failure mode is the same verdict the property
checkers use: a false positive is the false success (finite) or the stuck
candidate (compact).
"""

from __future__ import annotations

from conftest import emit

from repro.analysis.tables import format_table
from repro.comm.codecs import codec_family
from repro.core.properties import judge_run
from repro.core.sensing import ConstantSensing
from repro.core.strategy import SilentServer
from repro.online.adapter import threshold_user_class
from repro.servers.printer_servers import printer_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.universal.finite import FiniteUniversalUser
from repro.users.printer_users import printer_user_class
from repro.worlds.lookup import lookup_goal, lookup_sensing
from repro.worlds.printer import printing_goal, printing_sensing

CODECS = codec_family(3)
DIALECTS = ("space", "tagged")

PRINT_GOAL = printing_goal(["memo"])
PRINT_SERVER = printer_server_class(DIALECTS, CODECS)[-1]
BLIND_USERS = printer_user_class(DIALECTS, CODECS, blind_halt_after=5)
CAUTIOUS_USERS = printer_user_class(DIALECTS, CODECS)

LOOKUP_GOAL = lookup_goal(threshold=3, domain=8)


def failure_mode(judgement):
    """The judge's reading of a run: which hypothesis the sensing broke."""
    if judgement.outcome.achieved:
        return "ok"
    if judgement.outcome.compact_verdict is None:
        if judgement.false_positive:
            return "false success"
        return "starvation" if not judgement.halted else "rejected halt"
    return "stuck on failer" if judgement.false_positive else "cycling"


def run_ablation_matrix():
    rows = []

    def finite_case(label, users, sensing):
        user = FiniteUniversalUser(ListEnumeration(users), sensing)
        judgement = judge_run(
            user, PRINT_SERVER, PRINT_GOAL, sensing, seed=0, max_rounds=3000
        )
        rows.append(
            ["finite/printing", label, judgement.outcome.achieved, failure_mode(judgement)]
        )

    finite_case("proper", BLIND_USERS, printing_sensing())
    finite_case("unsafe (always+)", BLIND_USERS, ConstantSensing(True))
    finite_case("non-viable (always-)", CAUTIOUS_USERS, ConstantSensing(False))

    def compact_case(label, sensing):
        user = CompactUniversalUser(
            ListEnumeration(threshold_user_class(8)), sensing
        )
        judgement = judge_run(
            user, SilentServer(), LOOKUP_GOAL, sensing, seed=0, max_rounds=1500
        )
        rows.append(
            ["compact/lookup", label, judgement.outcome.achieved, failure_mode(judgement)]
        )

    compact_case("proper", lookup_sensing())
    compact_case("unsafe (always+)", ConstantSensing(True))
    compact_case("non-viable (always-)", ConstantSensing(False))
    return rows


def test_e6_ablation_matrix(benchmark):
    rows = benchmark.pedantic(run_ablation_matrix, rounds=1, iterations=1)
    emit(
        format_table(
            ["goal", "sensing", "achieved", "failure mode"],
            rows,
            title="E6: sensing ablation (proper vs unsafe vs non-viable)",
        )
    )
    by_label = {(r[0], r[1]): (r[2], r[3]) for r in rows}
    assert by_label[("finite/printing", "proper")][0]
    assert by_label[("compact/lookup", "proper")][0]
    assert by_label[("finite/printing", "unsafe (always+)")][1] == "false success"
    assert by_label[("finite/printing", "non-viable (always-)")][1] == "starvation"
    assert not by_label[("compact/lookup", "unsafe (always+)")][0]
    assert not by_label[("compact/lookup", "non-viable (always-)")][0]
