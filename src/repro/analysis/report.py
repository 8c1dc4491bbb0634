"""One-command reproduction summary: ``python -m repro.analysis.report``.

Runs a fast, self-contained subset of every experiment family and prints
one verdict line per claim — the ninety-second version of EXPERIMENTS.md
for someone who just installed the package.  The full experiments (bigger
classes, more seeds, the printed tables) live in ``benchmarks/``; this
module trades their coverage for speed and zero pytest dependency.

Each check returns ``(claim, ok, detail)``; the process exits non-zero if
any check fails, so the report doubles as a smoke gate for packaging.

The report ends with a telemetry section — the E1 sweep re-run with
``telemetry=True`` — showing the per-cell counters (rounds, messages,
bytes, sensing verdicts, switches) that :mod:`repro.obs` collects; see
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import random
import sys
from typing import Callable, List, Tuple

from repro.analysis.runner import sweep
from repro.comm.codecs import codec_family
from repro.core.execution import run_execution
from repro.mathx.modular import Field

Check = Tuple[str, bool, str]


def check_compact_universal(seed: int = 1) -> Check:
    """E1: compact universal user over an advisor class.

    ``seed`` pins the random law; the default reproduces the published
    report line (RL005: randomness enters through the signature).
    """
    from repro.servers.advisors import advisor_server_class
    from repro.universal.compact import CompactUniversalUser
    from repro.universal.enumeration import ListEnumeration
    from repro.users.control_users import follower_user_class
    from repro.worlds.control import control_goal, control_sensing, random_law

    codecs = codec_family(4)
    law = random_law(random.Random(seed))
    goal = control_goal(law)
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(codecs)), control_sensing()
    )
    result = sweep(
        user, advisor_server_class(law, codecs), goal, seeds=(0,), max_rounds=1500
    )
    return (
        "E1  compact universal succeeds with every helpful advisor",
        result.universal_success,
        f"{len(result.cells)} servers",
    )


def check_finite_universal() -> Check:
    """E2: finite universal printing over dialects x codecs."""
    from repro.servers.printer_servers import DIALECTS, printer_server_class
    from repro.universal.enumeration import ListEnumeration
    from repro.universal.finite import FiniteUniversalUser
    from repro.universal.schedules import doubling_sweep_trials
    from repro.users.printer_users import printer_user_class
    from repro.worlds.printer import printing_goal, printing_sensing

    codecs = codec_family(2)
    goal = printing_goal(["report"])
    servers = printer_server_class(DIALECTS, codecs)
    user = FiniteUniversalUser(
        ListEnumeration(printer_user_class(DIALECTS, codecs)),
        printing_sensing(),
        schedule_factory=lambda cap: doubling_sweep_trials(
            None if cap is None else cap - 1
        ),
    )
    result = sweep(user, servers, goal, seeds=(0,), max_rounds=3000)
    return (
        "E2  finite universal prints on every dialect/codec printer",
        result.universal_success,
        f"{len(result.cells)} printers",
    )


def check_delegation(seed: int = 2) -> Check:
    """E5: TQBF delegation — correct with honest, never wrong with cheaters.

    ``seed`` pins the random TQBF instance; the default reproduces the
    published report line.
    """
    from repro.qbf.generators import random_qbf
    from repro.servers.provers import CheatingProverServer, HonestProverServer
    from repro.servers.wrappers import EncodedServer
    from repro.universal.enumeration import ListEnumeration
    from repro.universal.finite import FiniteUniversalUser
    from repro.universal.schedules import doubling_sweep_trials
    from repro.users.delegation_users import delegation_user_class
    from repro.worlds.computation import delegation_goal, delegation_sensing

    field = Field()
    codecs = codec_family(3)
    goal = delegation_goal([random_qbf(random.Random(seed), 3)])

    def universal() -> FiniteUniversalUser:
        return FiniteUniversalUser(
            ListEnumeration(delegation_user_class(codecs, field)),
            delegation_sensing(),
            schedule_factory=lambda cap: doubling_sweep_trials(
                None if cap is None else cap - 1
            ),
        )

    honest_ok = all(
        goal.evaluate(
            run_execution(
                universal(), EncodedServer(HonestProverServer(field), codec),
                goal.world, max_rounds=4000, seed=0,
            )
        ).achieved
        for codec in codecs
    )
    cheat_run = run_execution(
        universal(), CheatingProverServer(field, "constant"), goal.world,
        max_rounds=2000, seed=0,
    )
    never_fooled = (not cheat_run.halted) or goal.evaluate(cheat_run).achieved
    return (
        "E5  delegation: correct vs honest provers, never fooled by cheaters",
        honest_ok and never_fooled,
        f"{len(codecs)} codecs + 1 cheater",
    )


def check_overhead_necessity() -> Check:
    """E3: password class forces enumeration-order trials."""
    from repro.comm.codecs import IdentityCodec
    from repro.servers.password import all_passwords, password_server_class
    from repro.universal.compact import CompactUniversalUser
    from repro.universal.enumeration import ListEnumeration
    from repro.users.control_users import AdvisorFollowingUser, password_user_class
    from repro.worlds.control import control_goal, control_sensing

    law = {"red": "blue", "blue": "red"}
    goal = control_goal(law)
    bits = 3
    users = password_user_class(
        all_passwords(bits), lambda: AdvisorFollowingUser(IdentityCodec())
    )
    server = password_server_class(bits, law)[5]
    user = CompactUniversalUser(ListEnumeration(users), control_sensing())
    result = run_execution(user, server, goal.world, max_rounds=6000, seed=0)
    state = result.rounds[-1].user_state_after
    ok = goal.evaluate(result).achieved and state.switches == 5
    return (
        "E3  password lower bound: trials equal the password's position",
        ok,
        f"switches={state.switches} (expected 5)",
    )


def check_learning_gap() -> Check:
    """E8: halving beats enumeration on late targets."""
    from repro.online.equivalence import (
        enumeration_user,
        halving_user,
        mistakes_in_world,
    )

    domain, theta = 16, 14
    enum = mistakes_in_world(
        enumeration_user(domain), theta, domain, horizon=2500, seed=1
    )
    halv = mistakes_in_world(halving_user(domain), theta, domain, horizon=2500, seed=1)
    return (
        "E8  halving (log) beats enumeration (linear) on late targets",
        halv < enum,
        f"halving={halv} vs enumeration={enum}",
    )


def check_multiparty() -> Check:
    """E10/E13: reduction preserves behaviour; universal newcomer joins."""
    from repro.multiparty.babel import (
        agreement_sensing,
        babel_rendezvous_goal,
        babel_server,
        babel_user_class,
        community_names,
    )
    from repro.universal.compact import CompactUniversalUser
    from repro.universal.enumeration import ListEnumeration

    codecs = codec_family(3)
    names = community_names(3)
    goal = babel_rendezvous_goal(names)
    server = babel_server(codecs[2], names, ["red", "green"])
    user = CompactUniversalUser(
        ListEnumeration(babel_user_class(codecs, names)), agreement_sensing()
    )
    result = run_execution(user, server, goal.world, max_rounds=1000, seed=0)
    return (
        "E13 universal newcomer joins a community of unknown language",
        goal.evaluate(result).achieved,
        "3-party reduction",
    )


def telemetry_section(seed: int = 1) -> str:
    """The E1 sweep's per-cell counters, rendered as a table.

    ``seed`` pins the random law, matching :func:`check_compact_universal`.

    Universal-user rows carry sensing/switch/trial counts because
    ``sweep(telemetry=True)`` passes one tracer to each run, which hands
    it on to the user; a plain user would show engine counters only.
    """
    from repro.analysis.tables import format_telemetry
    from repro.servers.advisors import advisor_server_class
    from repro.universal.compact import CompactUniversalUser
    from repro.universal.enumeration import ListEnumeration
    from repro.users.control_users import follower_user_class
    from repro.worlds.control import control_goal, control_sensing, random_law

    codecs = codec_family(4)
    law = random_law(random.Random(seed))
    goal = control_goal(law)
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(codecs)), control_sensing()
    )
    result = sweep(
        user, advisor_server_class(law, codecs), goal,
        seeds=(0,), max_rounds=1500, telemetry=True,
    )
    entries = [
        (cell.server_name, cell.telemetry.as_dict()) for cell in result.cells
    ]
    return format_telemetry(
        entries, title=f"telemetry: E1 sweep ({result.goal_name})"
    )


ALL_CHECKS: List[Callable[[], Check]] = [
    check_compact_universal,
    check_finite_universal,
    check_overhead_necessity,
    check_delegation,
    check_learning_gap,
    check_multiparty,
]


def main(argv: List[str] = ()) -> int:
    """Run every check; print one verdict line each; return the exit code."""
    print("repro — goal-oriented communication, fast reproduction report")
    print("(full tables: pytest benchmarks/ --benchmark-only -s)\n")
    failures = 0
    for check in ALL_CHECKS:
        claim, ok, detail = check()
        mark = "ok " if ok else "FAIL"
        print(f"  [{mark}] {claim}  ({detail})")
        if not ok:
            failures += 1
    print()
    print(telemetry_section())
    print()
    print("all claims reproduced" if failures == 0 else f"{failures} claim(s) FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
