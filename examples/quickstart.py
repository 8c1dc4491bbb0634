#!/usr/bin/env python3
"""Quickstart: the whole theory in one runnable story.

We build the paper's model from its parts:

1. a **goal** — the compact control goal: keep acting correctly under a
   hidden observation→action law;
2. a **server class** — advisors that all know the law but each speaks a
   different language (codec);
3. **sensing** — the world's per-round ok/bad feedback, safe and viable;
4. the **universal user** of Theorem 1 — enumerate candidate interpreters,
   switch on negative indications —

and then watch it achieve the goal against an adversarially chosen server.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro.analysis.tables import format_table
from repro.comm.codecs import codec_family
from repro.core.execution import run_execution
from repro.obs import CounterSet, MemorySink, StrategySwitch, Tracer
from repro.servers.advisors import advisor_server_class
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.users.control_users import follower_user_class
from repro.worlds.control import control_goal, control_sensing, random_law


def main() -> None:
    # --- the goal: a world with a hidden law, judged by a compact referee.
    law = random_law(random.Random(2024))
    goal = control_goal(law)
    print(f"hidden law (known to advisors, not to us): {law}\n")

    # --- the server class: one helpful advisor per language.
    codecs = codec_family(8)
    servers = advisor_server_class(law, codecs)
    print(f"server class: {len(servers)} advisors, languages "
          f"{[c.name for c in codecs]}\n")

    # --- the user class: one interpreter per language guess, and the
    #     universal user that enumerates them with sensing-driven switching.
    candidates = follower_user_class(codecs)
    universal = CompactUniversalUser(
        ListEnumeration(candidates, label="interpreters"), control_sensing()
    )

    # --- the adversary picks a server; we never get told which.
    adversary_pick = random.Random(7).randrange(len(servers))
    server = servers[adversary_pick]
    print(f"adversary secretly picked: server #{adversary_pick} ({server.name})\n")

    result = run_execution(universal, server, goal.world, max_rounds=2500, seed=0)
    outcome = goal.evaluate(result)
    state = result.rounds[-1].user_state_after

    verdict = outcome.compact_verdict
    print(
        format_table(
            ["metric", "value"],
            [
                ["goal achieved", outcome.achieved],
                ["strategy switches", state.switches],
                ["settled on candidate", f"#{state.index} ({candidates[state.index].name})"],
                ["last mistake at round", verdict.last_bad_round or 0],
                ["mistakes total", verdict.bad_prefixes],
                ["rounds simulated", result.rounds_executed],
            ],
            title="universal user vs adversarial server",
        )
    )
    assert outcome.achieved
    assert state.index == adversary_pick, "settled on exactly the right language"
    print("\nThe user found the server's language without any prior agreement —"
          "\nTheorem 1's promise, live.")

    # --- bonus: the same run, traced.  A tracer captures the enumerate-
    #     sense-switch dynamic as typed events (docs/OBSERVABILITY.md); it
    #     is passed once, to the run, which hands it on to the user.
    tracer = Tracer(sink=MemorySink(), counters=CounterSet())
    run_execution(universal, server, goal.world, max_rounds=2500, seed=0,
                  tracer=tracer)
    print("\nswitch timeline (from the trace):")
    for switch in tracer.sink.of_kind(StrategySwitch):
        print(f"  round {switch.round_index:4d}: interpreter "
              f"#{switch.from_index} -> #{switch.to_index}")
    print(f"counters: {tracer.counters.snapshot()}")

    # --- bonus: the full universality check, fanned out over processes.
    #     Sweep cells are shared-nothing, so executor= only changes where
    #     they run, never what they compute (docs/PERFORMANCE.md).
    from repro.analysis import ProcessExecutor, sweep

    fresh_universal = CompactUniversalUser(
        ListEnumeration(candidates, label="interpreters"), control_sensing()
    )
    class_sweep = sweep(
        fresh_universal, servers, goal, seeds=(0,), max_rounds=2500,
        executor=ProcessExecutor(max_workers=2),
    )
    print(f"\nparallel sweep over the whole class "
          f"({len(class_sweep.cells)} cells, 2 workers): "
          f"universal_success={class_sweep.universal_success}")
    assert class_sweep.universal_success


if __name__ == "__main__":
    main()
