"""Golden user-level traces of the three universal users.

Each cast below is a short seeded run traced by a
:class:`~repro.obs.tracer.Tracer` writing JSONL through :class:`UserEvents`,
which drops the engine's and the channel's events, so the committed trace
holds exactly the events the user itself emits (``trial-started``,
``sensing-indication``, ``trial-finished``, ``strategy-switch``).  Beside
the traces, ``final_stats.json`` records each run's final user-state
counters.  ``test_golden_traces.py`` regenerates every trace and compares
bytes, which pins the trial lifecycle's event order, fields and reasons.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python -m tests.universal.golden
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Callable, Dict, NamedTuple, Optional

from repro.comm.codecs import codec_family
from repro.core.execution import METRICS_RECORDING, run_execution
from repro.core.sensing import ConstantSensing
from repro.core.strategy import SilentServer
from repro.faults.channel import drop_channel
from repro.obs.events import (
    Event,
    ExecutionFinished,
    ExecutionStarted,
    FaultInjected,
    FaultRecovered,
    MessageSent,
    RoundExecuted,
)
from repro.obs.sinks import JsonlSink, Sink
from repro.obs.tracer import Tracer
from repro.online.adapter import threshold_user_class
from repro.servers.advisors import advisor_server_class
from repro.servers.printer_servers import printer_server_class
from repro.universal.bayesian import BeliefWeightedUniversalUser
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import GeneratorEnumeration, ListEnumeration
from repro.universal.finite import FiniteUniversalUser
from repro.universal.schedules import doubling_sweep_trials, sequential_trials
from repro.users.control_users import follower_user_class
from repro.users.printer_users import printer_user_class
from repro.worlds.control import control_goal, control_sensing, random_law
from repro.worlds.lookup import lookup_goal, lookup_sensing
from repro.worlds.printer import printing_goal, printing_sensing

from tests.universal.helpers import (
    EagerHaltUser,
    KeywordServer,
    KeywordUser,
    NullWorld,
    YesSensing,
    keyword_sensing,
)

DATA = Path(__file__).parent / "data"
STATS_FILE = DATA / "final_stats.json"

#: The final-state counters recorded per cast (absent fields are skipped).
STAT_FIELDS = ("index", "switches", "wraps", "trials_run", "total_rounds")


class Cast(NamedTuple):
    user: Any
    server: Any
    world: Any
    max_rounds: int
    seed: int
    channel: Any = None


def _control(codec_count: int) -> Any:
    codecs = codec_family(codec_count)
    law = random_law(random.Random(11))
    return codecs, law, advisor_server_class(law, codecs), control_goal(law)


def compact_e1() -> Cast:
    codecs, _, servers, goal = _control(4)
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(codecs)), control_sensing()
    )
    return Cast(user, servers[2], goal.world, 400, 3)


def compact_wrap() -> Cast:
    codecs, _, servers, goal = _control(4)
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(codecs)),
        ConstantSensing(False),
        min_trial_rounds=2,
    )
    return Cast(user, servers[1], goal.world, 20, 0)


def compact_drop_patience() -> Cast:
    codecs, _, servers, goal = _control(3)
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(codecs)),
        control_sensing(grace_rounds=30),
        patience=2,
    )
    return Cast(user, servers[1], goal.world, 300, 2, drop_channel(0.10))


def _printer_user(**kwargs: Any) -> Any:
    codecs = codec_family(2)
    dialects = ["space", "tagged"]
    return (
        FiniteUniversalUser(
            ListEnumeration(printer_user_class(dialects, codecs)),
            printing_sensing(),
            **kwargs,
        ),
        printer_server_class(dialects, codecs),
        printing_goal(["the doc"]),
    )


def finite_levin() -> Cast:
    user, servers, goal = _printer_user()
    return Cast(user, servers[2], goal.world, 400, 0)


def finite_sequential() -> Cast:
    user, servers, goal = _printer_user(
        schedule_factory=lambda cap: sequential_trials(
            6, max_index=None if cap is None else cap - 1
        )
    )
    return Cast(user, servers[3], goal.world, 400, 0)


def finite_doubling() -> Cast:
    user, servers, goal = _printer_user(
        schedule_factory=lambda cap: doubling_sweep_trials(
            None if cap is None else cap - 1
        )
    )
    return Cast(user, servers[3], goal.world, 400, 0)


def finite_indicate_retry() -> Cast:
    # Halt-rejected retries judged by a test-side monitor (YesSensing).
    user = FiniteUniversalUser(
        ListEnumeration([EagerHaltUser(), KeywordUser("beta", halt_on_yes=True)]),
        YesSensing(default=False),
        patience=1,
    )
    return Cast(user, KeywordServer("beta"), NullWorld(), 200, 0)


def finite_unknown_size() -> Cast:
    # The class size is learned on exhaustion (``missing`` trials).
    words = ["alpha", "beta", "gamma"]
    user = FiniteUniversalUser(
        GeneratorEnumeration(
            lambda: iter([KeywordUser(w, halt_on_yes=True) for w in words]),
            label="lazy",
        ),
        keyword_sensing(),
    )
    return Cast(user, KeywordServer("gamma"), NullWorld(), 400, 0)


def finite_halt_rejected_retry() -> Cast:
    user = FiniteUniversalUser(
        ListEnumeration([EagerHaltUser(), EagerHaltUser("late")]),
        ConstantSensing(False),
        schedule_factory=lambda cap: iter([(0, 4), (1, 3), (0, 2)]),
        patience=1,
    )
    return Cast(user, KeywordServer("none"), NullWorld(), 20, 0)


def belief_e8() -> Cast:
    goal = lookup_goal(threshold=13, domain=16)
    candidates = threshold_user_class(16)
    prior = [1.0] * len(candidates)
    prior[13] = 50.0
    user = BeliefWeightedUniversalUser(candidates, lookup_sensing(), prior=prior)
    return Cast(user, SilentServer(), goal.world, 300, 4)


def belief_misplaced_prior() -> Cast:
    goal = lookup_goal(threshold=13, domain=16)
    candidates = threshold_user_class(16)
    prior = [1.0] * len(candidates)
    prior[9] = 8.0
    prior[13] = 4.0
    user = BeliefWeightedUniversalUser(candidates, lookup_sensing(), prior=prior)
    return Cast(user, SilentServer(), goal.world, 300, 4)


CASTS: Dict[str, Callable[[], Cast]] = {
    "compact_e1": compact_e1,
    "compact_wrap": compact_wrap,
    "compact_drop_patience": compact_drop_patience,
    "finite_levin": finite_levin,
    "finite_sequential": finite_sequential,
    "finite_doubling": finite_doubling,
    "finite_indicate_retry": finite_indicate_retry,
    "finite_unknown_size": finite_unknown_size,
    "finite_halt_rejected_retry": finite_halt_rejected_retry,
    "belief_e8": belief_e8,
    "belief_misplaced_prior": belief_misplaced_prior,
}


#: The engine's and the fault channel's event kinds, which a user-level
#: golden trace leaves out.
RUN_EVENTS = (
    ExecutionStarted,
    MessageSent,
    RoundExecuted,
    ExecutionFinished,
    FaultInjected,
    FaultRecovered,
)


class UserEvents(Sink):
    """Forwards to ``sink`` only the events the user itself emits."""

    def __init__(self, sink: Sink) -> None:
        self.sink = sink

    def emit(self, event: Event) -> None:
        if not isinstance(event, RUN_EVENTS):
            self.sink.emit(event)

    def close(self) -> None:
        self.sink.close()


def record(name: str, path: Path) -> Dict[str, Optional[int]]:
    """Run cast ``name`` traced to ``path``, user events only; return its
    stats."""
    cast = CASTS[name]()
    with Tracer(UserEvents(JsonlSink(path, header={"cast": name}))) as tracer:
        result = run_execution(
            cast.user,
            cast.server,
            cast.world,
            max_rounds=cast.max_rounds,
            seed=cast.seed,
            channel=cast.channel,
            recording=METRICS_RECORDING,
            tracer=tracer,
        )
    state = result.final_user_state
    stats: Dict[str, Optional[int]] = {
        field: getattr(state, field)
        for field in STAT_FIELDS
        if hasattr(state, field)
    }
    stats["rounds_executed"] = result.rounds_executed
    return stats


def main() -> None:
    DATA.mkdir(exist_ok=True)
    stats = {name: record(name, DATA / f"{name}.jsonl") for name in CASTS}
    STATS_FILE.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
