"""A tracer reaches a user through its run, and no run writes a strategy.

In the paper's model a strategy is a fixed map ``(state, inbox, rng) ->
(state, outbox)``: everything that changes during a run lives in the
state.  A traced run hands its tracer to the user's per-run state
(:meth:`~repro.core.strategy.UserStrategy.initial_traced_state`), so

* one user object serves interleaved runs, each writing exactly the
  trace it writes alone — for each of the six users that emit events of
  their own;
* nothing that traces a run — a served :class:`Session`,
  :func:`record_run`, a telemetry :func:`sweep`, a fault grid — writes
  the user object while the run goes, checked by a server that compares
  the user's attributes, by identity, every round.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

import pytest

from repro.analysis.runner import sweep
from repro.comm.codecs import IdentityCodec, codec_family
from repro.comm.messages import ServerOutbox
from repro.core.execution import ExecutionStepper, run_execution
from repro.core.strategy import (
    ServerStrategy,
    SilentServer,
    SilentUser,
    UserStrategy,
    WorldStrategy,
)
from repro.faults.channel import drop_channel
from repro.faults.verify import verify_robustness
from repro.mathx.modular import Field
from repro.obs.events import Event, ProofFinished, StrategySwitch, TrialFinished
from repro.obs.ledger import record_run
from repro.obs.sinks import MemorySink, read_trace
from repro.obs.tracer import NoopTracer, Tracer
from repro.qbf.generators import random_cnf, random_qbf
from repro.servers.advisors import advisor_server_class
from repro.servers.counting_provers import HonestCountingServer
from repro.servers.printer_servers import DIALECTS, printer_server_class
from repro.servers.provers import HonestProverServer
from repro.serve.session import Session, SessionSpec
from repro.universal.bayesian import BeliefWeightedUniversalUser
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.universal.finite import FiniteUniversalUser
from repro.users.control_users import follower_user_class
from repro.users.counting_users import CountingUser
from repro.users.delegation_users import DelegationUser, RepeatedDelegationUser
from repro.users.printer_users import printer_user_class
from repro.worlds.computation import delegation_goal
from repro.worlds.control import control_goal, control_sensing, random_law
from repro.worlds.counting import counting_goal
from repro.worlds.printer import printing_goal, printing_sensing
from repro.worlds.repeated import repeated_delegation_goal

CODECS = codec_family(4)
LAW = random_law(random.Random(1))
GOAL = control_goal(LAW)
ADVISORS = advisor_server_class(LAW, CODECS)
F = Field()


class Run(NamedTuple):
    server: ServerStrategy
    world: WorldStrategy
    max_rounds: int
    seed: int


class Cast(NamedTuple):
    """One user, two different runs of it, and an event only the user emits."""

    user: UserStrategy
    runs: Tuple[Run, Run]
    user_event: type


def compact() -> Cast:
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(CODECS)), control_sensing()
    )
    return Cast(
        user,
        (Run(ADVISORS[1], GOAL.world, 120, 0), Run(ADVISORS[3], GOAL.world, 150, 1)),
        StrategySwitch,
    )


def belief() -> Cast:
    user = BeliefWeightedUniversalUser(
        follower_user_class(CODECS), control_sensing()
    )
    return Cast(
        user,
        (Run(ADVISORS[2], GOAL.world, 200, 0), Run(ADVISORS[3], GOAL.world, 240, 2)),
        StrategySwitch,
    )


def finite() -> Cast:
    codecs = codec_family(2)
    goal = printing_goal(["report"])
    servers = printer_server_class(DIALECTS, codecs)
    user = FiniteUniversalUser(
        ListEnumeration(printer_user_class(DIALECTS, codecs)), printing_sensing()
    )
    return Cast(
        user,
        (Run(servers[-1], goal.world, 3000, 0), Run(servers[1], goal.world, 3000, 1)),
        TrialFinished,
    )


def delegation() -> Cast:
    worlds = [
        delegation_goal([random_qbf(random.Random(s), 2)]).world for s in (1, 4)
    ]
    return Cast(
        DelegationUser(IdentityCodec(), F),
        (
            Run(HonestProverServer(F), worlds[0], 300, 0),
            Run(HonestProverServer(F), worlds[1], 300, 1),
        ),
        ProofFinished,
    )


def counting() -> Cast:
    worlds = [
        counting_goal([random_cnf(random.Random(s), 4, 5)]).world for s in (1, 2)
    ]
    return Cast(
        CountingUser(IdentityCodec(), F),
        (
            Run(HonestCountingServer(F), worlds[0], 300, 0),
            Run(HonestCountingServer(F), worlds[1], 300, 1),
        ),
        ProofFinished,
    )


def repeated() -> Cast:
    worlds = [
        repeated_delegation_goal(
            [random_qbf(random.Random(s), 2) for s in seeds]
        ).world
        for seeds in ((1, 2), (4, 5))
    ]
    return Cast(
        RepeatedDelegationUser(IdentityCodec(), F),
        (
            Run(HonestProverServer(F), worlds[0], 400, 0),
            Run(HonestProverServer(F), worlds[1], 400, 1),
        ),
        ProofFinished,
    )


CASTS: Dict[str, Callable[[], Cast]] = {
    "compact": compact,
    "belief": belief,
    "finite": finite,
    "delegation": delegation,
    "counting": counting,
    "repeated": repeated,
}


def alone(user: UserStrategy, run: Run) -> List[Event]:
    sink = MemorySink()
    run_execution(
        user, run.server, run.world, max_rounds=run.max_rounds, seed=run.seed,
        tracer=Tracer(sink=sink),
    )
    return sink.events


def interleaved(user: UserStrategy, runs: Tuple[Run, ...]) -> List[List[Event]]:
    """Every run at once on the one user, stepped a round each in turn."""
    sinks = [MemorySink() for _ in runs]
    steppers = [
        ExecutionStepper(
            user, run.server, run.world, max_rounds=run.max_rounds,
            seed=run.seed, tracer=Tracer(sink=sink),
        )
        for run, sink in zip(runs, sinks)
    ]
    while any(stepper.live for stepper in steppers):
        for stepper in steppers:
            if stepper.live:
                stepper.step()
    for stepper in steppers:
        stepper.finish()
    return [sink.events for sink in sinks]


def attributes_check(strategy: Any) -> Callable[[], None]:
    """A check that ``strategy``'s attributes are the ones it has now."""
    snapshot = dict(vars(strategy))

    def check() -> None:
        now = vars(strategy)
        changed = sorted(
            name
            for name in now.keys() | snapshot.keys()
            if name not in now or name not in snapshot or now[name] is not snapshot[name]
        )
        assert not changed, f"{strategy.name}: attributes written mid-run: {changed}"

    return check


class WatchingServer(ServerStrategy):
    """``inner``, checking before each of its steps that the user is unwritten."""

    def __init__(self, inner: ServerStrategy, check: Callable[[], None]) -> None:
        self._inner = inner
        self._check = check

    @property
    def name(self) -> str:
        return self._inner.name

    def initial_state(self, rng: random.Random) -> Any:
        self._check()
        return self._inner.initial_state(rng)

    def step(self, state: Any, inbox: Any, rng: random.Random) -> Any:
        self._check()
        return self._inner.step(state, inbox, rng)


@pytest.mark.parametrize("name", sorted(CASTS))
def test_a_shared_user_writes_each_interleaved_run_its_own_trace(name):
    user, runs, user_event = CASTS[name]()
    unwritten = attributes_check(user)
    traces = [alone(user, run) for run in runs]
    for trace in traces:
        # Not vacuous: the run's tracer reached the user.
        assert any(isinstance(event, user_event) for event in trace)
    assert traces[0] != traces[1]
    assert interleaved(user, runs) == traces
    unwritten()


def test_the_repeated_verifier_traces_every_session():
    """Each session's fresh inner verifier state gets the run's tracer."""
    user, runs, _ = repeated()
    proofs = [event for event in alone(user, runs[0]) if isinstance(event, ProofFinished)]
    assert len(proofs) >= 2


@pytest.mark.parametrize("name", ["compact", "belief"])
def test_traced_and_untraced_results_are_equal(name):
    """The tracer stays out of the state's equality: a traced run returns
    the untraced run's result."""
    user, (run, _), _ = CASTS[name]()
    plain = run_execution(
        user, run.server, run.world, max_rounds=run.max_rounds, seed=run.seed
    )
    traced = run_execution(
        user, run.server, run.world, max_rounds=run.max_rounds, seed=run.seed,
        tracer=Tracer(sink=MemorySink()),
    )
    assert traced == plain


@pytest.mark.parametrize("name", sorted(CASTS))
def test_the_tracer_is_out_of_state_equality_and_repr(name):
    user = CASTS[name]().user
    state = user.initial_traced_state(random.Random(0), Tracer())
    assert "tracer" not in repr(state)
    # The finite user's state holds its schedule's generator, which
    # compares by identity, so no two of its states compare equal.
    if name != "finite":
        assert state == user.initial_state(random.Random(0))


class UntracedOnlyUser(SilentUser):
    """A user whose traced-run hook must not be reached."""

    def initial_traced_state(self, rng: random.Random, tracer: Any) -> int:
        raise AssertionError("an untraced run asked for a traced state")


def test_an_untraced_run_asks_for_no_traced_state():
    """Untraced runs (no tracer, or a disabled one) take the plain path."""
    user = UntracedOnlyUser()
    session = Session(SessionSpec(user, SilentServer(), GOAL, max_rounds=10))
    assert session.step(10) == 10
    run_execution(
        user, SilentServer(), GOAL.world, max_rounds=10, tracer=NoopTracer()
    )


def watched_compact() -> Tuple[UserStrategy, List[ServerStrategy], Callable[[], None]]:
    user = compact().user
    check = attributes_check(user)
    return user, [WatchingServer(server, check) for server in ADVISORS], check


class TestNoRunWritesTheUser:
    def test_traced_session(self, tmp_path):
        user, servers, check = watched_compact()
        session = Session(
            SessionSpec(user, servers[2], GOAL, seed=3, max_rounds=150),
            ledger_dir=tmp_path, trace=True, certify=True,
        )
        while session.live:
            session.step(16)
        outcome = session.close()
        check()
        _, events = read_trace(outcome.trace_path)
        assert any(isinstance(event, StrategySwitch) for event in events)

    def test_record_run(self, tmp_path):
        user, servers, check = watched_compact()
        recorded = record_run(
            user, servers[2], GOAL, max_rounds=150, seed=3, out_dir=tmp_path,
            channel=drop_channel(0.05), certify=True,
        )
        check()
        _, events = read_trace(recorded.trace_path)
        assert any(isinstance(event, StrategySwitch) for event in events)

    def test_telemetry_sweep(self):
        user, servers, check = watched_compact()
        result = sweep(
            user, servers, GOAL, seeds=(0, 1), max_rounds=150, telemetry=True
        )
        check()
        assert sum(cell.telemetry.get("switches") for cell in result.cells) > 0

    def test_verify_robustness(self):
        user, servers, check = watched_compact()
        report = verify_robustness(
            user, servers, GOAL, control_sensing(),
            grid=[None, drop_channel(0.05)], seeds=(0,), max_rounds=150,
            certify=True,
        )
        check()
        assert report.points[0].mean_overhead_ratio > 0  # The fold saw trials.

    def test_a_slice_that_raises_leaves_the_user_unwritten(self, tmp_path):
        user, _, check = watched_compact()
        spec = SessionSpec(user, FailingServer(5), GOAL, seed=2, max_rounds=40)
        session = Session(spec, ledger_dir=tmp_path, trace=True)
        with pytest.raises(RuntimeError, match="server strategy failed"):
            session.step(10)
        check()
        assert session.rounds_completed == 5
        # The user object still serves a fresh traced run of its own.
        follow_up = dataclasses.replace(spec, server=ADVISORS[2], max_rounds=150)
        again = Session(follow_up, session_id="s1", ledger_dir=tmp_path, trace=True)
        again.step(150)
        _, events = read_trace(again.close().trace_path)
        assert any(isinstance(event, StrategySwitch) for event in events)


class FailingServer(ServerStrategy):
    """Silent for ``rounds`` rounds, then raises: a tenant's strategy bug."""

    def __init__(self, rounds: int) -> None:
        self._rounds = rounds

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(self, state: int, inbox: Any, rng: random.Random) -> Any:
        if state == self._rounds:
            raise RuntimeError("server strategy failed")
        return state + 1, ServerOutbox()
