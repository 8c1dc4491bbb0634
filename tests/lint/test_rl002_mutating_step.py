"""RL002: strategy step/initial_state purity — flagged, allowed, suppressed."""

from __future__ import annotations

from textwrap import dedent
from typing import List

from repro.lint import lint_source
from repro.lint.violations import Violation


def rl002(source: str, kind: str = "src") -> List[Violation]:
    return lint_source(dedent(source), select=["RL002"], kind=kind).violations


class TestFlagged:
    def test_step_writes_self(self):
        found = rl002(
            """
            class CountingUser(UserStrategy):
                def step(self, state, inbox, rng):
                    self.rounds += 1
                    return state, ""
            """
        )
        assert [v.code for v in found] == ["RL002"]
        assert "CountingUser.step" in found[0].message

    def test_initial_state_writes_self(self):
        assert [v.code for v in rl002(
            """
            class LazyServer(ServerStrategy):
                def initial_state(self):
                    self.cache = {}
                    return self.cache
            """
        )] == ["RL002"]

    def test_initial_traced_state_writes_self(self):
        # The traced-run hook keeps the tracer in the state; lending it to
        # the shared user object is the mutation the hook replaces.
        found = rl002(
            """
            class LendingUser(UserStrategy):
                def initial_traced_state(self, rng, tracer):
                    self.tracer = tracer
                    return self.initial_state(rng)
            """
        )
        assert [v.code for v in found] == ["RL002"]
        assert "LendingUser.initial_traced_state" in found[0].message

    def test_step_mutates_self_container(self):
        found = rl002(
            """
            class HistoryUser(UserStrategy):
                def step(self, state, inbox, rng):
                    self.history.append(inbox)
                    return state, ""
            """
        )
        assert [v.code for v in found] == ["RL002"]
        assert "mutating method" in found[0].message

    def test_step_writes_into_inbox(self):
        found = rl002(
            """
            class SpoofingUser(UserStrategy):
                def step(self, state, inbox, rng):
                    inbox[0] = "spoofed"
                    return state, ""
            """
        )
        assert [v.code for v in found] == ["RL002"]
        assert "inbox" in found[0].message

    def test_transitive_base_resolution(self):
        # Derived -> Base -> UserStrategy is resolved within the module.
        assert [v.code for v in rl002(
            """
            class Base(UserStrategy):
                pass

            class Derived(Base):
                def step(self, state, inbox, rng):
                    self.seen = True
                    return state, ""
            """
        )] == ["RL002"]

    def test_delete_of_self_attribute(self):
        assert [v.code for v in rl002(
            """
            class ForgetfulServer(ServerStrategy):
                def step(self, state, inbox, rng):
                    del self.memo
                    return state, ""
            """
        )] == ["RL002"]


class TestAllowed:
    def test_threaded_state_mutation_is_the_idiom(self):
        # Per-execution state objects are created by initial_state and
        # owned by the caller; mutating them is the documented pattern.
        assert rl002(
            """
            class GoodUser(UserStrategy):
                def step(self, state, inbox, rng):
                    state.rounds += 1
                    state.transcript.append(inbox)
                    return state, ""
            """
        ) == []

    def test_init_may_write_self(self):
        assert rl002(
            """
            class ConfiguredUser(UserStrategy):
                def __init__(self, depth):
                    self.depth = depth
            """
        ) == []

    def test_non_strategy_class_is_out_of_scope(self):
        assert rl002(
            """
            class Accumulator:
                def step(self, state, inbox, rng):
                    self.total += 1
                    return state, ""
            """
        ) == []

    def test_rebinding_a_local_is_fine(self):
        assert rl002(
            """
            class RebindingUser(UserStrategy):
                def step(self, state, inbox, rng):
                    state = advance(state)
                    return state, ""
            """
        ) == []


class TestPragmas:
    def test_same_line_disable(self):
        report = lint_source(
            dedent(
                """
                class AuditedUser(UserStrategy):
                    def step(self, state, inbox, rng):
                        self.rounds += 1  # reprolint: disable=RL002
                        return state, ""
                """
            ),
            select=["RL002"],
            kind="src",
        )
        assert report.violations == []
        assert report.suppressed == 1
