"""RL003: one sensing form — flagged, allowed, and suppressed shapes.

Each violation kind has a flagged fixture and an allowed neighbour: an
``indicate`` override versus a sensing defined by its monitor, and each
impurity inside ``observe`` versus the pure shape next to it.
"""

from __future__ import annotations

from textwrap import dedent
from typing import List

from repro.lint import lint_source
from repro.lint.violations import Violation


def rl003(source: str, kind: str = "src") -> List[Violation]:
    return lint_source(dedent(source), select=["RL003"], kind=kind).violations


def monitor(body: str, prelude: str = "") -> str:
    """A monitor class whose ``observe`` runs ``body``."""
    return prelude + dedent(
        """
        class Monitor(IncrementalSensing):
            def observe(self, record):
        """
    ) + "".join(f"        {line}\n" for line in dedent(body).strip().splitlines())


def codes(source: str) -> List[str]:
    return [v.code for v in rl003(source)]


class TestFlagged:
    # -- a second definition: any `indicate` override, whatever its body --
    def test_indicate_writes_self(self):
        found = rl003(
            """
            class CountingSensing(Sensing):
                def indicate(self, view):
                    self.calls += 1
                    return True
            """
        )
        assert [v.code for v in found] == ["RL003"]
        assert "CountingSensing.indicate" in found[0].message

    def test_indicate_performs_io(self):
        found = rl003(
            """
            class ChattySensing(Sensing):
                def indicate(self, view):
                    print(view)
                    return True
            """
        )
        assert [v.code for v in found] == ["RL003"]
        assert "overrides the base fold" in found[0].message

    def test_indicate_mutates_the_view(self):
        assert codes(
            """
            class TamperingSensing(Sensing):
                def indicate(self, view):
                    view.records.append(None)
                    return True
            """
        ) == ["RL003"]

    def test_indicate_declares_global(self):
        assert codes(
            """
            class GlobalSensing(Sensing):
                def indicate(self, view):
                    global HITS
                    return True
            """
        ) == ["RL003"]

    def test_indicate_reads_ambient_clock(self):
        assert codes(
            """
            import time

            class TimedSensing(Sensing):
                def indicate(self, view):
                    return time.time() > 0
            """
        ) == ["RL003"]

    def test_pure_indicate_override_is_flagged_too(self):
        found = rl003(
            """
            class ProgressSensing(LastWorldMessageSensing):
                def indicate(self, view):
                    return len(view) > 2
            """
        )
        assert [v.code for v in found] == ["RL003"]
        assert "ProgressSensing.indicate" in found[0].message

    # -- impurity inside a monitor's `observe` --------------------------------
    def test_observe_writes_the_record(self):
        found = rl003(monitor("record.inbox.from_world = ''\nreturn True"))
        assert [v.code for v in found] == ["RL003"]
        assert "Monitor.observe" in found[0].message

    def test_observe_mutates_the_record(self):
        assert codes(monitor("record.outbox.extras.append(1)\nreturn True")) == [
            "RL003"
        ]

    def test_observe_declares_global(self):
        assert codes(monitor("global HITS\nreturn True")) == ["RL003"]

    def test_observe_performs_io(self):
        found = rl003(monitor("print(record)\nreturn True"))
        assert [v.code for v in found] == ["RL003"]
        assert "I/O" in found[0].message

    def test_observe_reads_ambient_clock(self):
        assert codes(
            monitor("return time.time() > 0", prelude="import time\n")
        ) == ["RL003"]

    def test_library_style_monitor_subclass_is_checked(self):
        assert codes(
            """
            class _ChattyIncremental(_StallIncremental):
                def observe(self, record):
                    print(record)
                    return True
            """
        ) == ["RL003"]


class TestAllowed:
    def test_pure_predicate_of_the_view(self):
        # The one form: the sensing names its monitor and nothing else.
        assert rl003(
            """
            class ProgressSensing(Sensing):
                def incremental(self):
                    return ProgressMonitor()

            class ProgressMonitor(IncrementalSensing):
                empty = True

                def observe(self, record):
                    return bool(record.inbox.from_world)
            """
        ) == []

    def test_reading_self_configuration_is_fine(self):
        assert rl003(monitor("return record.round_index >= self.threshold")) == []

    def test_incremental_observe_is_exempt_by_design(self):
        # Monitors are single-trial and own their state: writes to `self`
        # are the monitor's summary of the prefix.
        assert rl003(
            """
            class Monitor(IncrementalSensing):
                def observe(self, record):
                    self.seen += 1
                    self.history.append(record.inbox)
            """
        ) == []

    def test_observe_rebinding_a_local_is_fine(self):
        assert rl003(
            monitor("record = record.inbox\nmessages = [record]\nreturn bool(messages)")
        ) == []

    def test_module_constant_without_global_is_fine(self):
        assert rl003(monitor("return record.round_index < LIMIT")) == []

    def test_tracer_emit_is_not_io(self):
        assert rl003(monitor("self.tracer.emit(record)\nreturn True")) == []

    def test_threaded_rng_is_not_ambient(self):
        assert rl003(monitor("return self.rng.random() < 0.5")) == []

    def test_base_class_definitions_are_not_overrides(self):
        # `Sensing` itself defines the fold, and `observe` elsewhere (not
        # on a monitor) is outside the rule.
        assert rl003(
            """
            class Sensing:
                def indicate(self, view):
                    return True

            class Feed:
                def observe(self, record):
                    print(record)
            """
        ) == []


class TestPragmas:
    def test_same_line_disable(self):
        report = lint_source(
            dedent(
                """
                class DebugMonitor(IncrementalSensing):
                    def observe(self, record):
                        print(record)  # reprolint: disable=RL003
                        return True
                """
            ),
            select=["RL003"],
            kind="src",
        )
        assert report.violations == []
        assert report.suppressed == 1
