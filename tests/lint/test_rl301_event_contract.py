"""RL301/302/303: registry vs emit sites vs consumers — fixtures + self-check.

The fixtures build miniature event vocabularies with ``lint_sources`` (the
registry discovery is structural, so a three-module virtual tree is a
complete test bed).  The self-check at the bottom pins the *real* registry:
the static scan the rules use must see exactly the kinds the runtime
``event_kinds()`` registry holds — if they ever drift, the contract rules
are silently blind to the difference.
"""

from __future__ import annotations

import ast
from pathlib import Path
from textwrap import dedent
from typing import Dict, List

from repro.lint import lint_sources
from repro.lint.violations import Violation

ROOT = Path(__file__).resolve().parents[2]

#: A minimal registry module all fixtures share.
EVENTS = """
    from typing import ClassVar

    _REGISTRY = {}


    def register(cls):
        _REGISTRY[cls.kind] = cls
        return cls


    class Event:
        kind: ClassVar[str] = ""


    @register
    class PingEvent(Event):
        kind = "ping"
        session: str
        note: str = ""
"""


def lint(files: Dict[str, str], code: str) -> List[Violation]:
    sources = {path: dedent(text) for path, text in files.items()}
    return lint_sources(sources, select=[code]).violations


class TestRegisteredButNeverEmitted:
    def test_unemitted_kind_is_flagged(self):
        found = lint({"src/repro/obs/events.py": EVENTS}, "RL301")
        assert [v.code for v in found] == ["RL301"]
        assert "ping" in found[0].message
        assert "ever constructs" in found[0].message

    def test_src_construction_satisfies_the_rule(self):
        assert lint(
            {
                "src/repro/obs/events.py": EVENTS,
                "src/repro/serve/emit.py": """
                    from repro.obs.events import PingEvent

                    def emit():
                        return PingEvent(session="s")
                    """,
            },
            "RL301",
        ) == []

    def test_tests_only_construction_does_not_count(self):
        found = lint(
            {
                "src/repro/obs/events.py": EVENTS,
                "tests/test_emit.py": """
                    from repro.obs.events import PingEvent

                    def test_emit():
                        assert PingEvent(session="s").session == "s"
                    """,
            },
            "RL301",
        )
        assert [v.code for v in found] == ["RL301"]


class TestRegisteredButNeverConsumed:
    def test_unconsumed_kind_is_flagged(self):
        found = lint(
            {
                "src/repro/obs/events.py": EVENTS,
                "src/repro/obs/certify.py": """
                    def check(trace):
                        return True
                    """,
            },
            "RL302",
        )
        assert [v.code for v in found] == ["RL302"]
        assert "PingEvent" in found[0].message

    def test_consumer_reference_satisfies_the_rule(self):
        assert lint(
            {
                "src/repro/obs/events.py": EVENTS,
                "src/repro/obs/certify.py": """
                    from repro.obs.events import PingEvent

                    def check(event):
                        return isinstance(event, PingEvent)
                    """,
            },
            "RL302",
        ) == []

    def test_no_consumer_modules_means_no_opinion(self):
        # A fixture tree without certify/analyze/overhead cannot violate
        # the consumer contract (most single-module fixtures hit this).
        assert lint({"src/repro/obs/events.py": EVENTS}, "RL302") == []


class TestPayloadValidation:
    def test_unknown_keyword_is_flagged(self):
        found = lint(
            {
                "src/repro/obs/events.py": EVENTS,
                "src/repro/serve/emit.py": """
                    from repro.obs.events import PingEvent

                    def emit():
                        return PingEvent(sess="s")
                    """,
            },
            "RL303",
        )
        assert [v.code for v in found] == ["RL303"]
        assert "`sess` is not a field" in found[0].message
        assert "session" in found[0].message

    def test_missing_required_field_is_flagged(self):
        found = lint(
            {
                "src/repro/obs/events.py": EVENTS,
                "src/repro/serve/emit.py": """
                    from repro.obs.events import PingEvent

                    def emit():
                        return PingEvent(note="n")
                    """,
            },
            "RL303",
        )
        assert [v.code for v in found] == ["RL303"]
        assert "misses required field(s): session" in found[0].message

    def test_positional_overflow_is_flagged(self):
        found = lint(
            {
                "src/repro/obs/events.py": EVENTS,
                "src/repro/serve/emit.py": """
                    from repro.obs.events import PingEvent

                    def emit():
                        return PingEvent("s", "n", "extra")
                    """,
            },
            "RL303",
        )
        assert [v.code for v in found] == ["RL303"]
        assert "positional" in found[0].message

    def test_optional_field_may_be_omitted(self):
        assert lint(
            {
                "src/repro/obs/events.py": EVENTS,
                "src/repro/serve/emit.py": """
                    from repro.obs.events import PingEvent

                    def emit():
                        return PingEvent(session="s")
                    """,
            },
            "RL303",
        ) == []

    def test_double_star_sites_are_runtime_territory(self):
        assert lint(
            {
                "src/repro/obs/events.py": EVENTS,
                "src/repro/serve/emit.py": """
                    from repro.obs.events import PingEvent

                    def emit(payload):
                        return PingEvent(**payload)
                    """,
            },
            "RL303",
        ) == []

    def test_tests_tree_sites_are_checked_too(self):
        # RL303 covers every tree: a fixture constructing an event with a
        # stale field name is exactly the drift the rule exists to catch.
        found = lint(
            {
                "src/repro/obs/events.py": EVENTS,
                "tests/test_emit.py": """
                    from repro.obs.events import PingEvent

                    def test_emit():
                        return PingEvent(sess="s")
                    """,
            },
            "RL303",
        )
        assert [v.code for v in found] == ["RL303"]


class TestRegistryExhaustiveness:
    def test_static_scan_matches_runtime_registry(self):
        """The lint rules' structural view of events == the real registry.

        Scans ``src/repro/obs/events.py`` exactly as the RL3xx collection
        phase does (``@register`` decorator + ``kind`` literal) and compares
        against the imported module's ``event_kinds()``.
        """
        from repro.obs.events import event_kinds

        source = (ROOT / "src" / "repro" / "obs" / "events.py").read_text(
            encoding="utf-8"
        )
        static_kinds = set()
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            decorated = any(
                (isinstance(d, ast.Name) and d.id == "register")
                or (isinstance(d, ast.Attribute) and d.attr == "register")
                for d in node.decorator_list
            )
            if not decorated:
                continue
            for item in node.body:
                target = None
                value = None
                if isinstance(item, ast.AnnAssign):
                    target, value = item.target, item.value
                elif isinstance(item, ast.Assign) and len(item.targets) == 1:
                    target, value = item.targets[0], item.value
                if (
                    isinstance(target, ast.Name)
                    and target.id == "kind"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    static_kinds.add(value.value)
        runtime_kinds = set(event_kinds())
        assert static_kinds == runtime_kinds
        assert len(runtime_kinds) >= 15
        # The serve plane's terminating event is part of the contract:
        # emitted by Session.abandon, consumed by certify + analyze.
        assert "session-abandoned" in static_kinds
