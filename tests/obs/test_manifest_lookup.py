"""The manifest lookup by trace name parses only what it could return.

:func:`repro.obs.manifests.find_manifest` parses a line only when it holds
the name's encoded ``"trace_path":`` key, plus the lines after the last
match (which keep the damage rule).  A hypothesis test holds it to the
full-parse lookup it replaced on random streams: torn and garbled lines,
other schemas, the needle's text inside other fields, names that need
escaping and ``trace_name=None``.  A count test pins the saving, and
another pins the whole-ledger pass (``certify DIR``) at one parse per
line, however many traces it looks up.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import manifests
from repro.obs.certify import certify_ledger
from repro.obs.ledger import RunManifest
from repro.obs.manifests import MANIFEST_STREAM, _parse, find_manifest


def full_parse_lookup(
    path: Path, trace_name: Optional[str]
) -> Optional[Tuple[int, Dict[str, Any]]]:
    """The lookup that parses every line: the last match, or the first
    damaged line after it."""
    found: Optional[Tuple[int, Dict[str, Any]]] = None
    damage: Optional[ValueError] = None
    with path.open("rb") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                data = _parse(raw, f"{path}:{number}")
            except ValueError as exc:
                damage = damage or exc
                continue
            if trace_name is None or data.get("trace_path") == trace_name:
                found, damage = (number, data), None
    if damage is not None:
        raise damage
    return found


def outcome(lookup: Any, path: Path, trace_name: Optional[str]) -> Tuple[Any, ...]:
    try:
        return ("found", lookup(path, trace_name))
    except ValueError as exc:
        return ("raised", type(exc), str(exc))


#: Trace names, some needing JSON escapes, one a prefix of another.
NAMES = (
    "s1.jsonl", "s1.jsonl.bak", 'quo"te.jsonl', "back\\slash.jsonl",
    "ünïcode.jsonl", "tab\t.jsonl",
)


def manifest_line(trace_path: Optional[str], user: str) -> bytes:
    return RunManifest(
        kind="run", goal="g", user=user, server="s", channel=None,
        recording="metrics", seeds=(0,), max_rounds=10, rounds=10,
        achieved=1, halted=0, wall_time_s=0.0, cpu_time_s=0.0,
        trace_path=trace_path,
    ).to_json().encode("utf-8")


def _needle_text(name: str) -> str:
    return '"trace_path":' + json.dumps(name)


def writer_lines(names: st.SearchStrategy[str]) -> st.SearchStrategy[bytes]:
    """Lines a writer appends: a manifest, possibly with the needle's text
    in another field (escaped there) or under a nested key."""
    return st.one_of(
        st.builds(manifest_line, st.none() | names, st.just("u")),
        st.builds(manifest_line, st.none() | names, names.map(_needle_text)),
        names.map(
            lambda name: (
                json.dumps(
                    {"ledger_schema": 2, "kind": "run", "note": {"trace_path": name}},
                    separators=(",", ":"),
                )
                + "\n"
            ).encode("utf-8")
        ),
    )


#: Damaged lines: garbage, other schemas, non-objects.
damaged_lines = st.sampled_from((
    b"not json\n",
    b"{\n",
    b"[1]\n",
    b'{"ledger_schema":"2"}\n',
    b'{"ledger_schema":3,"trace_path":"s1.jsonl"}\n',
    b'{"ledger_schema":1,"trace_path":"s1.jsonl"}\n',
))


@st.composite
def lookups(draw: Any) -> Tuple[bytes, Optional[str]]:
    """A stream over a few of the names, and the name to look up."""
    pool = st.sampled_from(draw(st.lists(st.sampled_from(NAMES), min_size=1,
                                         max_size=3, unique=True)))
    lines: List[bytes] = draw(
        st.lists(st.one_of(writer_lines(pool), damaged_lines), max_size=12)
    )
    # A torn line: a writer stopped mid-append, and the next append (if
    # any) started a fresh line after it.
    for index in draw(st.lists(st.integers(0, 11), max_size=2)):
        if index < len(lines):
            line = lines[index]
            lines[index] = line[:draw(st.integers(1, len(line) - 1))] + b"\n"
    if lines and draw(st.booleans()):
        final = lines[-1]
        lines[-1] = final[: draw(st.integers(1, len(final) - 1))]
    trace_name = draw(st.none() | pool | st.just("absent.jsonl"))
    return b"".join(lines), trace_name


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lookup=lookups())
def test_lookup_equals_the_full_parse(tmp_path, lookup):
    stream, trace_name = lookup
    path = tmp_path / MANIFEST_STREAM
    path.write_bytes(stream)
    assert outcome(find_manifest, path, trace_name) == outcome(
        full_parse_lookup, path, trace_name
    )


def test_a_lookup_parses_the_match_and_the_lines_after_it(tmp_path, monkeypatch):
    path = tmp_path / MANIFEST_STREAM
    path.write_bytes(
        b"".join(manifest_line(f"s{index}.jsonl", "u") for index in range(1000))
    )
    parsed: List[str] = []

    def counting(raw: bytes, where: str) -> Dict[str, Any]:
        parsed.append(where)
        return _parse(raw, where)

    monkeypatch.setattr(manifests, "_parse", counting)
    number, data = find_manifest(path, "s599.jsonl")
    assert (number, data["trace_path"]) == (600, "s599.jsonl")
    assert parsed == [f"{path}:{line}" for line in range(600, 1001)]


def test_damage_after_the_match_is_still_raised(tmp_path):
    path = tmp_path / MANIFEST_STREAM
    path.write_bytes(
        b"not json\n" + manifest_line("a.jsonl", "u") + manifest_line("b.jsonl", "u")
        + b"not json\n"
    )
    with pytest.raises(manifests.ManifestStreamError, match=":4: not a JSON line"):
        find_manifest(path, "a.jsonl")


def test_a_ledger_pass_parses_each_line_once(tmp_path, monkeypatch):
    for index in range(1000):
        (tmp_path / f"s{index}.jsonl").write_text(
            '{"trace_schema":2,"trace_schema_minor":0}\n'
        )
    path = tmp_path / MANIFEST_STREAM
    path.write_bytes(
        b"".join(manifest_line(f"s{index}.jsonl", "u") for index in range(1000))
    )
    parsed: List[str] = []

    def counting(raw: bytes, where: str) -> Dict[str, Any]:
        parsed.append(where)
        return _parse(raw, where)

    monkeypatch.setattr(manifests, "_parse", counting)
    report = certify_ledger(tmp_path)
    assert [trace for trace, _ in report.traces] == [
        str(tmp_path / f"s{index}.jsonl") for index in range(1000)
    ]
    assert [result.manifest for _, result in report.traces] == [
        f"{path}:{line}" for line in range(1, 1001)
    ]
    assert parsed == [f"{path}:{line}" for line in range(1, 1001)]
