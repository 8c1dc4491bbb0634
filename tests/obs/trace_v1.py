"""Converter from ``trace_schema`` 1 traces to the current one-line-per-round form.

A major-1 trace records each round twice: one ``message-sent`` line per
non-silent message, then a ``round-executed`` line carrying the round's
message count and bytes.  Major 2 writes the round once: the
``round-executed`` line carries each non-silent payload under its
direction (``u2s`` is user→server, ``w2u`` world→user, …), silence is
``null``, and the count and bytes are derived from the payloads.

:func:`convert_v1` maps a major-1 file to exactly the bytes the current
engine writes for the same run: the header moves to major 2 (minor 0),
each round's ``message-sent`` lines fold into its round line, and every
other line passes through untouched.  It checks what it folds — the
messages' round, their directions, and the round's claimed count and
bytes — so a converted trace is never quietly wrong.

Run it on a file with::

    PYTHONPATH=src python -m tests.obs.trace_v1 OLD.jsonl NEW.jsonl
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

#: (sender, receiver) -> the round line's payload field, in engine order.
DIRECTIONS = {
    ("user", "server"): "u2s",
    ("user", "world"): "u2w",
    ("server", "user"): "s2u",
    ("server", "world"): "s2w",
    ("world", "user"): "w2u",
    ("world", "server"): "w2s",
}


def _line(record: Dict[str, Any]) -> bytes:
    return json.dumps(record, separators=(",", ":")).encode("utf-8")


def convert_v1(data: bytes) -> bytes:
    """The major-2 bytes of the major-1 trace ``data``."""
    lines = data.split(b"\n")
    if lines[-1]:
        raise ValueError("trace does not end with a newline")
    lines.pop()
    header = json.loads(lines[0])
    if header.get("trace_schema") != 1 or "kind" in header:
        raise ValueError(f"not a trace_schema 1 header: {header!r}")
    head = {"trace_schema": 2, "trace_schema_minor": 0}
    head.update(
        (key, value) for key, value in header.items() if key not in head
    )
    out: List[bytes] = [_line(head)]
    sent: Dict[str, str] = {}
    round_of_sent = -1
    for number, raw in enumerate(lines[1:], start=2):
        record = json.loads(raw)
        kind = record.get("kind")
        if kind == "message-sent":
            field = DIRECTIONS[record["sender"], record["receiver"]]
            if field in sent or not record["payload"]:
                raise ValueError(f"line {number}: unexpected message {raw!r}")
            if sent and record["round_index"] != round_of_sent:
                raise ValueError(f"line {number}: message of another round")
            round_of_sent = record["round_index"]
            sent[field] = record["payload"]
        elif kind == "round-executed":
            if sent and record["round_index"] != round_of_sent:
                raise ValueError(f"line {number}: messages of another round")
            claimed = (record["messages"], record["message_bytes"])
            if claimed != (len(sent), sum(map(len, sent.values()))):
                raise ValueError(f"line {number}: tally disagrees with messages")
            row = {
                "kind": kind,
                "round_index": record["round_index"],
                "halted": record["halted"],
            }
            row.update((field, sent.get(field)) for field in DIRECTIONS.values())
            out.append(_line(row))
            sent = {}
        else:
            out.append(raw)
    if sent:
        raise ValueError("trace ends with messages outside a round line")
    return b"\n".join(out) + b"\n"


def main(argv: List[str]) -> int:
    source, target = (Path(arg) for arg in argv)
    target.write_bytes(convert_v1(source.read_bytes()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
