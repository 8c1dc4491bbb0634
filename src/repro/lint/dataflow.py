"""Intra-function dataflow facts for the RL1xx/RL2xx rule families.

``graph.py`` answers *who calls whom*; this module answers *what one
function does with its values*: which names and ``self.*`` attributes
each statement reads and writes, where the ``await`` points are, and
which locals are never read again.  The facts are deliberately simple —
statement-ordered, path-insensitive — because the rules built on them
(RL102 lost-update detection, RL2xx dropped-entropy detection) only need
happens-after relationships that survive any interleaving, not precise
path conditions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple


def attr_path(node: ast.expr) -> Optional[str]:
    """Dotted path of an attribute chain rooted at a Name, else None.

    ``self._open`` → ``"self._open"``; ``a.b.c`` → ``"a.b.c"``;
    anything rooted at a call or subscript → None.
    """
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    parts.append(cursor.id)
    return ".".join(reversed(parts))


@dataclass
class StatementFacts:
    """What one statement reads, writes, and awaits."""

    stmt: ast.stmt
    #: Nesting context: how many While loops enclose this statement
    #: (inside the function).  A read-check-write under a While is the
    #: condition-variable idiom, not a lost update.
    while_depth: int
    #: Attribute paths read in Load context (``self.x``, ``a.b``).
    attr_reads: Set[str] = field(default_factory=set)
    #: Attribute paths written by assignment/augassign targets.
    attr_writes: Set[str] = field(default_factory=set)
    #: Local names read in Load context.
    name_reads: Set[str] = field(default_factory=set)
    #: Local names bound by this statement.
    name_writes: Set[str] = field(default_factory=set)
    #: True when the statement contains an ``await`` expression.
    has_await: bool = False


def _iter_own_statements(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[Tuple[ast.stmt, int]]:
    """(statement, while-depth) pairs in source order, nested defs skipped."""

    def visit(
        body: Sequence[ast.stmt], depth: int
    ) -> Iterator[Tuple[ast.stmt, int]]:
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield stmt, depth
            child_depth = depth + 1 if isinstance(stmt, ast.While) else depth
            for name in ("body", "orelse", "finalbody"):
                block = getattr(stmt, name, None)
                if isinstance(block, list) and block:
                    first = block[0]
                    if isinstance(first, ast.stmt):
                        yield from visit(block, child_depth)
            for handler in getattr(stmt, "handlers", []) or []:
                yield from visit(handler.body, child_depth)

    yield from visit(fn.body, 0)


def _walk_expressions(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Expression nodes of one statement, nested defs/lambdas skipped."""
    stack: List[ast.AST] = [
        child
        for child in ast.iter_child_nodes(stmt)
        if not isinstance(child, ast.stmt)
    ]
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def statement_facts(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> List[StatementFacts]:
    """Statement-ordered read/write/await facts for ``fn``'s own body."""
    result: List[StatementFacts] = []
    for stmt, depth in _iter_own_statements(fn):
        facts = StatementFacts(stmt=stmt, while_depth=depth)
        for node in _walk_expressions(stmt):
            if isinstance(node, (ast.Await,)):
                facts.has_await = True
            elif isinstance(node, ast.Attribute):
                path = attr_path(node)
                if path is None:
                    continue
                if isinstance(node.ctx, ast.Load):
                    facts.attr_reads.add(path)
                else:
                    facts.attr_writes.add(path)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    facts.name_reads.add(node.id)
                else:
                    facts.name_writes.add(node.id)
        # While/If tests live on the statement node itself and were
        # covered by _walk_expressions; comprehension generators too.
        result.append(facts)
    return result


def read_names(nodes: Iterable[ast.AST]) -> Set[str]:
    """All Name loads among ``nodes`` (pass a walk: nested defs included)."""
    return {
        child.id
        for child in nodes
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
    }


def contains_await(node: ast.AST) -> bool:
    """True when ``node`` contains an Await outside nested functions."""
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if current is not node:
                continue
        if isinstance(current, ast.Await):
            return True
        stack.extend(ast.iter_child_nodes(current))
    return False


def self_attr_reads(node: ast.AST) -> Set[str]:
    """``self.*`` attribute paths read (Load) anywhere inside ``node``."""
    found: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            path = attr_path(child)
            if path is not None and path.startswith("self."):
                found.add(path)
    return found


__all__ = [
    "StatementFacts",
    "attr_path",
    "contains_await",
    "read_names",
    "self_attr_reads",
    "statement_facts",
]
