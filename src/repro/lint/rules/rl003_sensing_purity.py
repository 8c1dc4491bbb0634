"""RL003: a sensing is its monitor, and the monitor judges only the record.

Theorem 1 calls sensing "trustworthy indications": the safety and
viability properties are defined for *predicates of the view*, stated
over the verdict on every prefix.  A per-record monitor computes exactly
that sequence, so it is the one form of a sensing
(:mod:`repro.core.sensing`), and ``Sensing.indicate`` is a single
base-class fold of a fresh monitor over a view.  Two things keep it so:

* an ``indicate`` override on a ``Sensing`` subclass is flagged — a second
  definition can drift from the monitor the universal users run, which is
  how the two forms came apart before there was one;
* inside a monitor's ``observe`` (any ``IncrementalSensing`` subclass), the
  verdict must depend on nothing but the records fed so far:

  - writes to the record parameter, or mutating method calls on it;
  - ``global``/``nonlocal`` declarations — closure over mutable state;
  - I/O: ``open``/``input``/``print``;
  - ambient nondeterminism (same detector as RL001).

Writes to ``self`` stay allowed: a monitor is single-trial and owns its
state — that state *is* its summary of the prefix.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.context import (
    MUTATING_METHODS,
    ModuleContext,
    attribute_root,
    iter_methods,
)
from repro.lint.rules._ambient import iter_ambient_calls
from repro.lint.rules.base import Rule
from repro.lint.violations import Violation

_IO_CALLS = frozenset({"open", "input", "print"})


def _is_monitor_class(bases: "set[str]") -> bool:
    return any(
        base == "IncrementalSensing" or base.endswith("Incremental") for base in bases
    )


def _is_sensing_class(bases: "set[str]") -> bool:
    return any(base == "Sensing" or base.endswith("Sensing") for base in bases)


class SensingPurityRule(Rule):
    code = "RL003"
    summary = (
        "a sensing is defined by its monitor: no `indicate` overrides, and "
        "`observe` is a pure, I/O-free function of the records"
    )
    rationale = (
        "Safety/viability (Theorem 1) are properties of view-predicates; a "
        "second definition or an impure monitor can return different "
        "verdicts on the audited prefix than it did live, voiding the "
        "empirical certificates."
    )

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for cls in context.iter_classes():
            bases = context.transitive_bases(cls.name)
            if _is_monitor_class(bases):
                for method in iter_methods(cls, {"observe"}):
                    yield from self._check_observe(
                        context, f"`{cls.name}.observe`", method
                    )
            elif _is_sensing_class(bases):
                for method in iter_methods(cls, {"indicate"}):
                    yield self.violation(
                        context,
                        method.lineno,
                        method.col_offset,
                        f"`{cls.name}.indicate` overrides the base fold: "
                        "define the sensing once, by the monitor "
                        "`incremental()` returns",
                    )

    def _check_observe(
        self, context: ModuleContext, where: str, method: ast.FunctionDef
    ) -> Iterator[Violation]:
        record = _record_param(method)
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if _writes(target, record):
                        yield self.violation(
                            context,
                            node.lineno,
                            node.col_offset,
                            f"{where} writes `{record}`: the record is the "
                            "shared view, keep per-trial state on `self`",
                        )
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                yield self.violation(
                    context,
                    node.lineno,
                    node.col_offset,
                    f"{where} declares `{type(node).__name__.lower()}`: "
                    "closure over mutable state makes the verdict depend on "
                    "call history, not the view",
                )
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in _IO_CALLS:
                    yield self.violation(
                        context,
                        node.lineno,
                        node.col_offset,
                        f"{where} performs I/O (`{func.id}`): sensing runs "
                        "inside the simulation hot loop and must stay a pure "
                        "predicate (attach a tracer for observability)",
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                    and _writes(func.value, record, calls=True)
                ):
                    yield self.violation(
                        context,
                        node.lineno,
                        node.col_offset,
                        f"{where} mutates `{record}` via `.{func.attr}(...)`",
                    )
        for node, target, reason in iter_ambient_calls(context, method):
            yield self.violation(
                context,
                node.lineno,
                node.col_offset,
                f"{where} calls `{target}`: {reason}",
            )


def _record_param(method: ast.FunctionDef) -> Optional[str]:
    names = [a.arg for a in method.args.args]
    if len(names) >= 2 and names[0] == "self":
        return names[1]
    return None


def _writes(target: ast.expr, record: Optional[str], calls: bool = False) -> bool:
    """Does ``target`` reach into ``record`` (a bare name only for calls)?"""
    if record is None:
        return False
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes(element, record, calls) for element in target.elts)
    if not calls and not isinstance(target, (ast.Attribute, ast.Subscript)):
        return False
    root = attribute_root(target)
    return root is not None and root.id == record
