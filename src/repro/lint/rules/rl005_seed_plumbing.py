"""RL005: public constructors that consume randomness take ``rng``/``seed``.

Reproducibility is only as strong as its narrowest API: a constructor
that builds its own RNG from a seed the caller cannot set re-introduces
a hidden stream — every sweep cell, worker, and replay shares it, and no
experiment seed reaches it.  The repo's convention (and the paper's
implicit one — "the world makes a single non-deterministic choice",
which experiments model by *quantifying over seeds*) is that randomness
enters a component exactly once, through an explicit ``rng`` or ``seed``
parameter.

Flagged, for ``__init__`` of public classes and public module-level
functions whose signature has no ``rng``/``seed``-like parameter:

* constructing ``random.Random(...)`` (any seed — the caller cannot
  control it);
* calling any ambient randomness source (also RL001, but here the
  finding is about the *signature*: the function has no way to be given
  randomness, which is why its author reached for the ambient stream).

Private helpers (leading underscore) are exempt: they receive their
randomness from the public entry points this rule polices.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.rules._ambient import iter_ambient_calls
from repro.lint.rules.base import Rule
from repro.lint.violations import Violation


def _has_seed_param(fn: ast.FunctionDef) -> bool:
    names = [a.arg for a in fn.args.args + fn.args.kwonlyargs + fn.args.posonlyargs]
    return any(
        name == "rng"
        or name == "seed"
        or name.endswith("_rng")
        or name.endswith("_seed")
        or name.endswith("seeds")
        or name == "seeds"
        for name in names
    )


def _consumes_randomness(context: ModuleContext, fn: ast.FunctionDef) -> Iterator[ast.Call]:
    """RNG constructions in ``fn``'s own body (nested defs excluded)."""
    stack: list = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            if context.resolve_call(node.func) == "random.Random":
                yield node
        stack.extend(ast.iter_child_nodes(node))


class SeedPlumbingRule(Rule):
    code = "RL005"
    #: Library API only: a test's helper pinning `random.Random(0)` is the
    #: *caller* choosing a seed, which is exactly the plumbed-through case.
    scopes = frozenset({"src"})
    summary = "public constructors that consume randomness accept rng/seed"
    rationale = (
        "Experiments quantify over seeds; a hidden RNG inside a public "
        "constructor is a stream no experiment seed reaches, so sweeps "
        "stop being functions of (strategies, seed)."
    )

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for cls in context.classes:
            if cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    yield from self._check_callable(
                        context, f"`{cls.name}.__init__`", node
                    )
        for node in context.tree.body:
            if (
                isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
            ):
                yield from self._check_callable(
                    context, f"`{node.name}`", node
                )

    def _check_callable(
        self, context: ModuleContext, where: str, fn: ast.FunctionDef
    ) -> Iterator[Violation]:
        if _has_seed_param(fn):
            return
        for call in _consumes_randomness(context, fn):
            yield self.violation(
                context,
                call.lineno,
                call.col_offset,
                f"{where} builds a `random.Random` but accepts no "
                "`rng`/`seed` parameter: callers (and sweeps) cannot "
                "control the stream — plumb the seed through the signature",
            )
        for call, target, _reason in iter_ambient_calls(context, fn):
            if _inside_nested_function(context, fn, call):
                continue
            yield self.violation(
                context,
                call.lineno,
                call.col_offset,
                f"{where} draws from `{target}` but accepts no `rng`/`seed` "
                "parameter: add one and thread the randomness explicitly",
            )


def _inside_nested_function(
    context: ModuleContext, fn: ast.FunctionDef, target: ast.Call
) -> bool:
    """Whether ``target`` sits inside a def/lambda nested under ``fn``."""
    for node in context.walk(fn):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            and node is not fn
        ):
            for sub in context.walk(node):
                if sub is target:
                    return True
    return False
