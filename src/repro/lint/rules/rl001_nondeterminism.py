"""RL001: no ambient nondeterminism in simulation code.

Everything the engine computes must be a function of ``(strategies,
seed)`` — that is what makes a sweep cell shared-nothing, a fault trace
replayable, and a Theorem-1 run a *certificate* rather than an anecdote.
Four ways code breaks that, all flagged here:

* calling module-level ``random`` functions (or ``secrets``, wall
  clocks, ``os.urandom``, v1/v4 UUIDs) — the process-global streams;
* constructing ``random.Random()`` with no seed — OS entropy in
  disguise;
* constructing ``random.Random(<fixed expr>)`` inside a function that
  receives a threaded ``rng`` — a stream frozen across trials while the
  caller believes it is threading fresh randomness (derive the seed from
  ``rng`` instead, e.g. ``random.Random(rng.getrandbits(64))``);
* iterating a ``set``/``frozenset`` — element order depends on
  ``PYTHONHASHSEED`` for strings, so results differ across worker
  processes (iterate ``sorted(...)`` or a list/dict instead).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.context import ModuleContext
from repro.lint.rules._ambient import iter_ambient_calls
from repro.lint.rules.base import Rule
from repro.lint.violations import Violation

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _param_names(fn: ast.AST) -> Set[str]:
    args = fn.args  # type: ignore[attr-defined]
    names = {a.arg for a in args.args + args.kwonlyargs + args.posonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _is_rng_name(name: str) -> bool:
    return name == "rng" or name.endswith("_rng")


class AmbientNondeterminismRule(Rule):
    code = "RL001"
    summary = "no ambient nondeterminism: randomness flows through the threaded rng"
    rationale = (
        "Reproducibility of every execution and sweep cell (the determinism "
        "contract behind Theorem 1's empirical certificates)."
    )

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        for node, target, reason in iter_ambient_calls(context, context.tree):
            yield self.violation(
                context, node.lineno, node.col_offset, f"call to `{target}` {reason}"
            )
        yield from self._check_rng_construction(context)
        yield from self._check_set_iteration(context)

    # -- random.Random construction -------------------------------------

    def _check_rng_construction(self, context: ModuleContext) -> Iterator[Violation]:
        yield from self._walk_scope(context, context.tree, [])

    def _walk_scope(
        self, context: ModuleContext, root: ast.AST, param_stack: List[Set[str]]
    ) -> Iterator[Violation]:
        for node in ast.iter_child_nodes(root):
            if isinstance(node, _FUNCTION_NODES):
                yield from self._walk_scope(
                    context, node, param_stack + [_param_names(node)]
                )
                continue
            if isinstance(node, ast.Call):
                target = context.resolve_call(node.func)
                if target == "random.Random":
                    yield from self._judge_random_call(context, node, param_stack)
            yield from self._walk_scope(context, node, param_stack)

    def _judge_random_call(
        self, context: ModuleContext, node: ast.Call, param_stack: List[Set[str]]
    ) -> Iterator[Violation]:
        if not node.args and not node.keywords:
            yield self.violation(
                context,
                node.lineno,
                node.col_offset,
                "`random.Random()` with no seed draws OS entropy; pass an "
                "explicit seed (derive it from the threaded rng if one is "
                "in scope)",
            )
            return
        rng_params = {
            name
            for params in param_stack
            for name in params
            if _is_rng_name(name)
        }
        if not rng_params:
            return
        referenced = {
            sub.id for arg in node.args for sub in ast.walk(arg)
            if isinstance(sub, ast.Name)
        } | {
            sub.id
            for kw in node.keywords
            for sub in ast.walk(kw.value)
            if isinstance(sub, ast.Name)
        }
        # `self`/`cls` never carry the threaded randomness — a seed read
        # off `self` is exactly the frozen-stream shape this check exists
        # to catch.
        all_params = {
            name for params in param_stack for name in params
        } - {"self", "cls"}
        if not (referenced & all_params):
            yield self.violation(
                context,
                node.lineno,
                node.col_offset,
                "fixed-seed `random.Random(...)` ignores the threaded "
                f"`{sorted(rng_params)[0]}`: the stream repeats identically "
                "across trials; derive the seed from it, e.g. "
                "`random.Random(rng.getrandbits(64))`",
            )

    # -- set iteration ----------------------------------------------------

    def _check_set_iteration(self, context: ModuleContext) -> Iterator[Violation]:
        for node in context.nodes:
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expression(context, it):
                    yield self.violation(
                        context,
                        it.lineno,
                        it.col_offset,
                        "iteration over a set is PYTHONHASHSEED-ordered for "
                        "str elements; iterate `sorted(...)` (or a list/dict) "
                        "for a reproducible order",
                    )

    @staticmethod
    def _is_set_expression(context: ModuleContext, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset") and node.func.id not in context.imports:
                return True
        return False
