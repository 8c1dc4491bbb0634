"""Shared detector for ambient-nondeterminism call sites.

Used by RL001 (everywhere) and RL003 (inside sensing), so both rules
agree on what "ambient" means: any call whose result depends on process
state the threaded ``rng`` does not control — the module-level ``random``
functions, wall clocks, and OS entropy.

Measurement clocks (``time.perf_counter``, ``time.monotonic``,
``time.process_time``) are deliberately *not* banned: they measure the
simulation, they never feed it, and the observability layer injects them
as explicit parameters.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lint.context import ModuleContext

#: Exact dotted call targets whose results are ambient process state.
BANNED_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Prefixes banned wholesale (every function is entropy- or clock-backed).
BANNED_PREFIXES = ("secrets.",)


def ambient_call(
    context: ModuleContext, node: ast.Call
) -> Optional[Tuple[str, str]]:
    """If ``node`` calls an ambient source, return ``(target, reason)``.

    ``random.<fn>()`` for any ``fn`` other than the ``Random`` class is
    the canonical offender: it draws from the interpreter-global RNG,
    whose stream is shared by everything in the process, so one extra
    consumer silently perturbs every other simulation.
    """
    target = context.resolve_call(node.func)
    if target is None:
        return None
    if target.startswith("random."):
        tail = target[len("random.") :]
        if tail == "Random":
            return None
        if tail == "SystemRandom":
            return target, "draws OS entropy (irreproducible by construction)"
        return (
            target,
            "uses the process-global RNG; thread randomness through the "
            "`rng: random.Random` argument instead",
        )
    if target in BANNED_CALLS:
        return target, "reads ambient process state (wall clock / OS entropy)"
    for prefix in BANNED_PREFIXES:
        if target.startswith(prefix):
            return target, "draws OS entropy (irreproducible by construction)"
    return None


def iter_ambient_calls(
    context: ModuleContext, root: ast.AST
) -> Iterator[Tuple[ast.Call, str, str]]:
    """Every ambient call under ``root`` as ``(node, target, reason)``."""
    for node in context.walk(root):
        if isinstance(node, ast.Call):
            found = ambient_call(context, node)
            if found is not None:
                yield node, found[0], found[1]
