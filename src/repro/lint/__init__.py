"""reprolint: domain-invariant static analysis for the simulation core.

The paper's guarantees lean on contracts the runtime never checks: sensing
must be a pure predicate of the user's local view (Theorem 1's
"trustworthy indications"), strategies must not smuggle state past the
engine's explicit threading (the determinism contract of
``docs/ROBUSTNESS.md``), and sweep cells must survive a process boundary.
The dynamic checks — per-seed replay tests, ``ensure_picklable``
pre-flights — only certify the runs they saw.  This package certifies the
*code*: an AST pass over ``src/`` and ``tests/`` with ruff-style rule
codes, line pragmas, and JSON/GitHub output for CI.

Rules (see ``docs/STATIC_ANALYSIS.md`` for the full catalogue):

* ``RL001`` — no ambient nondeterminism: randomness flows through the
  threaded ``rng``, never through module-level ``random``, wall clocks,
  OS entropy, or hash-order-dependent ``set`` iteration.
* ``RL002`` — non-mutating ``step``: strategy objects are shared across
  executions and sweeps; per-round dynamics live in the threaded state.
* ``RL003`` — one sensing form: no ``indicate`` overrides, and a
  monitor's ``observe`` is pure — no record writes, I/O or ambient state.
* ``RL004`` — picklability: no lambdas, local functions, or open handles
  stored on objects that a process-pool sweep must pickle.
* ``RL005`` — seed plumbing: public constructors that consume randomness
  accept an explicit ``rng``/``seed``.

The async/serve era added project-level families, backed by the
whole-program view in :mod:`repro.lint.graph` (import + call graph) and
:mod:`repro.lint.dataflow` (intra-function def-use facts):

* ``RL101`` — async-hazard: nothing reachable from ``async def`` blocks
  the event loop (subprocess, sleep, file/socket I/O, pool spin-up),
  with witness chains through the call graph.
* ``RL102`` — await interleaving: no shared-attribute read-modify-write
  split by an ``await`` (the asyncio lost-update).
* ``RL103`` — orphan tasks: no unawaited coroutines, no fire-and-forget
  ``create_task`` with a discarded handle.
* ``RL201`` — seed flow: accepted ``seed``/``rng`` parameters reach a
  sink (interprocedural, to a fixed point over the call graph).
* ``RL202`` — seed sinks: derived draws are consumed, never discarded.
* ``RL203`` — stream aliasing: one seed expression never feeds two
  independent stream constructors.
* ``RL301``/``RL302``/``RL303`` — event contract: every registered
  event kind is emitted by real code, handled by the trace consumers
  (certify/analyze/overhead), and constructed with the declared fields.

Run ``python -m repro.lint src tests`` (exit 0 iff clean), or
``python -m repro.lint --help`` for output formats and the baseline
ratchet used over ``benchmarks/``.
"""

from repro.lint.engine import LintReport, lint_paths, lint_source, lint_sources
from repro.lint.rules import ALL_RULES, rule_codes
from repro.lint.violations import Violation

__all__ = [
    "ALL_RULES",
    "LintReport",
    "Violation",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "rule_codes",
]
