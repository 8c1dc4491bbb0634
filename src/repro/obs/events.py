"""Typed structured events — the vocabulary of the tracing layer.

Every observable moment in an execution is one frozen dataclass here, so a
trace is a typed object stream rather than a pile of log lines.  Events
carry only plain scalars (ints, strs, bools) — never live strategy state or
message objects — which keeps them trivially serialisable and guarantees
that *recording* an execution cannot perturb it.

The taxonomy mirrors the paper's dynamics:

* engine level — :class:`ExecutionStarted`, :class:`RoundExecuted`
  (one per round, carrying the round's messages), :class:`ExecutionFinished`;
* universal-user level (Theorem 1's enumerate-and-switch loop) —
  :class:`SensingIndication`, :class:`StrategySwitch`,
  :class:`TrialStarted`, :class:`TrialFinished`;
* sensing level — :class:`GraceSuppressed`, emitted when a grace window
  masks a negative inner indication;
* verdict level (the certificate evidence) —
  :class:`GoalVerdict`, recorded by :func:`repro.obs.ledger.record_run`
  once the referee has judged the run, and the interactive-proof events
  :class:`ProofStarted` / :class:`ProofRoundChecked` /
  :class:`ProofFinished`, recorded by the delegation users when a
  verifier session concludes.

Serialisation is deterministic: :meth:`Event.to_dict` emits ``kind`` first
and then the dataclass fields in declaration order, and
:func:`event_from_dict` inverts it via the ``kind`` registry.
:func:`event_line` is the one producer of trace lines: it writes exactly
``json.dumps(event.to_dict(), separators=(",", ":"))`` through a line
writer compiled once per event class.

The ``reason`` vocabularies of :class:`StrategySwitch` and
:class:`TrialFinished` are exported as constants (``SWITCH_*`` /
``TRIAL_*``) so the emitters (the universal users), the overhead
accounting, and the ``repro.obs certify`` checker agree on the exact
strings by construction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import (
    AbstractSet,
    Any,
    Callable,
    ClassVar,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

#: ``StrategySwitch.reason`` vocabulary.
SWITCH_SENSING_NEGATIVE = "sensing-negative"
SWITCH_BELIEF_DECAY = "belief-decay"
SWITCH_REASONS = frozenset({SWITCH_SENSING_NEGATIVE, SWITCH_BELIEF_DECAY})

#: ``SessionAbandoned.reason`` vocabulary.
ABANDON_FAILURE = "failure"
ABANDON_ABORT = "abort"
ABANDON_EXPLICIT = "abandon"
ABANDON_REASONS = frozenset({ABANDON_FAILURE, ABANDON_ABORT, ABANDON_EXPLICIT})

#: ``TrialFinished.reason`` vocabulary.
TRIAL_EVICTED = "evicted"
TRIAL_ENDORSED = "endorsed"
TRIAL_HALT_REJECTED = "halt-rejected"
TRIAL_BUDGET = "budget"
TRIAL_MISSING = "missing"
TRIAL_DECAYED = "decayed"
TRIAL_REASONS = frozenset(
    {
        TRIAL_EVICTED,
        TRIAL_ENDORSED,
        TRIAL_HALT_REJECTED,
        TRIAL_BUDGET,
        TRIAL_MISSING,
        TRIAL_DECAYED,
    }
)


def rng_chain_digest(seed: int, draws: Sequence[int]) -> str:
    """Digest of the engine's per-party RNG seed derivation.

    The engine derives one 64-bit stream seed per party from the master
    seed; this digest commits to that chain so an offline checker can
    re-derive it from ``ExecutionStarted.seed`` alone and detect an edited
    seed field (the derivation is pure stdlib ``random.Random``).
    """
    payload = ":".join([str(seed), *(str(draw) for draw in draws)])
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


@dataclass(frozen=True)
class Event:
    """Base class for all trace events.

    Subclasses set ``kind`` (the wire tag) and declare their payload as
    ordinary dataclass fields.  Field order *is* the serialised order.
    """

    kind: ClassVar[str] = "event"

    def to_dict(self) -> Dict[str, Any]:
        """A plain dict with ``kind`` first, then fields in declared order."""
        data: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            data[f.name] = getattr(self, f.name)
        return data


V = TypeVar("V")


class TypeCache(Dict[type, V]):
    """A ``type -> value`` table that resolves each miss once and keeps it.

    Hot paths look up ``table[type(event)]`` — one dict probe per event —
    and the first event of a new class pays for ``resolve(cls)``.
    """

    def __init__(self, resolve: Callable[[type], V]) -> None:
        super().__init__()
        self._resolve = resolve

    def __missing__(self, cls: type) -> V:
        value = self[cls] = self._resolve(cls)
        return value


def dispatch_table(handlers: Mapping[type, V]) -> "TypeCache[Optional[V]]":
    """A handler table with ``isinstance`` semantics and one probe per event.

    A subclass resolves to the handler of its nearest registered base
    (``None`` when it has none) the first time it is seen.
    """

    def resolve(cls: type) -> Optional[V]:
        for base in cls.__mro__:
            if base in handlers:
                return handlers[base]
        return None

    return TypeCache(resolve)


def _stock_line(event: "Event") -> str:
    """The reference encoding every compiled line writer reproduces."""
    return json.dumps(event.to_dict(), separators=(",", ":"))


def _compile_line_writer(cls: type) -> Callable[["Event"], str]:
    """Generate ``cls``'s line writer: one f-string, no per-event encoder.

    Each field value is dispatched on its exact runtime type: ``str``
    through ``encode_basestring_ascii``, ``int`` through ``int.__repr__``,
    and ``None``/``True``/``False`` as their JSON literals — exactly what
    :func:`json.dumps` writes for them.  Any other value (floats, ``int``
    subclasses such as ``bool`` or ``IntEnum`` in an int field, anything
    else) hands the whole line back to :func:`_stock_line`, so the output
    is byte-identical to the stock encoder by construction.
    """

    def literal(text: str) -> str:
        return text.replace("{", "{{").replace("}", "}}")

    kind: str = getattr(cls, "kind")
    body = ["def line(event):"]
    template = literal("{" + encode_basestring_ascii("kind") + ":")
    template += literal(encode_basestring_ascii(kind))
    for i, name in enumerate(f.name for f in fields(cls)):
        body += [
            f"    v = event.{name}",
            "    t = type(v)",
            f"    if t is str: s{i} = _str(v)",
            f"    elif t is int: s{i} = _int(v)",
            f"    elif v is None: s{i} = 'null'",
            f"    elif v is True: s{i} = 'true'",
            f"    elif v is False: s{i} = 'false'",
            "    else: return _stock(event)",
        ]
        template += literal("," + encode_basestring_ascii(name) + ":") + f"{{s{i}}}"
    template += "}}"
    body.append(f"    return f{template!r}")
    namespace: Dict[str, Any] = {
        "_str": encode_basestring_ascii,
        "_int": int.__repr__,
        "_stock": _stock_line,
    }
    exec(compile("\n".join(body), f"<line writer {cls.__name__}>", "exec"), namespace)
    writer: Callable[["Event"], str] = namespace["line"]
    return writer


_LINE_WRITERS: "TypeCache[Callable[[Event], str]]" = TypeCache(_compile_line_writer)


def _compile_init(cls: type) -> Optional[Callable[..., None]]:
    """Generate an ``__init__`` for ``cls`` that fills ``__dict__`` directly.

    The frozen dataclass ``__init__`` sets each field through
    ``object.__setattr__``, about half of what emitting an event costs;
    storing into the instance ``__dict__`` does the same work with no call
    per field.  The signature is the dataclass one — every field by
    position or keyword, in declared order, defaults bound once — so a
    missing or unknown argument still raises ``TypeError``; assignment
    after construction still raises ``FrozenInstanceError``.  A class
    with a field the plain signature cannot express (a default factory,
    ``init=False`` or keyword-only) keeps the dataclass ``__init__``:
    ``None``.
    """
    params, body = [], ["    __state = self.__dict__"]
    namespace: Dict[str, Any] = {}
    for f in fields(cls):
        if not f.init or f.kw_only or f.default_factory is not MISSING:
            return None
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"__default_{f.name}"] = f.default
            params.append(f"{f.name}=__default_{f.name}")
        body.append(f"    __state[{f.name!r}] = {f.name}")
    source = "\n".join([f"def __init__(self, {', '.join(params)}):", *body])
    exec(compile(source, f"<event init {cls.__name__}>", "exec"), namespace)
    init: Callable[..., None] = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def event_line(event: Event) -> str:
    """One compact JSON line (no newline) for ``event``.

    Byte-identical to ``json.dumps(event.to_dict(), separators=(",", ":"))``
    — the trace codec every event line in a trace or flight dump goes
    through.
    """
    return _LINE_WRITERS[type(event)](event)


_REGISTRY: Dict[str, Type[Event]] = {}

#: Wire tag -> (class, wire keys: ``kind`` + field names) for every
#: registered class a record can fill in place (those without a
#: ``__post_init__``): the decoders' fast path.
IN_PLACE: Dict[str, Tuple[Type[Event], AbstractSet[str]]] = {}


def register(cls: Type[Event]) -> Type[Event]:
    """Class decorator adding an event type to the ``kind`` registry.

    A class without ``__post_init__`` also gets :func:`_compile_init`'s
    ``__init__`` and a place in :data:`IN_PLACE`.
    """
    if cls.kind in _REGISTRY:
        raise ValueError(f"duplicate event kind: {cls.kind!r}")
    _REGISTRY[cls.kind] = cls
    if not hasattr(cls, "__post_init__"):
        keys = frozenset({"kind", *(f.name for f in fields(cls))})
        IN_PLACE[cls.kind] = (cls, keys)
        init = _compile_init(cls)
        if init is not None:
            setattr(cls, "__init__", init)
    return cls


def event_from_dict(data: Mapping[str, Any]) -> Event:
    """Rebuild an event from :meth:`Event.to_dict` output.

    Raises ``KeyError`` on an unknown ``kind`` and ``TypeError`` on a
    payload that does not match the event's fields — a parsed trace either
    round-trips exactly or fails loudly.

    A record that carries exactly the class's fields (every line this
    build writes) fills the new instance's ``__dict__`` directly, which is
    all the generated ``__init__`` would do with them; anything else goes
    through the constructor, which applies defaults and rejects strays.
    """
    cls = _REGISTRY[data["kind"]]
    wire = IN_PLACE.get(cls.kind)
    if wire is not None and data.keys() == wire[1]:
        event = cls.__new__(cls)
        state = event.__dict__
        state.update(data)
        del state["kind"]
        return event
    return cls(**{key: value for key, value in data.items() if key != "kind"})


def event_kinds() -> Dict[str, Type[Event]]:
    """A copy of the kind → class registry (for docs and tests)."""
    return dict(_REGISTRY)


# --------------------------------------------------------------------------
# Engine-level events
# --------------------------------------------------------------------------


@register
@dataclass(frozen=True)
class ExecutionStarted(Event):
    """``run_execution`` began: the cast and the horizon.

    ``rng_digest`` commits to the per-party RNG seed chain the engine
    derived from ``seed`` — see :func:`rng_chain_digest`.  ``None`` means
    nothing commits to it, which certify reports.
    """

    kind: ClassVar[str] = "execution-started"

    user: str
    server: str
    world: str
    max_rounds: int
    seed: int
    rng_digest: Optional[str] = None


#: The round line's payload fields as ``(field, sender, receiver)``, in
#: the order the engine delivers them.
DIRECTIONS = (
    ("u2s", "user", "server"),
    ("u2w", "user", "world"),
    ("s2u", "server", "user"),
    ("s2w", "server", "world"),
    ("w2u", "world", "user"),
    ("w2s", "world", "server"),
)


@register
@dataclass(frozen=True)
class RoundExecuted(Event):
    """One synchronous round completed, with every message it sent.

    ``halted`` is True on the round where the user halted.  Each payload
    field holds what one party sent on one directed channel this round
    (``u2s`` is user→server, ``w2u`` world→user, and so on; see
    :data:`DIRECTIONS`), verbatim — traces of adversarial codecs show the
    scrambled bytes, and a faulty channel's input, not what it delivered.
    Silence is ``None``: a present payload is never empty.
    """

    kind: ClassVar[str] = "round-executed"

    round_index: int
    halted: bool
    u2s: Optional[str] = None
    u2w: Optional[str] = None
    s2u: Optional[str] = None
    s2w: Optional[str] = None
    w2u: Optional[str] = None
    w2s: Optional[str] = None

    @property
    def payloads(self) -> Tuple[Optional[str], ...]:
        """The six payload fields, in :data:`DIRECTIONS` order."""
        return (self.u2s, self.u2w, self.s2u, self.s2w, self.w2u, self.w2s)

    @property
    def messages(self) -> int:
        """How many non-silent messages the round sent."""
        return 6 - self.payloads.count(None)

    @property
    def message_bytes(self) -> int:
        """The round's total payload length."""
        return sum(map(len, filter(None, self.payloads)))


@register
@dataclass(frozen=True)
class ExecutionFinished(Event):
    """``run_execution`` returned."""

    kind: ClassVar[str] = "execution-finished"

    rounds_executed: int
    halted: bool


# --------------------------------------------------------------------------
# Fault-injection events (repro.faults)
# --------------------------------------------------------------------------


@register
@dataclass(frozen=True)
class FaultInjected(Event):
    """A fault disturbed the system (see :mod:`repro.faults`).

    ``site`` locates the fault: a channel direction (``user->server`` /
    ``server->user``) or ``server`` for the server-side wrappers.
    ``fault`` is the fault type (``drop``, ``corrupt``, ``duplicate``,
    ``delay``, ``flaky``, ``crash``, ``byzantine``).
    """

    kind: ClassVar[str] = "fault-injected"

    round_index: int
    site: str
    fault: str


@register
@dataclass(frozen=True)
class FaultRecovered(Event):
    """A fault site delivered cleanly again after a faulted stretch.

    Emitted on the first clean non-silent delivery (channels) or the first
    live round (servers) after one or more faulted rounds; never emitted
    by a fail-stop crash, which by definition does not recover.
    """

    kind: ClassVar[str] = "fault-recovered"

    round_index: int
    site: str


# --------------------------------------------------------------------------
# Universal-user events (the Theorem 1 loop)
# --------------------------------------------------------------------------


@register
@dataclass(frozen=True)
class SensingIndication(Event):
    """The sensing function was consulted on a trial-local view.

    ``round_index`` is the user's global round; ``candidate_index`` the
    enumeration index of the strategy being judged; ``positive`` the verdict.
    """

    kind: ClassVar[str] = "sensing-indication"

    round_index: int
    candidate_index: int
    positive: bool


@register
@dataclass(frozen=True)
class StrategySwitch(Event):
    """A universal user abandoned one candidate for another.

    ``reason`` names what triggered the move, so overhead attribution
    (:mod:`repro.obs.overhead`) can distinguish the enumeration's own
    cost from prior-driven re-ranking:

    * ``"sensing-negative"`` — compact user: the enumeration advanced on
      a negative indication (Theorem 1's switch);
    * ``"belief-decay"`` — belief-weighted user: the candidate's decayed
      weight fell below another candidate's.
    """

    kind: ClassVar[str] = "strategy-switch"

    round_index: int
    from_index: int
    to_index: int
    wrapped: bool
    reason: str = "sensing-negative"


@register
@dataclass(frozen=True)
class TrialStarted(Event):
    """A candidate strategy began a (re)trial.

    ``budget`` is the trial's round budget under a Levin-style schedule, or
    ``None`` for the compact user's open-ended trials.
    """

    kind: ClassVar[str] = "trial-started"

    round_index: int
    trial_number: int
    candidate_index: int
    budget: Optional[int] = None


@register
@dataclass(frozen=True)
class TrialFinished(Event):
    """A trial ended.  ``reason`` is one of:

    * ``"evicted"`` — compact user: sensing read negative, candidate evicted;
    * ``"endorsed"`` — finite user: candidate halted and sensing endorsed it;
    * ``"halt-rejected"`` — finite user: candidate halted, sensing refused;
    * ``"budget"`` — finite user: the trial's round budget ran out;
    * ``"missing"`` — finite user: the scheduled index fell outside the class;
    * ``"decayed"`` — belief-weighted user: the candidate's weight decayed
      below another's.
    """

    kind: ClassVar[str] = "trial-finished"

    round_index: int
    trial_number: int
    candidate_index: int
    rounds_used: int
    reason: str


# --------------------------------------------------------------------------
# Sensing-level events
# --------------------------------------------------------------------------


@register
@dataclass(frozen=True)
class GraceSuppressed(Event):
    """A grace window masked a negative inner indication.

    Emitted by :class:`~repro.core.sensing.GraceSensing` when the inner
    sensing would have condemned the current strategy but the trial is
    still inside its first ``grace_rounds`` rounds.  The count of these is
    exactly the feedback the grace ablation (E6) trades away.
    """

    kind: ClassVar[str] = "grace-suppressed"

    round_index: int
    grace_rounds: int


# --------------------------------------------------------------------------
# Verdict-level events (certificate evidence)
# --------------------------------------------------------------------------


@register
@dataclass(frozen=True)
class GoalVerdict(Event):
    """The referee's judgement of the finished run, with its evidence.

    For compact goals the verdict carries the prefix statistics the referee
    derived (``total_prefixes``, ``bad_prefixes``, ``last_bad_round``) plus
    the goal's ``settle_fraction``, so a checker can re-derive ``achieved``
    from the settle arithmetic alone.  For finite goals those fields are
    ``None`` and the invariant is ``achieved`` implies ``halted``.
    """

    kind: ClassVar[str] = "goal-verdict"

    goal: str
    compact: bool
    achieved: bool
    halted: bool
    rounds: int
    settle_fraction: Optional[float] = None
    total_prefixes: Optional[int] = None
    bad_prefixes: Optional[int] = None
    last_bad_round: Optional[int] = None
    note: str = ""


@register
@dataclass(frozen=True)
class SessionAbandoned(Event):
    """A serve-engine session ended without settling.

    The terminator of a *flight dump*: when a session fails or the engine
    aborts, :meth:`repro.serve.session.Session.abandon` emits this before
    flushing sinks, so a recovered fragment is self-describing — the
    reader knows the stream stopped because the session was torn down,
    not because the file was truncated.  ``reason`` is one of the
    ``ABANDON_*`` constants (``"failure"``, ``"abort"``, ``"abandon"``).
    """

    kind: ClassVar[str] = "session-abandoned"

    session_id: str
    rounds_completed: int
    reason: str = ABANDON_EXPLICIT


@register
@dataclass(frozen=True)
class ProofStarted(Event):
    """An interactive-proof verifier session began.

    ``protocol`` is ``"qbf"`` or ``"sumcheck"``; ``modulus`` the prime of
    the working field; ``claimed_value`` the prover's claim (already
    normalised into the field).
    """

    kind: ClassVar[str] = "proof-started"

    protocol: str
    modulus: int
    claimed_value: int


@register
@dataclass(frozen=True)
class ProofRoundChecked(Event):
    """One verifier round of an interactive proof, with full evidence.

    ``poly`` is the round polynomial in :meth:`repro.mathx.polynomials.Poly.
    serialize` wire form (comma-separated coefficients, lowest degree
    first).  ``challenge`` and ``claim_after`` are ``None`` when the
    verifier rejected this round before drawing a challenge.
    """

    kind: ClassVar[str] = "proof-round"

    index: int
    op_kind: str
    var: str
    degree_bound: int
    poly: str
    challenge: Optional[int]
    claim_before: int
    claim_after: Optional[int]


@register
@dataclass(frozen=True)
class ProofFinished(Event):
    """The verifier session concluded.

    ``accepted=False`` with a round-level cause carries the verifier's
    ``reason``; acceptance additionally attests the final evaluation check
    against the instance, which a trace-only checker cannot re-derive.
    """

    kind: ClassVar[str] = "proof-finished"

    accepted: bool
    reason: str = ""
