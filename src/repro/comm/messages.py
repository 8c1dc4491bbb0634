"""Message profiles for the three-party synchronous model.

The model of Section 2 of the paper has three entities — *user*, *server*,
and *world* — connected pairwise by channels.  Each synchronous round, every
entity receives an *incoming message profile* (one message per counterpart)
and produces an *outgoing message profile*.

Messages are plain Python strings; the empty string :data:`SILENCE` means
"no message this round".  Keeping messages as strings (rather than rich
objects) is deliberate: the whole point of the paper is that the *meaning*
of the bytes on the channel is not agreed upon in advance, so the substrate
must not smuggle semantics into the wire format.

Value types
-----------
Profiles are built several times every round, so they are
:class:`typing.NamedTuple` classes rather than frozen dataclasses: a
NamedTuple is constructed by one C-level tuple allocation, where a frozen
dataclass pays an ``object.__setattr__`` per field.  They keep the
dataclass contract — immutable, hashable, picklable, the same ``repr`` —
and :func:`value_type` keeps equality type-strict, so a profile never equals
another profile type or a bare tuple holding the same messages.

On the hot per-round paths — the engine's inboxes, the party steps of the
sweep cast, the universal user's trial record — a value is built as
``tuple.__new__(Cls, (...))`` through one module-level alias: one C-level
tuple allocation, without the generated ``__new__``'s Python frame.  That
build skips the defaults and the argument checks, so it must name every
field, in declared order; keep it to code that runs every round, and build
values by keyword everywhere else.

Tagged messages
---------------
Most concrete protocols in this package use a light ``TAG:payload``
convention.  :func:`tagged` and :func:`parse_tagged` implement it.  The
convention is a convenience for *our* strategies; nothing in the engine
depends on it, and codec-wrapped servers scramble it like any other text.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Tuple, Type, TypeVar

#: The empty message.  An entity that sends :data:`SILENCE` on a channel is
#: indistinguishable from one that sends nothing.
SILENCE: str = ""


def _value_eq(self: Tuple[Any, ...], other: object) -> bool:
    if other.__class__ is self.__class__:
        return tuple.__eq__(self, other)
    if isinstance(other, tuple):
        return False
    return NotImplemented


def _value_ne(self: Tuple[Any, ...], other: object) -> bool:
    equal = _value_eq(self, other)
    return equal if equal is NotImplemented else not equal


_V = TypeVar("_V", bound=Type[Tuple[Any, ...]])


def value_type(cls: _V) -> _V:
    """Give a NamedTuple the type-strict equality of a frozen dataclass.

    Two values are equal iff they are of the same class with equal fields.
    Any other tuple — a bare one, or a different NamedTuple holding the
    same fields — is unequal; other types get ``NotImplemented`` so their
    own ``__eq__`` may answer.  ``__ne__`` is replaced too, because
    ``tuple.__ne__`` would otherwise answer without consulting
    ``__eq__``.  Hashing stays ``tuple.__hash__``, which agrees with this
    equality.
    """
    setattr(cls, "__eq__", _value_eq)
    setattr(cls, "__ne__", _value_ne)
    return cls


@value_type
class UserInbox(NamedTuple):
    """Messages the user receives at the start of a round."""

    from_server: str = SILENCE
    from_world: str = SILENCE

    def is_silent(self) -> bool:
        """Return True when no counterpart sent anything this round."""
        return self.from_server == SILENCE and self.from_world == SILENCE


@value_type
class UserOutbox(NamedTuple):
    """Messages the user emits at the end of a round.

    ``halt`` and ``output`` implement *finite goals* (Section 3): the user
    must eventually halt, and the referee is evaluated on the finite history.
    ``output`` carries the user's final verdict/result; it is recorded by the
    execution engine and typically consulted by finite referees.
    """

    to_server: str = SILENCE
    to_world: str = SILENCE
    halt: bool = False
    output: Optional[str] = None


@value_type
class ServerInbox(NamedTuple):
    """Messages the server receives at the start of a round."""

    from_user: str = SILENCE
    from_world: str = SILENCE

    def is_silent(self) -> bool:
        """Return True when no counterpart sent anything this round."""
        return self.from_user == SILENCE and self.from_world == SILENCE


@value_type
class ServerOutbox(NamedTuple):
    """Messages the server emits at the end of a round."""

    to_user: str = SILENCE
    to_world: str = SILENCE


@value_type
class WorldInbox(NamedTuple):
    """Messages the world receives at the start of a round."""

    from_user: str = SILENCE
    from_server: str = SILENCE

    def is_silent(self) -> bool:
        """Return True when no counterpart sent anything this round."""
        return self.from_user == SILENCE and self.from_server == SILENCE


@value_type
class WorldOutbox(NamedTuple):
    """Messages the world emits at the end of a round."""

    to_user: str = SILENCE
    to_server: str = SILENCE


def tagged(tag: str, payload: str = "") -> str:
    """Build a ``TAG:payload`` message.

    >>> tagged("PRINT", "hello")
    'PRINT:hello'
    >>> tagged("ACK")
    'ACK:'
    """
    if ":" in tag:
        raise ValueError(f"tag must not contain ':': {tag!r}")
    return f"{tag}:{payload}"


def parse_tagged(message: str) -> Optional[Tuple[str, str]]:
    """Split a ``TAG:payload`` message into ``(tag, payload)``.

    Returns ``None`` when the message does not follow the convention (no
    colon, or empty message).  Strategies facing untrusted peers should treat
    ``None`` as "unintelligible" rather than raising.

    >>> parse_tagged("PRINT:hello")
    ('PRINT', 'hello')
    >>> parse_tagged("garbage") is None
    True
    """
    if not message or ":" not in message:
        return None
    tag, _, payload = message.partition(":")
    return tag, payload
