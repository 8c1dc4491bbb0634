"""Bijective string codecs modelling *language mismatch*.

The central obstacle studied by the paper is that user and server share no
prior agreement on protocol or language.  We model a server's "foreign
language" by wrapping a base server in a :class:`Codec`: incoming user
messages are decoded, outgoing server messages are encoded (see
:class:`repro.servers.wrappers.EncodedServer`).  A user strategy that works
against the base server then works against the wrapped server *iff* it
speaks through the same codec — so a class of codec-wrapped servers is
exactly a class of servers "speaking different languages", and enumerating
codecs is enumerating hypotheses about the server's language.

Every codec is a bijection on its domain, so wrapping never destroys
information: the wrapped server is as *helpful* as the base one (a user
knowing the codec achieves whatever the base user achieved).  This is what
keeps the experiments aligned with the paper's setting, where the issue is
purely one of compatibility, never of capability.

Codecs are value objects: equality and hashing are structural, so they can
key enumeration tables and be compared in tests.  Every round translates
messages through a codec, so the character codecs compile their maps into
``str.translate`` tables, built on first use and cached on the instance.
The cached tables are not fields: they take no part in equality, hashing,
``repr`` or pickling.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, Dict, List, Tuple

from repro.errors import CodecError

#: Characters the rotation/permutation codecs operate on: printable ASCII.
_PRINTABLE_LO = 32
_PRINTABLE_HI = 126
_PRINTABLE_RANGE = _PRINTABLE_HI - _PRINTABLE_LO + 1


class Codec:
    """A bijective transformation on message strings.

    Subclasses implement :meth:`encode` and :meth:`decode` such that
    ``decode(encode(s)) == s`` for every string ``s`` in the domain.
    ``decode`` raises :class:`~repro.errors.CodecError` when its input is not
    in the image of ``encode`` (strategies treat that as an unintelligible
    message, not a crash).
    """

    @property
    def name(self) -> str:
        """Short human-readable identifier used in experiment tables."""
        raise NotImplementedError

    def encode(self, message: str) -> str:
        """Map a plaintext message to its wire form."""
        raise NotImplementedError

    def decode(self, message: str) -> str:
        """Invert :meth:`encode`; raise :class:`CodecError` on non-image input."""
        raise NotImplementedError

    def then(self, other: "Codec") -> "ComposedCodec":
        """Return the codec applying ``self`` first, then ``other``."""
        return ComposedCodec((self, other))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


@dataclass(frozen=True)
class _TabledCodec(Codec):
    """A dataclass codec that caches lookup tables on the instance.

    Subclasses build their tables in a :func:`functools.cached_property`,
    which stores them in the instance ``__dict__`` beside the fields.
    Pickling keeps the fields only, so a codec shipped to a worker process
    is its spelling and rebuilds the tables on first use there.
    """

    def __getstate__(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class IdentityCodec(Codec):
    """The trivial codec: wire form equals plaintext."""

    @property
    def name(self) -> str:
        return "id"

    def encode(self, message: str) -> str:
        return message

    def decode(self, message: str) -> str:
        return message


@dataclass(frozen=True)
class ReverseCodec(Codec):
    """Reverses the message; its own inverse."""

    @property
    def name(self) -> str:
        return "reverse"

    def encode(self, message: str) -> str:
        return message[::-1]

    def decode(self, message: str) -> str:
        return message[::-1]


@dataclass(frozen=True)
class CaesarCodec(_TabledCodec):
    """Rotates printable-ASCII characters by a fixed shift.

    Characters outside the printable range pass through unchanged, which
    preserves bijectivity because the rotation maps the printable range onto
    itself.  ``shift`` is normalised into ``[0, 95)``: shifts that differ by
    a multiple of the range are the same bijection, so they are one value.
    """

    shift: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "shift", self.shift % _PRINTABLE_RANGE)

    @property
    def name(self) -> str:
        return f"caesar{self.shift}"

    @cached_property
    def _tables(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        printable = range(_PRINTABLE_LO, _PRINTABLE_HI + 1)
        encode = {
            code: _PRINTABLE_LO + (code - _PRINTABLE_LO + self.shift) % _PRINTABLE_RANGE
            for code in printable
        }
        return encode, {dst: src for src, dst in encode.items()}

    def encode(self, message: str) -> str:
        return message.translate(self._tables[0])

    def decode(self, message: str) -> str:
        return message.translate(self._tables[1])


class _Latin1Table(Dict[int, int]):
    """A translate table over the Latin-1 plane that rejects the rest.

    ``str.translate`` passes a character through when the table raises
    ``LookupError``; raising :class:`CodecError` instead aborts the call.
    """

    def __missing__(self, code: int) -> int:
        raise CodecError(f"XorMaskCodec domain is Latin-1; got {chr(code)!r}")


@dataclass(frozen=True)
class XorMaskCodec(_TabledCodec):
    """XORs each character code with a mask below 256; its own inverse.

    Only defined on strings of characters with code points below 256 (the
    Latin-1 plane, a superset of everything our protocols emit); other
    inputs raise :class:`CodecError`.
    """

    mask: int = 0x55

    def __post_init__(self) -> None:
        if not 0 <= self.mask < 256:
            raise ValueError(f"mask must be in [0, 256): {self.mask}")

    @property
    def name(self) -> str:
        return f"xor{self.mask:02x}"

    @cached_property
    def _table(self) -> _Latin1Table:
        return _Latin1Table((code, code ^ self.mask) for code in range(256))

    def encode(self, message: str) -> str:
        return message.translate(self._table)

    def decode(self, message: str) -> str:
        return message.translate(self._table)


@dataclass(frozen=True)
class AlphabetPermutationCodec(_TabledCodec):
    """Applies a permutation of a fixed alphabet character-wise.

    ``mapping`` must be a bijection from an alphabet of single characters
    onto itself; characters outside the alphabet pass through unchanged.
    """

    mapping: Tuple[Tuple[str, str], ...]
    label: str = "perm"

    def __post_init__(self) -> None:
        sources = [src for src, _ in self.mapping]
        targets = [dst for _, dst in self.mapping]
        if any(len(src) != 1 for src in sources):
            raise ValueError("alphabet entries must be single characters")
        if sorted(sources) != sorted(targets):
            raise ValueError("mapping must permute the alphabet onto itself")
        if len(set(sources)) != len(sources):
            raise ValueError("mapping has duplicate source characters")

    @property
    def name(self) -> str:
        return self.label

    @cached_property
    def _tables(self) -> Tuple[Dict[int, str], Dict[int, str]]:
        return (
            {ord(src): dst for src, dst in self.mapping},
            {ord(dst): src for src, dst in self.mapping},
        )

    def encode(self, message: str) -> str:
        return message.translate(self._tables[0])

    def decode(self, message: str) -> str:
        return message.translate(self._tables[1])


@dataclass(frozen=True)
class TokenMapCodec(_TabledCodec):
    """Renames whole tokens (split on a separator) via a bijection.

    This models *vocabulary* mismatch — e.g. an advisor that says ``norte``
    where we say ``north`` — as opposed to the character-level codecs above.
    ``mapping`` must be injective and its image disjoint from unmapped
    tokens, which the constructor checks to the extent possible (injectivity)
    and the family builders guarantee by using permutations of a token set.
    """

    mapping: Tuple[Tuple[str, str], ...]
    separator: str = " "
    label: str = "tokens"

    def __post_init__(self) -> None:
        targets = [dst for _, dst in self.mapping]
        if len(set(targets)) != len(targets):
            raise ValueError("token mapping must be injective")
        sources = [src for src, _ in self.mapping]
        if len(set(sources)) != len(sources):
            raise ValueError("token mapping has duplicate sources")

    @property
    def name(self) -> str:
        return self.label

    @cached_property
    def _tables(self) -> Tuple[Dict[str, str], Dict[str, str]]:
        return dict(self.mapping), {dst: src for src, dst in self.mapping}

    def _rename(self, message: str, table: Dict[str, str]) -> str:
        return self.separator.join(
            table.get(tok, tok) for tok in message.split(self.separator)
        )

    def encode(self, message: str) -> str:
        return self._rename(message, self._tables[0])

    def decode(self, message: str) -> str:
        return self._rename(message, self._tables[1])


@dataclass(frozen=True)
class PrefixCodec(Codec):
    """Prepends a fixed sigil; decoding strips it and rejects its absence.

    Unlike the other codecs this one has a *proper* image (strings starting
    with the sigil), so decoding garbage fails loudly — useful in tests of
    how strategies cope with unintelligible peers.
    """

    sigil: str = "~"

    @property
    def name(self) -> str:
        return f"prefix{self.sigil!r}"

    def encode(self, message: str) -> str:
        return self.sigil + message

    def decode(self, message: str) -> str:
        if not message.startswith(self.sigil):
            raise CodecError(f"missing sigil {self.sigil!r}: {message!r}")
        return message[len(self.sigil):]


@dataclass(frozen=True)
class ComposedCodec(Codec):
    """Function composition of codecs (first element applied first)."""

    parts: Tuple[Codec, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("ComposedCodec needs at least one part")

    @property
    def name(self) -> str:
        return "+".join(part.name for part in self.parts)

    def encode(self, message: str) -> str:
        for part in self.parts:
            message = part.encode(message)
        return message

    def decode(self, message: str) -> str:
        for part in reversed(self.parts):
            message = part.decode(message)
        return message


def codec_family(size: int) -> List[Codec]:
    """Return a deterministic family of ``size`` distinct codecs.

    The family starts with the identity and grows through reversal, Caesar
    rotations, XOR masks and their compositions.  Determinism matters: the
    experiments place "the right language" at a *known index* of the family
    to measure how the universal user's overhead scales with enumeration
    position (experiment E4).
    """
    if size < 1:
        raise ValueError(f"size must be positive: {size}")
    base: List[Codec] = [IdentityCodec(), ReverseCodec()]
    shift = 1
    while len(base) < size and shift < _PRINTABLE_RANGE:
        base.append(CaesarCodec(shift=shift))
        shift += 2
    mask = 1
    while len(base) < size and mask < 256:
        base.append(XorMaskCodec(mask=mask))
        mask += 2
    # Compositions give an unbounded supply of further distinct codecs.
    level = 1
    while len(base) < size:
        base.append(ComposedCodec((ReverseCodec(), CaesarCodec(shift=level))))
        level += 1
        if len(base) < size:
            base.append(ComposedCodec((CaesarCodec(shift=level), XorMaskCodec(mask=level % 256))))
            level += 1
    return base[:size]
