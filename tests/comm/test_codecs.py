"""Tests for the codec substrate — mostly the bijection laws, via hypothesis."""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.codecs import (
    AlphabetPermutationCodec,
    CaesarCodec,
    Codec,
    ComposedCodec,
    IdentityCodec,
    PrefixCodec,
    ReverseCodec,
    TokenMapCodec,
    XorMaskCodec,
    codec_family,
)
from repro.errors import CodecError

# Strings over the printable-ASCII range, the domain all protocols use.
printable_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60
)

ALL_CODECS = [
    IdentityCodec(),
    ReverseCodec(),
    CaesarCodec(shift=5),
    CaesarCodec(shift=94),
    XorMaskCodec(mask=0x2A),
    AlphabetPermutationCodec(mapping=(("a", "b"), ("b", "c"), ("c", "a"))),
    TokenMapCodec(mapping=(("north", "sud"), ("sud", "north"))),
    PrefixCodec(sigil="~~"),
    ComposedCodec((ReverseCodec(), CaesarCodec(shift=3))),
]


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
@given(message=printable_text)
@settings(max_examples=40, deadline=None)
def test_decode_inverts_encode(codec: Codec, message: str):
    assert codec.decode(codec.encode(message)) == message


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
@given(a=printable_text, b=printable_text)
@settings(max_examples=25, deadline=None)
def test_encode_is_injective(codec: Codec, a: str, b: str):
    if a != b:
        assert codec.encode(a) != codec.encode(b)


class TestIdentity:
    def test_identity_is_noop(self):
        assert IdentityCodec().encode("abc") == "abc"


class TestCaesar:
    def test_known_shift(self):
        assert CaesarCodec(shift=1).encode("ABC") == "BCD"

    def test_wraps_printable_range(self):
        # '~' (126) shifted by 1 wraps to ' ' (32).
        assert CaesarCodec(shift=1).encode("~") == " "

    def test_nonprintable_passes_through(self):
        assert CaesarCodec(shift=7).encode("\n") == "\n"

    @pytest.mark.parametrize("shift", [0, 1, 7, 94, -3])
    def test_shifts_a_range_apart_are_one_value(self, shift: int):
        # Regression: shift and shift + 95 are the same bijection with the
        # same name, so they must be equal and hash equal.
        a, b = CaesarCodec(shift=shift), CaesarCodec(shift=shift + 95)
        assert a == b
        assert hash(a) == hash(b)
        assert a.name == b.name
        assert 0 <= a.shift < 95

    def test_normalised_shift_in_repr(self):
        assert repr(CaesarCodec(shift=96)) == "CaesarCodec(shift=1)"


class TestXorMask:
    def test_self_inverse(self):
        codec = XorMaskCodec(mask=0x13)
        assert codec.encode(codec.encode("hello")) == "hello"

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(ValueError):
            XorMaskCodec(mask=256)

    def test_rejects_non_latin1_input(self):
        with pytest.raises(CodecError):
            XorMaskCodec(mask=1).encode("☃")  # snowman


class TestAlphabetPermutation:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            AlphabetPermutationCodec(mapping=(("a", "b"), ("b", "b")))

    def test_rejects_duplicate_sources(self):
        with pytest.raises(ValueError):
            AlphabetPermutationCodec(mapping=(("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")))

    def test_characters_outside_alphabet_pass_through(self):
        codec = AlphabetPermutationCodec(mapping=(("a", "b"), ("b", "a")))
        assert codec.encode("abz") == "baz"

    def test_rejects_multi_character_entries(self):
        with pytest.raises(ValueError):
            AlphabetPermutationCodec(mapping=(("ab", "ab"),))


class TestTokenMap:
    def test_whole_tokens_only(self):
        codec = TokenMapCodec(mapping=(("north", "sud"), ("sud", "north")))
        assert codec.encode("go north now") == "go sud now"
        assert codec.encode("northern") == "northern"

    def test_rejects_non_injective(self):
        with pytest.raises(ValueError):
            TokenMapCodec(mapping=(("a", "x"), ("b", "x")))


class TestPrefix:
    def test_decode_rejects_missing_sigil(self):
        with pytest.raises(CodecError):
            PrefixCodec(sigil="~").decode("no sigil")


class TestComposition:
    def test_then_builds_composition(self):
        codec = ReverseCodec().then(CaesarCodec(shift=2))
        assert codec.decode(codec.encode("xyz")) == "xyz"

    def test_empty_composition_rejected(self):
        with pytest.raises(ValueError):
            ComposedCodec(())

    def test_composition_order_matters(self):
        a = ComposedCodec((ReverseCodec(), PrefixCodec("~")))
        b = ComposedCodec((PrefixCodec("~"), ReverseCodec()))
        assert a.encode("ab") == "~ba"
        assert b.encode("ab") == "ba~"


class TestFamily:
    def test_family_members_distinct_behaviour(self):
        family = codec_family(16)
        probe = "The Quick Brown Fox ~ 123!"
        encodings = [codec.encode(probe) for codec in family]
        assert len(set(encodings)) == len(family)

    def test_family_starts_with_identity(self):
        assert isinstance(codec_family(1)[0], IdentityCodec)

    def test_family_deterministic(self):
        names_a = [c.name for c in codec_family(12)]
        names_b = [c.name for c in codec_family(12)]
        assert names_a == names_b

    def test_family_size_validated(self):
        with pytest.raises(ValueError):
            codec_family(0)

    @pytest.mark.parametrize("size", [1, 2, 5, 30, 80])
    def test_family_has_requested_size(self, size: int):
        assert len(codec_family(size)) == size

    @given(message=printable_text)
    @settings(max_examples=20, deadline=None)
    def test_large_family_all_bijective(self, message: str):
        for codec in codec_family(40):
            assert codec.decode(codec.encode(message)) == message


# -- Table-compiled codecs against the per-character reference -------------
#
# The character codecs compile their maps into ``str.translate`` tables.
# These references are the per-character loops the tables replaced; the
# codecs must agree with them everywhere, errors included.

_LO, _HI = 32, 126


def reference_rotate(message: str, shift: int) -> str:
    out = []
    for ch in message:
        code = ord(ch)
        if _LO <= code <= _HI:
            code = _LO + (code - _LO + shift) % (_HI - _LO + 1)
        out.append(chr(code))
    return "".join(out)


def reference_xor(message: str, mask: int) -> str:
    out = []
    for ch in message:
        code = ord(ch)
        if code >= 256:
            raise CodecError(f"XorMaskCodec domain is Latin-1; got {ch!r}")
        out.append(chr(code ^ mask))
    return "".join(out)


SHIFTS = [0, 1, 3, 47, 94, 95, 200, -1]
MASKS = [0, 1, 0x2A, 0x55, 0x80, 0xFF]
EVERY_CODE_POINT = "".join(chr(code) for code in range(0x300))
LATIN1 = EVERY_CODE_POINT[:256]
any_text = st.text(alphabet=st.characters(max_codepoint=0x2FF), max_size=60)


class TestTableEquivalence:
    @pytest.mark.parametrize("shift", SHIFTS)
    def test_caesar_matches_reference_on_every_code_point(self, shift: int):
        codec = CaesarCodec(shift=shift)
        assert codec.encode(EVERY_CODE_POINT) == reference_rotate(EVERY_CODE_POINT, shift)
        assert codec.decode(EVERY_CODE_POINT) == reference_rotate(EVERY_CODE_POINT, -shift)

    @pytest.mark.parametrize("shift", SHIFTS)
    @given(message=any_text)
    @settings(max_examples=30, deadline=None)
    def test_caesar_matches_reference_on_text(self, shift: int, message: str):
        codec = CaesarCodec(shift=shift)
        assert codec.encode(message) == reference_rotate(message, shift)
        assert codec.decode(message) == reference_rotate(message, -shift)

    @pytest.mark.parametrize("shift", SHIFTS)
    def test_caesar_passes_non_printables_through(self, shift: int):
        outside = "".join(ch for ch in EVERY_CODE_POINT if not _LO <= ord(ch) <= _HI)
        codec = CaesarCodec(shift=shift)
        assert codec.encode(outside) == outside
        assert codec.decode(outside) == outside

    @pytest.mark.parametrize("mask", MASKS)
    def test_xor_matches_reference_on_latin1(self, mask: int):
        codec = XorMaskCodec(mask=mask)
        assert codec.encode(LATIN1) == reference_xor(LATIN1, mask)
        assert codec.decode(LATIN1) == reference_xor(LATIN1, mask)

    @pytest.mark.parametrize("mask", MASKS)
    @given(message=any_text)
    @settings(max_examples=30, deadline=None)
    def test_xor_matches_reference_on_text(self, mask: int, message: str):
        codec = XorMaskCodec(mask=mask)
        try:
            expected = reference_xor(message, mask)
        except CodecError:
            with pytest.raises(CodecError):
                codec.encode(message)
            with pytest.raises(CodecError):
                codec.decode(message)
        else:
            assert codec.encode(message) == expected
            assert codec.decode(message) == expected

    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("code", [0x100, 0x2FF, 0x2603, 0x1F600])
    def test_xor_rejects_beyond_latin1(self, mask: int, code: int):
        codec = XorMaskCodec(mask=mask)
        for message in (chr(code), "ok" + chr(code), chr(code) + "ok"):
            with pytest.raises(CodecError):
                codec.encode(message)
            with pytest.raises(CodecError):
                codec.decode(message)


class TestCachedTables:
    @pytest.mark.parametrize("codec", codec_family(16), ids=lambda c: c.name)
    def test_family_member_pickles(self, codec: Codec):
        probe = "OBS:red;FB:ok ~ ADV:red=blue"
        wire = codec.encode(probe)  # builds any cached tables first
        clone = pickle.loads(pickle.dumps(codec))
        assert clone == codec
        assert hash(clone) == hash(codec)
        assert clone.encode(probe) == wire
        assert clone.decode(wire) == probe

    @pytest.mark.parametrize(
        "codec",
        [
            CaesarCodec(shift=5),
            XorMaskCodec(mask=0x2A),
            AlphabetPermutationCodec(mapping=(("a", "b"), ("b", "c"), ("c", "a"))),
            TokenMapCodec(mapping=(("north", "sud"), ("sud", "north"))),
        ],
        ids=lambda c: c.name,
    )
    def test_tables_stay_out_of_value_semantics(self, codec: Codec):
        fresh = dataclasses.replace(codec)  # same fields, no tables built
        codec.encode("a north")  # builds the cached tables
        assert codec == fresh
        assert hash(codec) == hash(fresh)
        assert repr(codec) == repr(fresh)
        assert "_table" not in repr(codec)
        # Tables are not pickled: a shipped codec is its fields alone.
        assert not any(key.startswith("_") for key in pickle.loads(pickle.dumps(codec)).__dict__)

    def test_tables_built_once_per_instance(self):
        codec = TokenMapCodec(mapping=(("north", "sud"), ("sud", "north")))
        codec.encode("north")
        tables = codec._tables
        codec.decode("sud")
        assert codec._tables is tables
