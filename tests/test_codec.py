"""Canonical encoding: determinism, injectivity, strict round-trip."""

from __future__ import annotations

import dataclasses
import functools
import random
import re
import types
import typing
from dataclasses import dataclass
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seed, wire_frames
from vasptrust import claims, codec, crypto, pki, resolver, travel_rule, wallet
from vasptrust.config import default_config, parse_config
from vasptrust.ledger import LedgerTx, make_transfer
from vasptrust.netsim import messages
from vasptrust.netsim.nodes import Node
from vasptrust.netsim.scenarios import run_scenario_with_world
from vasptrust.netsim.sim import PossessionProof
from vasptrust.resolver import ResolverService, parse_identifier
from vasptrust.travel_rule import (CorrelationHint, CustomerRecord, HintKind,
                                   IdentifyingInfo, IdentifyingKind,
                                   TravelRulePayload, build_payload)


class Color(Enum):
    RED = "Red"
    BLUE = "Blue"


def labelled(cls):
    """Declare a signing label for this module's ``cls``, so that the
    tests can take its signing input."""
    codec.LABELS[f"{cls.__module__}.{cls.__qualname__}"] = \
        f"test {cls.__qualname__}"
    return cls


def label_frame(cls) -> bytes:
    """The encoded label a signing input of ``cls`` opens with."""
    return _ref_frame(codec.LABELS[
        f"{cls.__module__}.{cls.__qualname__}"].encode())


@labelled
@dataclass(frozen=True)
class Inner:
    label: str
    flags: tuple[bool, ...]


@labelled
@dataclass(frozen=True)
class Sample:
    count: int
    blob: bytes
    name: str
    maybe: int | None
    color: Color
    pairs: list[Inner]
    pair: tuple[str, bytes]


def sample(n=3, maybe=7) -> Sample:
    return Sample(n, b"\x00\x01", "abc", maybe, Color.RED,
                  [Inner("x", (True, False)), Inner("", ())], ("k", b"v"))


def test_encode_deterministic():
    assert codec.canonical_encode(sample()) == codec.canonical_encode(sample())


def test_one_field_changes_bytes():
    base = codec.canonical_encode(sample())
    assert codec.canonical_encode(sample(n=4)) != base
    assert codec.canonical_encode(sample(maybe=None)) != base


def test_round_trip_sample():
    value = sample()
    assert codec.canonical_decode(codec.canonical_encode(value), Sample) == value


def test_zero_and_none_distinct():
    # No byte names a type, so values of different types may share bytes;
    # where one type is declared, its members' values never do.
    for a, b, typ in ((0, None, int | None), (b"", "", bytes | str),
                      (False, 0, bool | int)):
        assert codec.canonical_encode(a, typ) != codec.canonical_encode(b, typ)
        for value in (a, b):
            blob = codec.canonical_encode(value, typ)
            assert codec.canonical_decode(blob, typ) == value
            assert type(codec.canonical_decode(blob, typ)) is type(value)


@pytest.mark.parametrize("value", [
    127, 128, 255, 256, 2_047, 2_048, 16_383, 16_384, 65_535, 65_536,
    # 126 and 128 UTF-8 bytes: a one- and a two-byte length, though both
    # are fewer than 0x80 characters.
    "é" * 63, "é" * 64,
    b"b" * 127, b"b" * 128,
    # Struct bodies of 127 and 128 bytes: a str and an empty sequence.
    Inner("x" * 125, ()), Inner("x" * 126, ()),
], ids=repr)
def test_header_and_small_int_boundaries_match_reference(value):
    blob = codec.canonical_encode(value)
    assert blob == reference_encode(value)
    if isinstance(value, int):  # one byte per 7 bits
        assert len(blob) == max(1, -(-value.bit_length() // 7))
    if isinstance(value, Inner):  # the struct's length
        body = 2 + len(value.label)
        assert blob[:-body] == (b"\x7f" if body < 0x80 else b"\x80\x01")


def test_negative_ints_refused():
    with pytest.raises(codec.CodecError):
        codec.canonical_encode(-1)


def test_struct_bytes_leaves_out_the_last_field():
    full = codec.canonical_encode(sample())
    partial = codec.struct_bytes(sample())
    assert partial != full
    # The signing input is the label, then the struct of every field but
    # the last; the full struct is those fields, then the last field.
    label = label_frame(Sample)
    assert partial.startswith(label)
    last = codec.canonical_encode(sample().pair, tuple[str, bytes])
    assert full[-len(last):] == last
    assert full[1:-len(last)] == partial[len(label) + 1:]


@pytest.mark.parametrize("mutate", [
    lambda b: b[:-1],                         # truncated
    lambda b: b + b"\x00",                    # trailing bytes
    lambda b: bytes([0x7F]) + b[1:],          # a length past the end
])
def test_strict_decode_rejects_damage(mutate):
    blob = codec.canonical_encode(sample())
    with pytest.raises(codec.DecodeError):
        codec.canonical_decode(mutate(blob), Sample)


def test_strict_decode_rejects_non_minimal_int():
    # 1 written in two varint bytes, and 2**70 with a trailing zero byte,
    # are non-canonical; an int of any size is read.
    for bad in (b"\x81\x00", _ref_varint(2**70)[:-1] + b"\x81\x00"):
        with pytest.raises(codec.DecodeError, match="non-minimal"):
            codec.canonical_decode(bad, int)
    assert codec.canonical_decode(b"\x01", int) == 1
    assert codec.canonical_decode(_ref_varint(10**30), int) == 10**30


def test_strict_decode_rejects_bad_bool_and_utf8():
    for bad_flag, typ in ((b"\x02", bool), (b"\x02\x00", int | None)):
        with pytest.raises(codec.DecodeError, match="neither 0 nor 1"):
            codec.canonical_decode(bad_flag, typ)
    bad_str = b"\x01\xff"
    with pytest.raises(codec.DecodeError):
        codec.canonical_decode(bad_str, str)


@pytest.mark.parametrize("header, payload, refusal", [
    (b"\x80\x00", b"", "non-minimal"),          # 0 in two bytes
    (b"\x81\x00", b"x", "non-minimal"),         # 1 in two bytes
    (b"\x80" * 5 + b"\x00", b"", "non-minimal"),  # 0 in six bytes
    (b"\x80\x80\x80\x80\x10", b"", "runs past"),  # 2**32
    (b"\xff\xff\xff\xff\x0f", b"x", "runs past"),  # 2**32 - 1
    (b"\x80", b"", "truncated varint"),
    (b"", b"", "truncated varint"),
], ids=["zero_in_two_bytes", "one_in_two_bytes", "six_bytes", "over_cap",
        "at_cap", "truncated_varint", "no_length"])
def test_strict_decode_rejects_non_canonical_lengths(header, payload, refusal):
    blob = header + payload
    with pytest.raises(codec.DecodeError, match=refusal):
        codec.canonical_decode(blob, bytes)


def _varint_size(n: int) -> int:
    return max(1, -(-n.bit_length() // 7))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([0, 127, 128, 16_383, 16_384])
       | st.integers(min_value=0, max_value=2**21))
def test_frame_lengths_are_minimal_varints(n):
    payload = bytes(range(256)) * (n // 256) + bytes(n % 256)
    blob = codec.canonical_encode(payload)
    assert len(blob) == _varint_size(n) + n
    assert blob == _ref_frame(payload)
    assert codec.canonical_decode(blob, bytes) == payload


def random_payload(rng: random.Random) -> TravelRulePayload:
    def text():
        return "".join(rng.choice("abcdefghij ABCDEFGHIJ0123456789") \
                       for _ in range(rng.randint(1, 20)))

    kind = rng.choice(list(IdentifyingKind))
    identifying = IdentifyingInfo(
        kind, text(), text() if kind is IdentifyingKind.BIRTH_INFO else "")
    if rng.random() < 0.1:
        identifying = None
    hint_kind = rng.choice(list(HintKind))
    hint = CorrelationHint(hint_kind) if hint_kind is HintKind.MEMO_TAG else \
        CorrelationHint(hint_kind, rng.randbytes(32), rng.randint(1, 10**9))
    return TravelRulePayload(
        originator_name=text(), originator_account=text(),
        originator_identifying=identifying,
        beneficiary_name=text(), beneficiary_account=text(),
        originating_vasp_number=rng.randint(0, 999),
        transfer_number=rng.randint(1, 10**6),
        beneficiary_vasp_number=rng.randint(0, 999),
        amount=rng.randint(1, 10**12),
        correlation=hint,
    )


def test_payload_round_trip_500_random():
    rng = random.Random(0xC0DEC)
    for _ in range(500):
        payload = random_payload(rng)
        blob = codec.canonical_encode(payload)
        back = codec.canonical_decode(blob, TravelRulePayload)
        assert back == payload
        assert codec.canonical_encode(back) == blob


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0))
def test_uint_round_trip(n):
    assert codec.canonical_decode(codec.canonical_encode(n), int) == n


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64), st.text(max_size=64))
def test_bytes_text_round_trip(b, s):
    assert codec.canonical_decode(codec.canonical_encode(b), bytes) == b
    assert codec.canonical_decode(codec.canonical_encode(s), str) == s


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=8),
                          st.lists(st.booleans(), max_size=4))))
def test_nested_injectivity(items):
    values = [Inner(label, tuple(flags)) for label, flags in items]
    encodings = {codec.canonical_encode(v): v for v in values}
    for blob, value in encodings.items():
        assert codec.canonical_decode(blob, Inner) == value
    assert len(encodings) == len(set(values))


def test_edited_wire_bytes_decode_canonically_or_raise_codec_error(
        demo_config):
    # An accepted byte string is the unique encoding of its value: each
    # seeded 1-3 byte edit of an S1-S5 frame is refused with DecodeError
    # and nothing else, or decodes to a body that re-encodes to exactly
    # the edited bytes.
    blobs = [blob for name in ("S1", "S2", "S3", "S4", "S5")
             for _, blob in run_scenario_with_world(name, demo_config)[1]
             .sim.wire_log]
    rng = random.Random(0x1EB128)
    decoded = 0
    for _ in range(60_000):
        data = bytearray(rng.choice(blobs))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(data))
            edit = rng.randrange(3)
            if edit == 0:
                data[i] ^= rng.randrange(1, 256)
            elif edit == 1:
                data.insert(i, rng.randrange(256))
            else:
                del data[i]
        data = bytes(data)
        try:
            value = codec.canonical_decode(data, messages.MessageBody)
        except codec.DecodeError:
            continue
        decoded += 1
        assert codec.canonical_encode(value, messages.MessageBody) == data
    assert decoded > 0


# -- the compiled encoder against an interpretive reference --------------------

def _ref_varint(n: int) -> bytes:
    """Unsigned LEB128: low 7 bits first, each byte but the last with its
    high bit set."""
    out = []
    while n > 0x7F:
        out.append(0x80 | n % 128)
        n //= 128
    return bytes(out + [n])


def _ref_frame(payload: bytes) -> bytes:
    """The payload's length as a varint, then the payload."""
    return _ref_varint(len(payload)) + payload


def reference_encode(value, typ=None) -> bytes:
    """An interpretive encoder, as the format states it: it dispatches
    every value on its declared type (by default its own class). A union
    value is its member's index among the non-None members, then the
    value; ``T | None`` a presence byte, then ``T``."""
    typ = type(value) if typ is None else typ
    origin, args = typing.get_origin(typ), typing.get_args(typ)
    if origin in (typing.Union, types.UnionType):
        members = [a for a in args if a is not type(None)]
        optional = len(members) < len(args)
        if value is None:
            if not optional:
                raise codec.CodecError(f"None not permitted for {typ}")
            return b"\x00"
        present = b"\x01" if optional else b""
        if len(members) == 1:
            return present + reference_encode(value, members[0])
        if type(value) not in members:
            raise codec.CodecError(f"{type(value).__name__} is not a member")
        return present + _ref_varint(members.index(type(value))) + \
            reference_encode(value, type(value))
    if value is None:
        raise codec.CodecError(f"None not permitted for {typ}")
    if origin in (list, tuple):
        if type(value) is not origin:
            raise codec.CodecError(f"{type(value).__name__} given for {typ}")
        if origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
            if len(args) != len(value):
                raise codec.CodecError(f"tuple arity mismatch for {typ}")
            items = [reference_encode(v, t) for v, t in zip(value, args)]
        else:
            items = [reference_encode(v, args[0]) for v in value]
        return _ref_frame(b"".join(items))
    if type(value) is not typ:
        raise codec.CodecError(f"{type(value).__name__} given for {typ}")
    if isinstance(value, Enum):
        return _ref_varint(list(typ).index(value))
    if typ is bool:
        return b"\x01" if value else b"\x00"
    if typ is int:
        if value < 0:
            raise codec.CodecError("negative integers are not encodable")
        return _ref_varint(value)
    if typ is bytes:
        return _ref_frame(value)
    if typ is str:
        return _ref_frame(value.encode("utf-8"))
    if dataclasses.is_dataclass(typ):
        hints = typing.get_type_hints(typ)
        return _ref_frame(b"".join(
            reference_encode(getattr(value, f.name), hints[f.name])
            for f in dataclasses.fields(value)))
    raise codec.CodecError(f"cannot canonically encode {typ.__name__}")


def _reference_signing_input(value) -> bytes:
    """The reference label frame, then the struct of every field of
    ``value`` but the last."""
    hints = typing.get_type_hints(type(value))
    return label_frame(type(value)) + _ref_frame(b"".join(
        reference_encode(getattr(value, f.name), hints[f.name])
        for f in dataclasses.fields(value)[:-1]))


def is_signed(cls) -> bool:
    return f"{cls.__module__}.{cls.__qualname__}" in codec.LABELS


def _signed_held(value) -> list:
    """Every value of a signed type that ``value`` is or holds."""
    return [held for held in _dataclass_values(value) if is_signed(type(held))]


def values_of(typ) -> st.SearchStrategy:
    """Valid values of a declared type, nested dataclasses included."""
    origin = typing.get_origin(typ)
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*[st.none() if a is type(None) else values_of(a)
                           for a in typing.get_args(typ)])
    if origin is list:
        return st.lists(values_of(typing.get_args(typ)[0]), max_size=3)
    if origin is tuple:
        args = typing.get_args(typ)
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(values_of(args[0]), max_size=3).map(tuple)
        return st.tuples(*[values_of(a) for a in args])
    if typ is bool:
        return st.booleans()
    if typ is int:
        return st.integers(min_value=0, max_value=2**72)
    if typ is bytes:
        return st.binary(max_size=40)
    if typ is str:
        return st.text(max_size=12)
    if isinstance(typ, type) and issubclass(typ, Enum):
        return st.sampled_from(list(typ))
    if dataclasses.is_dataclass(typ):
        hints = typing.get_type_hints(typ)
        return st.builds(typ, **{f.name: values_of(hints[f.name])
                                 for f in dataclasses.fields(typ)})
    raise TypeError(f"no strategy for {typ!r}")


BODY_TYPES = typing.get_args(messages.MessageBody)


@pytest.mark.parametrize("cls", [Sample, *BODY_TYPES],
                         ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compiled_encoder_matches_reference(cls, data):
    value = data.draw(values_of(cls))
    blob = codec.canonical_encode(value)
    assert blob == reference_encode(value)
    for signed in _signed_held(value):
        assert codec.struct_bytes(signed) == _reference_signing_input(signed)
    if not is_signed(cls):
        with pytest.raises(codec.CodecError, match="declares no signing label"):
            codec.struct_bytes(value)
    assert codec.canonical_decode(blob, cls) == value


@pytest.mark.parametrize("body_type", BODY_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_wire_bytes_frame_the_body_bytes(body_type, data):
    body = data.draw(values_of(body_type))
    # A frame is the body as its union member: its bytes end with the
    # body's own encoding.
    wire = codec.canonical_encode(body, messages.MessageBody)
    assert wire == reference_encode(body, messages.MessageBody)
    assert wire.endswith(codec.canonical_encode(body))


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_every_body_and_signed_value_decodes_back_and_edits_reencode(data):
    # For every frame member and every signed type: decoding an encoding
    # gives the value back, and an edited encoding is refused with
    # DecodeError or decodes to a value that re-encodes to those bytes.
    cls = data.draw(st.sampled_from([*BODY_TYPES, *SIGNED_TYPES]))
    typ = messages.MessageBody if cls in BODY_TYPES else cls
    value = data.draw(values_of(cls))
    blob = codec.canonical_encode(value, typ)
    assert codec.canonical_decode(blob, typ) == value
    edited = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        i = data.draw(st.integers(0, max(len(edited) - 1, 0)), label="at")
        edit = data.draw(st.sampled_from(["flip", "insert", "delete"]))
        if edit == "insert" or not edited:
            edited.insert(i, data.draw(st.integers(0, 255), label="inserted"))
        elif edit == "flip":
            edited[i] ^= data.draw(st.integers(1, 255), label="flipped bits")
        else:
            del edited[i]
    try:
        back = codec.canonical_decode(bytes(edited), typ)
    except codec.DecodeError:
        return
    assert codec.canonical_encode(back, typ) == bytes(edited)


def test_an_int_of_any_size_travels():
    # A varint has no size limit: with every treasury at 10**30 and S1's
    # amount at 10**29, S1 passes, and its request carries the amount.
    raw = default_config()
    for vasp in raw["vasps"]:
        vasp["treasury"] = 10**30
    raw["scenario_params"]["S1"]["amount"] = 10**29
    trace, world = run_scenario_with_world("S1", parse_config(raw))
    assert trace.passed
    assert [f.body.signed.payload.amount for f in wire_frames(world.sim)
            if isinstance(f.body, messages.TravelRuleRequest)] == [10**29]


@pytest.mark.parametrize("body_type", BODY_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_body_bytes_of_damaged_wire_bytes_raise_only_decode_error(
        body_type, data):
    # Truncated or extended wire bytes are refused; edited ones decode to
    # some body or are refused, and with DecodeError, never another error.
    wire = codec.canonical_encode(data.draw(values_of(body_type)),
                                  messages.MessageBody)
    cut = data.draw(st.integers(0, len(wire) - 1), label="bytes kept")
    for damaged in (wire[:cut], wire + wire[cut:cut + 1]):
        with pytest.raises(codec.DecodeError):
            codec.canonical_decode(damaged, messages.MessageBody)
    edited = bytearray(wire)
    i = data.draw(st.integers(0, len(wire) - 1), label="edited byte")
    edit = data.draw(st.sampled_from(["flip", "insert", "delete"]))
    if edit == "flip":
        edited[i] ^= data.draw(st.integers(1, 255), label="flipped bits")
    elif edit == "insert":
        edited.insert(i, data.draw(st.integers(0, 255), label="inserted"))
    else:
        del edited[i]
    try:
        codec.canonical_decode(bytes(edited), messages.MessageBody)
    except codec.DecodeError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.recursive(
    st.none() | st.booleans() | st.integers(min_value=0) | st.binary()
    | st.text() | st.sampled_from(list(Color)),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple), max_leaves=12))
def test_untyped_values_match_reference(value):
    # A scalar or an enum member encodes as its own class. None, and a
    # sequence whose items no type declares, has no encoding: without a
    # tag, [0] and [b""] would share one.
    if value is None or isinstance(value, (list, tuple)):
        with pytest.raises(codec.CodecError, match="cannot canonically encode"):
            codec.canonical_encode(value)
    else:
        assert codec.canonical_encode(value) == reference_encode(value)


def test_signing_input_matches_reference():
    value = sample()
    hints = typing.get_type_hints(Sample)
    expected = label_frame(Sample) + _ref_frame(b"".join(
        reference_encode(getattr(value, f.name), hints[f.name])
        for f in dataclasses.fields(Sample)[:-1]))
    assert codec.struct_bytes(value) == expected


# -- members tagged by declaration index ----------------------------------------

PROTOCOL_ENUMS = [cls for module in (pki, wallet, travel_rule, resolver)
                  for cls in vars(module).values()
                  if isinstance(cls, type) and issubclass(cls, Enum)
                  and cls.__module__ == module.__name__]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PROTOCOL_ENUMS).flatmap(st.sampled_from))
def test_enum_member_is_its_declaration_index(member):
    cls = type(member)
    index = list(cls).index(member)
    blob = codec.canonical_encode(member)
    assert blob == _ref_varint(index)
    back = codec.canonical_decode(blob, cls)
    assert back is member
    assert codec.canonical_encode(back) == blob
    for bad in (_ref_varint(len(cls)), bytes([0x80 | index, 0])):
        with pytest.raises(codec.DecodeError):
            codec.canonical_decode(bad, cls)


def frame_wire(body, index: bytes) -> bytes:
    """``body``'s frame with the body tagged by the varint bytes ``index``."""
    return index + reference_encode(body)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_message_body_is_tagged_by_its_union_index(data):
    index = data.draw(st.integers(0, len(BODY_TYPES) - 1), label="member")
    body = data.draw(values_of(BODY_TYPES[index]))
    blob = codec.canonical_encode(body, messages.MessageBody)
    assert blob == frame_wire(body, _ref_varint(index))
    back = codec.canonical_decode(blob, messages.MessageBody)
    assert back == body
    assert codec.canonical_encode(back, messages.MessageBody) == blob
    for bad in (_ref_varint(len(BODY_TYPES)), bytes([0x80 | index, 0])):
        with pytest.raises(codec.DecodeError):
            codec.canonical_decode(frame_wire(body, bad), messages.MessageBody)


def test_non_member_where_an_enum_is_declared_refused():
    for value in ("Red", "RED", 0, Flavour.SWEET):
        with pytest.raises(codec.CodecError, match="is not a member of Color"):
            codec.canonical_encode(dataclasses.replace(sample(), color=value))


# -- every refusal -------------------------------------------------------------

@dataclass(frozen=True)
class Either:
    choice: Inner | Color


class Flavour(str, Enum):
    SWEET = "sweet"


class Tasted(Enum):
    SWEET = "sweet"


@dataclass(frozen=True)
class Cake:
    flavour: Flavour


class Strings(list):
    pass


@dataclass(frozen=True)
class Measured:
    weight: float


def test_negative_int_in_a_field_refused():
    with pytest.raises(codec.CodecError, match="negative"):
        codec.canonical_encode(sample(n=-1))


@pytest.mark.parametrize("value", [
    dataclasses.replace(sample(), name=None),
    dataclasses.replace(sample(), count=None),
    dataclasses.replace(sample(), color=None),
    dataclasses.replace(sample(), pairs=None),
    dataclasses.replace(sample(), pair=None),
    Inner(None, ()),
    Inner("x", (None,)),
    Either(None),
], ids=["str", "int", "enum", "list", "tuple", "nested-str", "tuple-item",
        "union"])
def test_none_in_a_field_that_is_not_optional_refused(value):
    with pytest.raises(codec.CodecError, match="None not permitted"):
        codec.canonical_encode(value)


def test_none_in_an_optional_field_encodes():
    assert codec.canonical_encode(sample(maybe=None)) \
        == reference_encode(sample(maybe=None))


def test_value_outside_the_union_refused():
    with pytest.raises(codec.CodecError, match="not a member"):
        codec.canonical_encode(Either("neither"))
    assert codec.canonical_encode(Either(Color.BLUE)) \
        == reference_encode(Either(Color.BLUE))


def test_tuple_arity_mismatch_refused():
    with pytest.raises(codec.CodecError, match="arity"):
        codec.canonical_encode(dataclasses.replace(sample(), pair=("k",)))
    with pytest.raises(codec.CodecError, match="arity"):
        codec.canonical_encode(dataclasses.replace(sample(),
                                                   pair=("k", b"v", "x")))


UNENCODABLE = "cannot canonically encode"


@pytest.mark.parametrize("value, refusal", [
    (1.5, UNENCODABLE), ({"a": 1}, UNENCODABLE), ({1, 2}, UNENCODABLE),
    (object(), UNENCODABLE), (Measured(2.5), UNENCODABLE),
    ([1, 2.5], UNENCODABLE), (Sample, UNENCODABLE),
    (messages.LookupResponse(1.5, (), None), "float given for int"),
], ids=["float", "dict", "set", "object", "float-field", "list-item", "class",
        "float-for-int"])
def test_unencodable_types_refused(value, refusal):
    with pytest.raises(codec.CodecError, match=refusal):
        codec.canonical_encode(value)


def test_struct_bytes_requires_a_dataclass_instance():
    for value in (3, "x", Sample):
        with pytest.raises(codec.CodecError):
            codec.struct_bytes(value)


def test_builtin_subclasses_encode_as_the_builtin():
    # Only bool, of the builtins' subclasses, encodes as a builtin (its
    # own): a member of a str-valued enum encodes as that enum, and a
    # bytearray or a subclass of list with no declared type is refused.
    for value in (True, Flavour.SWEET):
        assert codec.canonical_encode(value) == reference_encode(value)
    assert codec.canonical_encode([Flavour.SWEET], list[Flavour]) == b"\x01\x00"
    assert codec.canonical_encode(Flavour.SWEET) == codec.canonical_encode(
        Tasted.SWEET) != codec.canonical_encode("sweet")
    for value in (bytearray(b"ab"), Strings(["x"]), [Strings()]):
        with pytest.raises(codec.CodecError, match=UNENCODABLE):
            codec.canonical_encode(value)


def test_str_valued_enum_where_it_is_declared_round_trips():
    value = Cake(Flavour.SWEET)
    assert codec.canonical_decode(codec.canonical_encode(value), Cake) == value


# -- a value encodes only as its declared type ---------------------------------

# A value of each encodable class, for the fields that declare another.
OTHER_CLASSES = [True, 7, "x", b"x", bytearray(b"x"), Color.RED, Flavour.SWEET,
                 pki.Refusal.INVALID_CALLER, (), ["x"], Inner("x", ())]
STRICT_TYPES = [Sample, *BODY_TYPES]


def _declared_classes(typ) -> set:
    """The classes of the values that encode where ``typ`` is declared."""
    if typing.get_origin(typ) in (typing.Union, types.UnionType):
        return set().union(*map(_declared_classes, typing.get_args(typ)))
    return {typing.get_origin(typ) or typ}


@pytest.mark.parametrize("cls", STRICT_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_other_class_where_a_type_is_declared_refused(cls, data):
    # A bool for an int, an enum member for a str (a str-valued one too),
    # an int for bytes, a tuple for a list, a list for a tuple, and so on.
    value = data.draw(values_of(cls))
    refused = 0
    for name, typ in typing.get_type_hints(cls).items():
        for other in OTHER_CLASSES:
            if type(other) in _declared_classes(typ):
                continue
            wrong = dataclasses.replace(value, **{name: other})
            with pytest.raises(codec.CodecError):
                codec.canonical_encode(wrong)
            if cls in BODY_TYPES:
                with pytest.raises(codec.CodecError):
                    codec.canonical_encode(wrong, messages.MessageBody)
            refused += 1
    assert refused >= len(dataclasses.fields(cls))


@pytest.mark.parametrize("cls", STRICT_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_encoding_decodes_to_its_value(cls, data):
    # Whatever a field is given, the value is refused, or its bytes decode
    # as the declared type back to it.
    value = data.draw(values_of(cls))
    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cls)]))
    mutated = dataclasses.replace(
        value, **{name: data.draw(st.sampled_from(OTHER_CLASSES))})
    try:
        blob = codec.canonical_encode(mutated)
    except codec.CodecError:
        return
    assert codec.canonical_decode(blob, cls) == mutated


# -- encoding keeps nothing on a value -----------------------------------------

@pytest.mark.parametrize("cls", BODY_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kept_encodings_match_reference(cls, data):
    # The signing inputs are those of the signed values the body holds.
    names = [f.name for f in dataclasses.fields(cls)]
    value = data.draw(values_of(cls))
    full = reference_encode(value)
    partial = [_reference_signing_input(v) for v in _signed_held(value)]
    if data.draw(st.booleans(), label="signing input first"):
        assert [codec.struct_bytes(v) for v in _signed_held(value)] == partial
    for _ in range(2):
        assert codec.canonical_encode(value) == full
        assert [codec.struct_bytes(v) for v in _signed_held(value)] == partial
    # A replaced copy is a new value with its own encoding.
    name = data.draw(st.sampled_from(names), label="replaced field")
    new = data.draw(values_of(typing.get_type_hints(cls)[name]))
    copy = dataclasses.replace(value, **{name: new})
    assert codec.canonical_encode(copy) == reference_encode(copy)
    for signed in _signed_held(copy):
        assert codec.struct_bytes(signed) == _reference_signing_input(signed)
    assert codec.canonical_encode(value) == full


def _tuple_fields(cls) -> list[str]:
    return [name for name, typ in typing.get_type_hints(cls).items()
            if typing.get_origin(typ) is tuple]


@pytest.mark.parametrize("cls", [c for c in BODY_TYPES if _tuple_fields(c)],
                         ids=lambda cls: cls.__name__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_list_in_a_tuple_field_refused(cls, data):
    value = data.draw(values_of(cls))
    name = data.draw(st.sampled_from(_tuple_fields(cls)))
    listed = dataclasses.replace(value, **{name: list(getattr(value, name))})
    with pytest.raises(codec.CodecError, match="list given for tuple"):
        codec.canonical_encode(listed)
    with pytest.raises(codec.CodecError, match="list given for tuple"):
        codec.canonical_encode(listed, messages.MessageBody)
    # The path of every signing input: a label and a struct without its
    # last field.
    token = data.draw(values_of(claims.AuthorizationToken))
    with pytest.raises(codec.CodecError, match="list given for tuple"):
        codec.struct_bytes(dataclasses.replace(token, permitted_attributes=list(
            token.permitted_attributes)))


@dataclass
class Loose:
    label: str


def test_mutable_values_inside_frozen_values_refused():
    # A non-frozen dataclass where a frozen one is declared, a bytearray
    # where bytes are, a tuple holding a list where a str is, and a list
    # where a tuple is declared in a value that keeps no encoding.
    for value in (messages.AdvertisementFlood((Loose("x"),)),
                  messages.AttestationChallenge("d", bytearray(b"n")),
                  messages.LookupRequest(("x", [1])),
                  dataclasses.replace(sample(), pair=["k", b"v"])):
        with pytest.raises(codec.CodecError, match="given for"):
            codec.canonical_encode(value)
    # Outside a frozen value the dataclass encodes as its declared class,
    # and the bytearray is refused there.
    assert codec.canonical_encode([Loose("x")], list[Loose]) == \
        reference_encode([Loose("x")], list[Loose])
    with pytest.raises(codec.CodecError, match="bytearray given for"):
        codec.canonical_encode([Loose("x"), bytearray(b"n")], list[Loose])


@dataclass(frozen=True)
class Bare:
    items: tuple


def test_other_sequence_class_where_a_bare_one_is_declared_refused():
    # A list and a tuple both encode as a length and their items, so a
    # list given for a ``tuple`` would encode as the tuple does. But a bare
    # sequence, whose items no type declares, does not encode at all: a
    # value of either class is refused with the declared type's message.
    for items in ((1, "x"), [1, "x"]):
        with pytest.raises(codec.CodecError,
                           match="cannot canonically encode tuple"):
            codec.canonical_encode(Bare(items))


def _fields_and_ids(cls) -> set[str]:
    """The names of ``cls``'s fields and of its own cached ids."""
    return {f.name for f in dataclasses.fields(cls)} | {
        name for name, attr in vars(cls).items()
        if isinstance(attr, functools.cached_property)}


def _dataclass_values(value):
    """``value`` and every dataclass value it holds, at any depth."""
    if dataclasses.is_dataclass(value):
        yield value
        for f in dataclasses.fields(value):
            yield from _dataclass_values(getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _dataclass_values(item)


@pytest.mark.parametrize("cls", BODY_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_codec_keeps_nothing_on_a_value(cls, data):
    # Encoding, signing input, sealing and unsealing write nothing to any
    # value they read, nested ones included.
    value = data.draw(values_of(cls))
    codec.canonical_encode(value, messages.MessageBody)
    held = _dataclass_values(value)
    for signed in _signed_held(value):
        last = dataclasses.fields(signed)[-1].name
        codec.struct_bytes(signed)
        sealed, _ = codec.seal(signed, lambda tbs: getattr(signed, last))
        assert codec.unseal(sealed) == (codec.struct_bytes(signed),
                                        getattr(signed, last))
        held = [*held, *_dataclass_values(sealed)]
    for each in held:
        assert vars(each).keys() <= _fields_and_ids(type(each))


# -- signed values, sealed and unsealed ----------------------------------------

def _signed_values(root, member) -> list:
    """A value of every signed type, each built where the program builds
    it by ``codec.seal``, with the public key its signature verifies
    under."""
    service = ResolverService(7, {"bob"})
    for identifier in ("bob@idp2.com", "bob$vasp7.example", "07" * 32):
        service.register_identifier("bob", parse_identifier(identifier))
    payload = build_payload(
        CustomerRecord("A-1", "Alice", geographic_address="1 Main St"),
        "Bob", "B-9", 9, 125, 7, 1)
    key = crypto.generate_keypair(seed("ledger:key"))
    tx = make_transfer([(key.public_key, 40)], [(b"\x02" * 32, 40)],
                       {key.public_key: lambda m: crypto.sign(key.private_key, m)},
                       memo_tag=b"\x01" * 32)
    provider = claims.ClaimsProvider("dmv", seed("cp:dmv"))
    server_key = crypto.generate_keypair(seed("authsrv"))
    store_key = crypto.generate_keypair(seed("store:alice"))
    server = claims.AuthorizationServer(server_key)
    store = claims.ClaimsStore("alice", store_key)
    server.bind_store(store)
    claim = provider.issue_claim("alice", "dl", "DL-1", 0, 100)
    store.add_claim(claim)
    store.set_policy("alice", claims.AccessPolicy(
        "alice", frozenset({7}), frozenset({"dl"}), "kyc"))
    token = server.request_authorization(7, {"dl"}, "kyc", 1)
    _, receipt = store.fetch_claims(token, server_key.public_key, now=5)
    device = wallet.WalletDevice("wdev:a", seed("device:a"),
                                 [("boot", crypto.digest(b"boot"))])
    device.generate_key(migratable=False)
    claims_key = member["claims"].public_key
    terms = claims.ClaimsTerms(token.token_id, token.purpose, crypto.sign(
        member["claims"].private_key, claims.terms_bytes(token)))
    node = Node(None, "vasp:7", member["identity_cert"], member["identity"],
                None)
    nonce = b"\x04" * 32
    return [
        (member["identity_cert"], root.public_key),
        (member["claims_cert"], root.public_key),
        (pki.TreeHead(*pki.proven_head(member["claims_cert"])),
         root.public_key),
        (root.revoke(member["tx_cert"].serial,
                     pki.RevocationReason.SUPERSEDED, 2), root.public_key),
        (service.build_advertisement(
            member["claims"].private_key, member["claims_cert"].serial,
            member["identity_cert"].subject.alt_domain_names), claims_key),
        (travel_rule.sign_payload(member["claims"].private_key,
                                  member["claims_cert"].serial, payload)[0],
         claims_key),
        (tx, key.public_key),
        (claim, provider.public_key),
        (token, server_key.public_key),
        (receipt, store_key.public_key),
        (device.attest(b"\x03" * wallet.NONCE_SIZE),
         device.attestation_public_key),
        (terms, claims_key),
        (PossessionProof(nonce, node.prove_possession(nonce)),
         member["identity"].public_key),
    ]


def _verifies(public_key: bytes, value) -> bool:
    """Whether ``value``'s signature (each of a ledger transaction's
    signatures; a certificate's proof and its head's) verifies under
    ``public_key``."""
    if isinstance(value, (pki.EvIdentityCertificate, pki.SigningCertificate)):
        return pki.validate_chain(value, public_key, pki.RevocationList(
            (), 0, b""), value.not_before) is not pki.Verdict.BAD_SIGNATURE
    tbs, signature = codec.unseal(value)
    signatures = signature if isinstance(signature, tuple) else (signature,)
    return bool(signatures) and all(
        crypto.verify(public_key, tbs, sig) for sig in signatures)


def _changed(value):
    """A value of ``value``'s class that encodes to other bytes."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, bytes):
        return value + b"x"
    if isinstance(value, tuple) and value:
        return value[:-1]
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0].name
        return dataclasses.replace(
            value, **{first: _changed(getattr(value, first))})
    raise AssertionError(f"no change of {value!r} is defined")


def test_signed_values_unseal_and_verify(root, member):
    signed = _signed_values(root, member)
    assert len({type(v) for v, _ in signed}) == len(signed) == 13
    for value, public_key in signed:
        last = dataclasses.fields(value)[-1].name
        assert codec.unseal(value) == (codec.struct_bytes(value),
                                       getattr(value, last))
        fresh = dataclasses.replace(value)  # equal, and keeps nothing yet
        assert codec.struct_bytes(value) == codec.struct_bytes(fresh) \
            == _reference_signing_input(value)
        assert codec.canonical_encode(value) == codec.canonical_encode(fresh) \
            == reference_encode(value)
        assert _verifies(public_key, value), type(value).__name__
        for f in dataclasses.fields(value)[:-1]:
            forged = dataclasses.replace(
                value, **{f.name: _changed(getattr(value, f.name))})
            assert not _verifies(public_key, forged), (type(value), f.name)


# Every type whose last field is its signature: each type sealed, and the
# answer delta, which its originator rebuilds and verifies as a payload.
SIGNED_TYPES = [pki.EvIdentityCertificate, pki.SigningCertificate,
                pki.RevocationList, resolver.IdentifierAdvertisement,
                travel_rule.SignedPayload, travel_rule.SignedAnswer, LedgerTx,
                claims.SignedClaim, claims.AuthorizationToken,
                claims.ConsentReceipt, wallet.AttestationEvidence,
                pki.TreeHead, claims.ClaimsTerms, PossessionProof]
# The signed types of the program, each with its one label.
LABELLED = [cls for cls in SIGNED_TYPES if cls is not travel_rule.SignedAnswer]


def test_signed_types_list_every_sealed_type(root, member):
    assert {type(v) for v, _ in _signed_values(root, member)} == \
        set(LABELLED)
    assert {f"{c.__module__}.{c.__qualname__}" for c in LABELLED} == {
        name for name in codec.LABELS if name.startswith("vasptrust.")}
    assert len({codec.LABELS[f"{c.__module__}.{c.__qualname__}"]
                for c in LABELLED}) == len(LABELLED)


@pytest.mark.parametrize("cls", SIGNED_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_signing_input_reheads_to_the_value_and_slices_its_first_field(
        cls, data):
    # The signing input a party sealed or verified is all it needs of the
    # value: re-headed, it is the value's canonical bytes, and where its
    # first field's bytes open with their length, its slice is that
    # field's encoding (a payload id's input), the one that opens the
    # value's own fields; any other first field is refused. An answer
    # delta has no signing input of its own: its rebuilt payload's is
    # signed.
    value = data.draw(values_of(cls))
    if cls is travel_rule.SignedAnswer:
        with pytest.raises(codec.CodecError, match="declares no signing label"):
            codec.seal(value, lambda _: b"")
        return
    first, *_, last = dataclasses.fields(cls)
    sealed, tbs = codec.seal(value, lambda _: getattr(value, last.name))
    assert sealed == value and tbs == _reference_signing_input(value)
    full = reference_encode(value)
    assert codec.sealed_bytes(value, tbs) == full
    typ = typing.get_type_hints(cls)[first.name]
    if typ in (str, bytes) or dataclasses.is_dataclass(typ) or \
            typing.get_origin(typ) in (list, tuple):
        field = reference_encode(getattr(value, first.name), typ)
        body = next(n for n in range(len(full), -1, -1)
                    if _varint_size(n) + n == len(full))
        assert codec.first_field(cls, tbs) == field
        assert full[len(full) - body:].startswith(field)
    else:
        with pytest.raises(codec.CodecError,
                           match="does not open with its length"):
            codec.first_field(cls, tbs)


SIGNATURE_FIELDS = {"signature", "issuer_signature", "signatures",
                    "issuer_proof"}


def test_every_signed_type_ends_in_its_signature(root, member, demo_config,
                                                  monkeypatch):
    # Every type the program passes to struct_bytes, over a value of each
    # signed type and S1-S5, declares its signature last: the one rule
    # that makes struct_bytes its signing input.
    signed_types = set()
    struct_bytes = codec.struct_bytes

    def recording(value):
        signed_types.add(type(value))
        return struct_bytes(value)

    monkeypatch.setattr(codec, "struct_bytes", recording)
    values = [value for value, _ in _signed_values(root, member)]
    for name in ("S1", "S2", "S3", "S4", "S5"):
        assert run_scenario_with_world(name, demo_config)[0].passed
    assert signed_types == {type(v) for v in values}
    for cls in signed_types:
        assert dataclasses.fields(cls)[-1].name in SIGNATURE_FIELDS, cls


@pytest.mark.parametrize("name", ["S1", "S2"])
def test_ids_derived_from_the_wire_are_the_ones_the_trace_names(
        demo_config, name):
    # Ids are never carried: each receiver derives them from the values
    # it decodes, and they are the short ids the sender's trace names. An
    # answer's id is derived once it is rebuilt on the request it answers
    # and the transaction key its originator pays.
    trace, world = run_scenario_with_world(name, demo_config)
    derived = {"payload": set(), "token": set(), "receipt": set()}
    requests = {}  # by channel and seq, which answers name
    for frame in wire_frames(world.sim):
        body = frame.body
        if getattr(body, "signed", None) is not None:
            payload = body.signed.payload
            requests[frame.ch, frame.seq] = payload
            derived["payload"].add(payload.payload_id.hex()[:16])
        if getattr(body, "answer", None) is not None:
            request = requests[frame.ch, body.answers]
            paid = world.trust.members[request.beneficiary_vasp_number]
            answer = travel_rule.rebuild_answer(
                request, body.answer, paid.transaction.subject_public_key)
            derived["payload"].add(answer.payload.payload_id.hex()[:16])
        if getattr(body, "token", None) is not None:
            derived["token"].add(body.token.token_id.hex()[:16])
        if getattr(body, "receipt", None) is not None:
            derived["receipt"].add(body.receipt.receipt_id.hex()[:16])
    # The short ids the trace names (claims_fetched's receipt=yes is none).
    named = {key: {e.get(key) for e in trace.events
                   if re.fullmatch("[0-9a-f]{16}", e.get(key) or "")}
             for key in derived}
    assert any(derived.values())
    assert derived == named


# -- generated encoders: refusals at depth, header boundaries, recursion --------

class Stranger(Enum):
    X = "x"


def _declared_name(typ) -> str:
    return typ.__name__ if isinstance(typ, type) else str(typ)


def _wrong_values(typ) -> list:
    """(wrong value, the codec's refusal) for a field declared ``typ``: None
    where it is not optional, a bool for an int, a bytearray for bytes, and
    a non-member for an enum or a union."""
    args = typing.get_args(typ)
    union = typing.get_origin(typ) in (typing.Union, types.UnionType)
    members = [a for a in args if a is not type(None)] if union else [typ]
    wrong = []
    if not union or len(members) == len(args):
        wrong.append((None, f"None not permitted for {_declared_name(typ)}"))
    if union and len(members) > 1:
        wrong.append((Stranger.X, f"Stranger is not a member of {typ}"))
    if len(members) == 1:  # an optional type refuses as its member does
        member = members[0]
        if member is int:
            wrong.append((True, "bool given for int"))
        if member is bytes:
            wrong.append((bytearray(b"x"), "bytearray given for bytes"))
        if isinstance(member, type) and issubclass(member, Enum):
            wrong.append((Stranger.X,
                          f"Stranger is not a member of {member.__name__}"))
    return wrong


def _field_paths(value, path=()):
    """(path, declared type) of every dataclass field held in ``value``, at
    every depth; a path names fields and sequence indexes."""
    if dataclasses.is_dataclass(value):
        hints = typing.get_type_hints(type(value))
        for f in dataclasses.fields(value):
            yield path + (f.name,), hints[f.name]
            yield from _field_paths(getattr(value, f.name), path + (f.name,))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _field_paths(item, path + (i,))


def _replace_at(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(head, int):
        items = list(value)
        items[head] = _replace_at(items[head], rest, new)
        return type(value)(items)
    return dataclasses.replace(
        value, **{head: _replace_at(getattr(value, head), rest, new)})


@pytest.mark.parametrize("body_type", BODY_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_wrong_typed_field_at_each_depth_refused_where_declared(body_type,
                                                                 data):
    # Each wrong value, in the frame or in any field of its body, at every
    # depth, is refused with the message naming the declared type there.
    # The reference refuses the bytearray and the non-members too; it
    # encodes None and a bool as themselves, being untyped there.
    body = data.draw(values_of(body_type))
    frame = messages.MessageBody
    assert codec.canonical_encode(body, frame) == reference_encode(body, frame)
    refused = 0
    for path, typ in [((), frame), *_field_paths(body)]:
        for wrong, refusal in _wrong_values(typ):
            bad = _replace_at(body, path, wrong)
            with pytest.raises(codec.CodecError) as raised:
                codec.canonical_encode(bad, frame)
            assert str(raised.value) == refusal, path
            if path:  # the body alone, encoded as its own class
                with pytest.raises(codec.CodecError, match=re.escape(refusal)):
                    codec.canonical_encode(bad)
            if wrong is Stranger.X or type(wrong) is bytearray:
                with pytest.raises(codec.CodecError):
                    reference_encode(bad, frame)
            refused += 1
    assert refused >= len(dataclasses.fields(body_type)) + 2


@dataclass(frozen=True)
class Blobs:
    items: list[bytes]


def _payload_of(n: int, rest: int) -> int:
    """The length of a str or bytes whose length, bytes and ``rest`` other
    bytes make ``n``: its length takes 1 byte below 128, else 2."""
    return n - rest - 1 if n - rest - 1 < 128 else n - rest - 2


@pytest.mark.parametrize("n", [127, 128, 16_383, 16_384])
def test_frame_length_boundaries_match_reference(n):
    # Values whose payload is n bytes, for a str, bytes, a struct and a
    # list: one length byte below 128, two below 16,384, else three.
    header = 1 if n < 128 else 2 if n < 16_384 else 3
    values = [("é" * (n // 2) + "x" * (n % 2), str), (b"b" * n, bytes),
              (Inner("x" * _payload_of(n, 1), ()), Inner),  # a str and ()
              ([b"b" * _payload_of(n, 0)], list[bytes])]
    for value, typ in values:
        blob = codec.canonical_encode(value, typ)
        assert blob == reference_encode(value, typ)
        assert len(blob) == header + n
        assert codec.canonical_decode(blob, typ) == value
    for value in (Blobs(values[3][0]), Blobs([b"b" * n])):
        assert codec.canonical_encode(value) == reference_encode(value)
    # The signing input's lengths and its first field's are read back too.
    inner = values[2][0]
    tbs = codec.struct_bytes(inner)
    assert codec.sealed_bytes(inner, tbs) == codec.canonical_encode(inner)
    assert codec.first_field(Inner, tbs) == codec.canonical_encode(inner.label)


@labelled
@dataclass(frozen=True)
class Tree:
    label: str
    children: tuple[Tree, ...]
    parent: Tree | None


def test_self_referential_dataclass_encodes():
    leaf = Tree("leaf", (), None)
    tree = Tree("root", (leaf, Tree("mid", (leaf,), leaf)), Tree("up", (), None))
    blob = codec.canonical_encode(tree)
    assert blob == reference_encode(tree)
    assert codec.canonical_decode(blob, Tree) == tree
    assert codec.struct_bytes(tree) == _reference_signing_input(tree)
    with pytest.raises(codec.CodecError, match="^int given for str$"):
        codec.canonical_encode(Tree("root", (Tree(5, (), None),), None))
    with pytest.raises(codec.CodecError, match="^str given for Tree$"):
        codec.canonical_encode(Tree("root", (), Tree("up", (), "leaf")))


def test_each_type_is_compiled_once_into_its_own_encoder(monkeypatch):
    # A nested dataclass, a union and a sequence's item each call their own
    # type's encoder, so a type's source is written and compiled once
    # however many types hold it: generating the frame's encoder encodes
    # one struct per compiled source, and compiles each dataclass once.
    sources = []

    def recording(source, *rest):
        sources.append(source)
        return compile(source, *rest)
    monkeypatch.setattr(codec, "_ENCODERS", {})
    monkeypatch.setattr(codec, "compile", recording, raising=False)
    codec._encoder(messages.MessageBody)
    # A struct refuses another class with its own name, quoted.
    per_source = [re.findall(r"else _refuse\(v, '(\w+)'\)", s) for s in sources]
    structs = [name for names in per_source for name in names]
    assert all(len(names) <= 1 for names in per_source)
    assert len(structs) == len(set(structs)) > len(BODY_TYPES)
