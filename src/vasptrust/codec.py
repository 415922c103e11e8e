"""Canonical byte encoding for protocol values.

Every wire format in this package is the canonical encoding of a declared
dataclass. The encoding is deterministic and injective: values of the same
type produce equal bytes iff they are equal, and decoding always reproduces
the original value. Framing is one tag byte + the payload length as an
unsigned LEB128 varint (1-5 bytes) + payload; lengths and integers are
minimal, integers big-endian; the decoder rejects every non-canonical form
(longer lengths or ints, bad UTF-8, unknown tags, trailing bytes) so that
decode(encode(v)) == v and re-encoding reproduces the input bytes.

Encoding runs through one closure per type, built on first use from the
declared field types and cached, so the per-value cost is a class check and
the framing, not a walk over the type's annotations. Encoding keeps
nothing on a value: ``seal`` gives back its signing input, and a party
derives ids and records from the signing input it holds (``sealed_bytes``,
``first_field``), never from its sender's object.

One rule decides what encodes: a value encodes only as its declared type.
Where a class is declared the value must be exactly that class, where an
enum or a union is declared a member of it, and None only where the type
is optional; the decoder requires the same. So a bool for an int, an enum
member for a str, a bytearray for bytes or a list for a tuple is refused
with CodecError wherever it appears. A value with no declared type (the
argument of ``canonical_encode``, an item of an untyped sequence) is
declared as its own class: a member of a str- or int-valued enum encodes
as that enum, and a bytearray, or another subclass of a builtin that is
no enum, is refused.

Every signed value declares its signature as its last field, and its
signing input is ``struct_bytes``: the canonical struct of every field but
the last. ``seal`` signs a draft over those bytes into its last field, and
``unseal`` gives back a signed value's signing input and signature. A
content id (of a payload, claim, token, receipt or ledger transaction) is
the digest of those bytes, derived, never carried.

Enum members and union members are tagged by declaration index, as ASN.1
numbers the alternatives of a CHOICE and DER encodes an ENUMERATED value
(ITU-T X.680, X.690 §8.4). An enum value is a TAG_ENUM frame around its
member's 0-based index in the class's declared order, as a minimal
big-endian uint (index 0 has an empty payload). A union value is a
TAG_UNION frame holding its member's 0-based index among the union's
non-None members, in declared order, as a TAG_UINT frame, followed by the
value's encoding. Only a member of the declared enum encodes where that
enum is declared, and the decoder refuses an index past the last member or
one not written minimally. So new members go at the end: inserting or
reordering a member changes the wire bytes of every later member, and the
pinned wire and trace digests catch it.

No floating point is representable on purpose.
"""

from __future__ import annotations

import dataclasses
import types
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, Union, get_args, get_origin, get_type_hints

_UNION_ORIGINS = (Union, types.UnionType)

TAG_UINT = 0x01
TAG_BYTES = 0x02
TAG_STR = 0x03
TAG_BOOL = 0x04
TAG_NONE = 0x05
TAG_LIST = 0x06
TAG_STRUCT = 0x07
TAG_ENUM = 0x08
TAG_UNION = 0x09

_MAX_LEN = 2**32 - 1
# tag -> length -> header, for each length a one-byte varint holds
_SHORT = [[bytes((tag, n)) for n in range(0x80)] for tag in range(TAG_UNION + 1)]


class CodecError(Exception):
    """Value cannot be canonically encoded."""


class DecodeError(CodecError):
    """Bytes are not a canonical encoding of the expected type."""


def _frame(tag: int, payload: bytes) -> bytes:
    """Tag byte + the payload length as a minimal LEB128 varint + payload."""
    n = len(payload)
    if n < 0x80:
        return _SHORT[tag][n] + payload
    if n > _MAX_LEN:
        raise CodecError("payload too large for framing")
    header = [tag]
    while n >= 0x80:
        header.append(n & 0x7F | 0x80)
        n >>= 7
    return bytes(header + [n]) + payload


@lru_cache(maxsize=None)
def _hints(cls: type) -> tuple[tuple[str, Any], ...]:
    resolved = get_type_hints(cls)
    return tuple((f.name, resolved[f.name]) for f in dataclasses.fields(cls))


def _union_members(typ: Any) -> tuple[bool, list[Any]]:
    """Split a Union into (allows_none, non-None member list)."""
    members = [a for a in get_args(typ) if a is not type(None)]
    return len(members) < len(get_args(typ)), members


# -- encoding ------------------------------------------------------------------
#
# Each type gets one encoder closure, built on first use and cached: a class
# by the class (the encoder used for an undeclared value of that class), a
# declared union, list or tuple type by the annotation. Each checks the
# value's class first and refuses (``_refuse``) a value of any other class.

Encoder = Callable[[Any], bytes]

_NONE = _frame(TAG_NONE, b"")
_TRUE = _frame(TAG_BOOL, b"\x01")
_FALSE = _frame(TAG_BOOL, b"\x00")
_SMALL_INTS = tuple(_frame(TAG_UINT, bytes([i]) if i else b"") for i in range(256))

_ENCODERS: dict[Any, Encoder] = {}
_STRUCTS: dict[tuple[type, bool], Encoder] = {}


def _refuse(value: Any, typ: Any) -> bytes:
    """Refuse ``value``, which is not of its declared type ``typ``."""
    if value is None:
        raise CodecError(f"None not permitted for {typ}")
    raise CodecError(f"{type(value).__name__} given for {typ}")


def _encode_any(value: Any) -> bytes:
    encode = _ENCODERS.get(type(value))
    if encode is None:
        encode = _encoder(type(value))
    return encode(value)


def _encode_none(value: Any) -> bytes:
    return _NONE if value is None else _refuse(value, "None")


def _encode_bool(value: Any) -> bytes:
    if value is True:
        return _TRUE
    if value is False:
        return _FALSE
    return _refuse(value, "bool")


def _uint(value: int) -> bytes:
    """Minimal big-endian bytes of a non-negative int; 0 is empty."""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def _encode_int(value: Any) -> bytes:
    if type(value) is not int:
        return _refuse(value, "int")
    if 0 <= value < 256:
        return _SMALL_INTS[value]
    if value < 0:
        raise CodecError("negative integers are not encodable")
    return _frame(TAG_UINT, _uint(value))


def _encode_bytes(value: Any) -> bytes:
    if type(value) is not bytes:
        return _refuse(value, "bytes")
    n = len(value)
    return _SHORT[TAG_BYTES][n] + value if n < 0x80 else _frame(TAG_BYTES, value)


def _encode_str(value: Any) -> bytes:
    if type(value) is not str:
        return _refuse(value, "str")
    n = len(data := value.encode("utf-8"))  # UTF-8 bytes, not characters
    return _SHORT[TAG_STR][n] + data if n < 0x80 else _frame(TAG_STR, data)


_SCALARS: dict[type, Encoder] = {
    type(None): _encode_none, bool: _encode_bool, int: _encode_int,
    bytes: _encode_bytes, str: _encode_str}


def _encoder(typ: Any) -> Encoder:
    encode = _ENCODERS.get(typ)
    if encode is None:
        encode = _ENCODERS[typ] = _build(typ)
    return encode


def _build(typ: Any) -> Encoder:
    origin = get_origin(typ)
    if origin in _UNION_ORIGINS:
        return _build_union(typ)
    if origin in (list, tuple):
        return _build_sequence(typ, origin)
    if isinstance(typ, type):
        return _build_class(typ)
    return _encode_any


def _build_class(cls: type) -> Encoder:
    if cls in _SCALARS:
        return _SCALARS[cls]
    if issubclass(cls, Enum):
        # Member name -> the frame of its declaration index.
        names = {m._name_: _frame(TAG_ENUM, _uint(i)) for i, m in enumerate(cls)}

        def encode_enum(value: Any) -> bytes:
            if type(value) is cls:
                return names[value._name_]
            if value is None:
                return _refuse(value, cls.__name__)
            raise CodecError(
                f"{type(value).__name__} is not a member of {cls.__name__}")
        return encode_enum
    if dataclasses.is_dataclass(cls):
        return _struct(cls, False)

    def encode_other(value: Any) -> bytes:
        if type(value) is not cls:
            return _refuse(value, cls.__name__)
        if cls is list or cls is tuple:
            return _frame(TAG_LIST, b"".join(map(_encode_any, value)))
        raise CodecError(f"cannot canonically encode {cls.__name__}")
    return encode_other


def _member_tags(members: list[Any]) -> dict[type, bytes]:
    """Union member class -> the encoded index that tags its values. A
    member that is not a class (``list[int]``) matches no value's class."""
    return {m: _encode_int(i) for i, m in enumerate(members)
            if isinstance(m, type)}


def _build_union(typ: Any) -> Encoder:
    allows_none, members = _union_members(typ)
    if len(members) == 1:
        inner = _encoder(members[0])
        return lambda value: _NONE if value is None else inner(value)
    tagged = {m: (tag, _encoder(m)) for m, tag in _member_tags(members).items()}

    def encode_union(value: Any) -> bytes:
        entry = tagged.get(type(value))
        if entry is None:
            if value is not None:
                raise CodecError(
                    f"{type(value).__name__} is not a member of {typ}")
            if not allows_none:
                raise CodecError(f"None not permitted for {typ}")
            return _NONE
        tag, encode = entry
        return _frame(TAG_UNION, tag + encode(value))
    return encode_union


def _build_sequence(typ: Any, origin: type) -> Encoder:
    args = get_args(typ)
    if origin is list or (len(args) == 2 and args[1] is Ellipsis):
        item = _encoder(args[0]) if args else _encode_any

        def encode_items(value: Any) -> bytes:
            if type(value) is not origin:
                return _refuse(value, typ)
            return _frame(TAG_LIST, b"".join(map(item, value)))
        return encode_items
    items = tuple(_encoder(a) for a in args)

    def encode_fixed(value: Any) -> bytes:
        if type(value) is not tuple:
            return _refuse(value, typ)
        if len(value) != len(items):
            raise CodecError(f"tuple arity mismatch for {typ}")
        return _frame(TAG_LIST, b"".join(
            [encode(v) for encode, v in zip(items, value)]))
    return encode_fixed


def _struct(cls: type, signing: bool) -> Encoder:
    """Encoder of dataclass ``cls``: of every field, or, for its signing
    input, of every field but the last."""
    key = (cls, signing)
    encode = _STRUCTS.get(key)
    if encode is not None:
        return encode
    hints = _hints(cls)[:-1] if signing else _hints(cls)
    names = [name for name, _ in hints]
    get = attrgetter(*names) if len(names) > 1 else (
        lambda value: tuple(getattr(value, n) for n in names))
    encoders: tuple[Encoder, ...]  # built after registration

    def encode_struct(value: Any) -> bytes:
        if type(value) is not cls:
            return _refuse(value, cls.__name__)
        body = b"".join([encode(v) for encode, v in zip(encoders, get(value))])
        n = len(body)
        return _SHORT[TAG_STRUCT][n] + body if n < 0x80 else _frame(TAG_STRUCT, body)

    # Registered before its fields are built, so a type that contains
    # itself finds this encoder.
    encode = _STRUCTS[key] = encode_struct
    encoders = tuple(_encoder(typ) for _, typ in hints)
    return encode


def canonical_encode(value: Any) -> bytes:
    """Encode a domain value to its canonical, injective byte form."""
    return _encode_any(value)


def struct_bytes(value: Any) -> bytes:
    """The signing input of a dataclass value: the canonical struct of
    every field but the last. Every signed type declares its signature
    last, and every content id is the digest of these bytes."""
    encode = _STRUCTS.get((type(value), True))
    if encode is None:
        if not dataclasses.is_dataclass(type(value)):
            raise CodecError("struct_bytes requires a dataclass instance")
        encode = _struct(type(value), True)
    return encode(value)


def seal(draft: Any, sign: Callable[[bytes], Any]) -> tuple[Any, bytes]:
    """``draft`` with its last field, its signature, set to ``sign`` of
    its signing input; and that signing input."""
    tbs = struct_bytes(draft)
    last = _hints(type(draft))[-1][0]
    return dataclasses.replace(draft, **{last: sign(tbs)}), tbs


def sealed_bytes(value: Any, tbs: bytes) -> bytes:
    """Signed ``value``'s canonical bytes, re-headed from its signing input."""
    last, typ = _hints(type(value))[-1]
    return _frame(TAG_STRUCT, tbs[_read_header(tbs, 0)[2]:]
                  + _encoder(typ)(getattr(value, last)))


def first_field(data: bytes) -> bytes:
    """The bytes of the first field of the struct, or signing input, ``data``."""
    _, length, end = _read_header(data, start := _read_header(data, 0)[2])
    return data[start:end + length]


def unseal(value: Any) -> tuple[bytes, Any]:
    """The signing input of signed ``value``, and its signature."""
    return struct_bytes(value), getattr(value, _hints(type(value))[-1][0])


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take_frame(self) -> tuple[int, bytes]:
        tag, length, start = _read_header(self.data, self.pos)
        if start + length > len(self.data):
            raise DecodeError("truncated frame payload")
        self.pos = start + length
        return tag, self.data[start:start + length]

    def done(self) -> bool:
        return self.pos == len(self.data)


def _read_header(data: bytes, pos: int) -> tuple[int, int, int]:
    """Tag and length of the frame at ``data[pos]``, and where its payload
    starts. A length is read only from its minimal varint, up to _MAX_LEN."""
    length = 0
    for i in range(pos + 1, pos + 6):
        if i >= len(data):
            raise DecodeError("truncated frame header")
        byte = data[i]
        length |= (byte & 0x7F) << 7 * (i - pos - 1)
        if byte < 0x80:
            if (byte == 0 and i > pos + 1) or length > _MAX_LEN:
                raise DecodeError("non-minimal or oversized frame length")
            return data[pos], length, i + 1
    raise DecodeError("frame length varint longer than 5 bytes")


def _expect(reader: _Reader, tag: int) -> bytes:
    got, payload = reader.take_frame()
    if got != tag:
        raise DecodeError(f"expected tag {tag:#x}, found {got:#x}")
    return payload


def _decode_uint(payload: bytes) -> int:
    if payload and payload[0] == 0:
        raise DecodeError("non-minimal integer encoding")
    return int.from_bytes(payload, "big")


def _decode_index(payload: bytes, count: int, typ: Any) -> int:
    """A member's declaration index, which must name one of ``count``."""
    index = _decode_uint(payload)
    if index >= count:
        raise DecodeError(f"index {index} past the last member of {typ}")
    return index


def _decode(reader: _Reader, typ: Any) -> Any:
    origin = get_origin(typ)

    if origin in _UNION_ORIGINS:
        allows_none, members = _union_members(typ)
        tag = reader.data[reader.pos] if reader.pos < len(reader.data) else -1
        if tag == TAG_NONE:
            if not allows_none:
                raise DecodeError(f"unexpected None for {typ}")
            if _expect(reader, TAG_NONE):
                raise DecodeError("None carries no payload")
            return None
        if len(members) == 1:
            return _decode(reader, members[0])
        payload = _expect(reader, TAG_UNION)
        inner = _Reader(payload)
        index = _decode_index(_expect(inner, TAG_UINT), len(members), typ)
        value = _decode(inner, members[index])
        if not inner.done():
            raise DecodeError("trailing bytes inside union")
        return value

    if origin in (list, tuple):
        payload = _expect(reader, TAG_LIST)
        inner = _Reader(payload)
        args = get_args(typ)
        if origin is list or (len(args) == 2 and args[1] is Ellipsis):
            items = []
            while not inner.done():
                items.append(_decode(inner, args[0] if args else bytes))
            return items if origin is list else tuple(items)
        items = [_decode(inner, t) for t in args]
        if not inner.done():
            raise DecodeError("trailing bytes inside tuple")
        return tuple(items)

    if typ is bool:
        payload = _expect(reader, TAG_BOOL)
        if payload not in (b"\x00", b"\x01"):
            raise DecodeError("non-canonical bool")
        return payload == b"\x01"
    if typ is int:
        return _decode_uint(_expect(reader, TAG_UINT))
    if typ is bytes:
        return _expect(reader, TAG_BYTES)
    if typ is str:
        try:
            return _expect(reader, TAG_STR).decode("utf-8", errors="strict")
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid UTF-8 in string") from exc
    if isinstance(typ, type) and issubclass(typ, Enum):
        members = list(typ)
        return members[_decode_index(_expect(reader, TAG_ENUM), len(members),
                                     typ)]
    if dataclasses.is_dataclass(typ):
        payload = _expect(reader, TAG_STRUCT)
        inner = _Reader(payload)
        kwargs = {name: _decode(inner, field_type) for name, field_type in _hints(typ)}
        if not inner.done():
            raise DecodeError(f"trailing bytes inside {typ.__name__}")
        return typ(**kwargs)
    raise DecodeError(f"no decoder for type {typ!r}")


def canonical_decode(data: bytes, cls: Any) -> Any:
    """Decode canonical bytes back into a value of the declared type."""
    reader = _Reader(data)
    value = _decode(reader, cls)
    if not reader.done():
        raise DecodeError("trailing bytes after value")
    return value

