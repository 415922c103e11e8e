"""Canonical byte encoding for protocol values.

Every wire format in this package is the canonical encoding of a declared
dataclass. The encoding is deterministic and injective: values of the same
type produce equal bytes iff they are equal, and decoding always reproduces
the original value. Framing is one tag byte + the payload length as an
unsigned LEB128 varint (1-5 bytes) + payload; lengths and integers are
minimal, integers big-endian; the decoder rejects every non-canonical form
(longer lengths or ints, bad UTF-8, unknown tags, trailing bytes) so that
decode(encode(v)) == v and re-encoding reproduces the input bytes.

Each declared type encodes through one function, generated on first use
as source from the declared field types, compiled and cached, as
``dataclasses`` generates ``__init__``. Its one expression encodes
scalars, enums and optionals in line, so such a field costs no call; a
nested dataclass, a union and a sequence's item each call the one cached
encoder of their own type, so each type's source is written and compiled
once. Every class check stays in the generated code: each value is
checked against its declared class before it is framed. Encoding keeps nothing on a value: ``seal`` gives back
its signing input, and a party derives ids and records from the signing
input it holds (``sealed_bytes``, ``first_field``), never from its
sender's object.

One rule decides what encodes: a value encodes only as its declared type.
Where a class is declared the value must be exactly that class, where an
enum or a union is declared a member of it, and None only where the type
is optional; the decoder requires the same. So a bool for an int, an enum
member for a str, a bytearray for bytes or a list for a tuple is refused
with CodecError wherever it appears. A value with no declared type (an
untyped argument of ``canonical_encode``, an item of an untyped sequence) is
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
# Each declared type, and each dataclass's signing input, gets one encoder
# (``_generate``). A class is its own declared type, so its encoder is also
# the one for an undeclared value of it. A value of a class other than the
# declared one goes to the helper that refuses it with the type's message
# (``_refuse``, ``_arity``, ``_cannot``).

Encoder = Callable[[Any], bytes]

_NONE = _frame(TAG_NONE, b"")
_TRUE = _frame(TAG_BOOL, b"\x01")
_FALSE = _frame(TAG_BOOL, b"\x00")
_SMALL_INTS = tuple(_frame(TAG_UINT, bytes([i]) if i else b"") for i in range(256))

_ENCODERS: dict[Any, Encoder] = {}  # declared type -> encoder
_SIGNING_INPUTS: dict[type, Encoder] = {}  # dataclass -> its signing input's


def _refuse(value: Any, typ: Any, why: str = "given for") -> bytes:
    """Refuse ``value``, which is not of its declared type ``typ``: ``why``
    is "is not a member of" where ``typ`` is an enum or a union."""
    if value is None:
        raise CodecError(f"None not permitted for {typ}")
    raise CodecError(f"{type(value).__name__} {why} {typ}")


def _arity(value: Any, typ: Any) -> bytes:
    """Refuse ``value`` where the fixed tuple type ``typ`` is declared."""
    if type(value) is not tuple:
        return _refuse(value, typ)
    raise CodecError(f"tuple arity mismatch for {typ}")


def _cannot(cls: type) -> bytes:
    """Refuse any value where ``cls``, a class with no encoding, is declared."""
    raise CodecError(f"cannot canonically encode {cls.__name__}")


def _encode_any(value: Any) -> bytes:
    return (_ENCODERS.get(type(value)) or _encoder(type(value)))(value)


def _uint(value: int) -> bytes:
    """Minimal big-endian bytes of a non-negative int; 0 is empty."""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def _encode_int(value: Any) -> bytes:
    if type(value) is not int:
        return _refuse(value, "int")
    if value < 0:
        raise CodecError("negative integers are not encodable")
    return _frame(TAG_UINT, _uint(value))


def _encode_bytes(value: Any) -> bytes:
    if type(value) is not bytes:
        return _refuse(value, "bytes")
    return _frame(TAG_BYTES, value)


def _encode_str(value: Any) -> bytes:
    if type(value) is not str:
        return _refuse(value, "str")
    return _frame(TAG_STR, value.encode())


def _encoder(typ: Any, signing: bool = False) -> Encoder:
    cache = _SIGNING_INPUTS if signing else _ENCODERS
    encode = cache.get(typ)
    if encode is None:
        # The stand-in a type that contains itself calls, while its own
        # encoder is generated.
        cache[typ] = lambda value: cache[typ](value)
        try:
            encode = _generate(typ, signing)
        finally:
            del cache[typ]
        cache[typ] = encode
    return encode


# Expressions of a scalar held in ``{var}``, evaluated first as ``{val}``.
_SCALARS = {
    type(None): "(_NONE if {val} is None else _refuse({var}, 'None'))",
    bool: "(_TRUE if {val} is True else _FALSE if {var} is False "
          "else _refuse({var}, 'bool'))",
    int: "(_SMALL_INTS[{var}] if type({val}) is int and 0 <= {var} < 256 "
         "else _encode_int({var}))",
    bytes: f"(_S{TAG_BYTES}[n] + {{var}} if type({{val}}) is bytes and "
           "(n := len({var})) < 128 else _encode_bytes({var}))",
    # The length of a str is counted in UTF-8 bytes, not characters.
    str: f"(_S{TAG_STR}[n] + d if type({{val}}) is str and "
         "(n := len(d := {var}.encode())) < 128 else _encode_str({var}))"}


def _generate(typ: Any, signing: bool) -> Encoder:
    """Compile the encoder of declared type ``typ``, or of the signing input
    of dataclass ``typ``: one expression, which encodes scalars, enums and
    optionals in line and calls the encoder of any other type it contains
    (a dataclass, a union, a sequence's item). The source is built from
    declared types and field names alone, never from a value."""
    env = {**globals(), **{f"_S{tag}": row for tag, row in enumerate(_SHORT)}}

    def const(obj: Any) -> str:
        env[name := f"_k{len(env)}"] = obj
        return name

    def framed(tag: int, parts: list[str]) -> str:
        body = f"b''.join(({', '.join(parts)},))" if len(parts) > 1 else \
            parts[0] if parts else "b''"
        return (f"(_S{tag}[n] + b if (n := len(b := {body})) < 128 "
                f"else _frame({tag}, b))")

    def inline(typ: Any, expr: str, var: str = "x") -> str:
        """The expression encoding the value of ``expr`` as declared type
        ``typ``; where that value is read more than once, from ``var``."""
        val = expr if expr == var else f"({var} := {expr})"
        if typ in _SCALARS:
            return _SCALARS[typ].format(val=val, var=var)
        if isinstance(typ, type) and issubclass(typ, Enum):
            names = {m._name_: _frame(TAG_ENUM, _uint(i)) for i, m in enumerate(typ)}
            return (f"({const(names)}[{var}._name_] if type({val}) is {const(typ)} "
                    f"else _refuse({var}, {typ.__name__!r}, 'is not a member of'))")
        if get_origin(typ) in _UNION_ORIGINS and \
                len(members := _union_members(typ)[1]) == 1:
            return f"(_NONE if {val} is None else {inline(members[0], var, var)})"
        return f"{const(_encoder(typ))}({expr})"

    def struct(cls: type, hints) -> str:
        parts = [inline(t, f"v.{name}") for name, t in hints]
        return (f"({framed(TAG_STRUCT, parts)} if type(v) is {const(cls)} "
                f"else _refuse(v, {cls.__name__!r}))")

    def body(typ: Any) -> str:
        """The expression encoding ``v`` as declared type ``typ``."""
        origin, args = get_origin(typ), get_args(typ)
        if origin in _UNION_ORIGINS:
            allows_none, members = _union_members(typ)
            if len(members) == 1:
                return inline(typ, "v", "v")
            arms, test = "", "(t := type(v))"
            for i, member in enumerate(members):
                if isinstance(member, type):  # a class a value can have
                    arm = framed(TAG_UNION, [
                        f"{const(_encode_int(i))} + {const(_encoder(member))}(v)"])
                    arms += f"{arm} if {test} is {const(member)} else "
                    test = "t"
            none = "_NONE if v is None else " if allows_none else ""
            return f"({arms}{none}_refuse(v, {const(typ)}, 'is not a member of'))"
        if origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
            items = [inline(t, f"v[{i}]") for i, t in enumerate(args)]
            return (f"({framed(TAG_LIST, items)} if type(v) is tuple and "
                    f"len(v) == {len(args)} else _arity(v, {const(typ)}))")
        if origin in (list, tuple) or typ in (list, tuple):
            item = const(_encoder(args[0]) if args else _encode_any)
            items = f"b''.join(map({item}, v))"
            return (f"({framed(TAG_LIST, [items])} if type(v) is "
                    f"{(origin or typ).__name__} else "
                    f"_refuse(v, {const(typ if args else typ.__name__)}))")
        if dataclasses.is_dataclass(typ):
            return struct(typ, _hints(typ))
        if typ in _SCALARS or isinstance(typ, type) and issubclass(typ, Enum):
            return inline(typ, "v", "v")
        if isinstance(typ, type):
            return f"_cannot({const(typ)})"
        return "_encode_any(v)"

    source = struct(typ, _hints(typ)[:-1]) if signing else body(typ)
    kind = "signing_input" if signing else "encode"
    name = f"{kind}_{getattr(typ, '__name__', 'value')}"
    exec(compile(f"def {name}(v):\n    return {source}\n", __file__, "exec"), env)
    return env[name]


def canonical_encode(value: Any, cls: Any = None) -> bytes:
    """Encode a domain value to its canonical, injective byte form, as
    declared type ``cls``, by default its own class."""
    return _encode_any(value) if cls is None else _encoder(cls)(value)


def struct_bytes(value: Any) -> bytes:
    """The signing input of a dataclass value: the canonical struct of
    every field but the last. Every signed type declares its signature
    last, and every content id is the digest of these bytes."""
    encode = _SIGNING_INPUTS.get(type(value))
    if encode is None:
        if not dataclasses.is_dataclass(type(value)):
            raise CodecError("struct_bytes requires a dataclass instance")
        encode = _encoder(type(value), True)
    return encode(value)


def with_last(value: Any, last: Any) -> Any:
    """Dataclass ``value`` with its last field set to ``last``."""
    return type(value)(*[getattr(value, n) for n, _ in _hints(type(value))[:-1]], last)


def seal(draft: Any, sign: Callable[[bytes], Any]) -> tuple[Any, bytes]:
    """``draft`` with its last field, its signature, set to ``sign`` of
    its signing input; and that signing input."""
    tbs = struct_bytes(draft)
    return with_last(draft, sign(tbs)), tbs


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

