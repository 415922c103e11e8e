"""Canonical byte encoding for protocol values.

Every wire format in this package is the canonical encoding of a declared
dataclass. The encoding is deterministic and injective: values of one
declared type produce equal bytes iff they are equal, and decoding always
reproduces the original value. No byte names a type: the declared schema
types every field, as TLS's presentation language does (RFC 8446 §3). It
is built on one primitive, the minimal unsigned LEB128 varint:
- an int is its varint, of any size;
- a str or bytes value is its length as a varint, then its (UTF-8) bytes;
- a bool is one byte, 0 or 1;
- an enum member is its 0-based declaration index as a varint, as DER
  encodes an ENUMERATED value (ITU-T X.690 §8.4); a union value is its
  member's index among the union's non-None members, then the value as
  that member, as ASN.1 numbers the alternatives of a CHOICE (X.680);
- ``T | None`` is a presence byte, 0 or 1, then ``T`` where it is 1;
- a struct (a dataclass) or a sequence is its byte length as a varint,
  then its fields, in declared order, or its items.
The decoder refuses every other form with DecodeError: a non-minimal
varint, a presence or bool byte other than 0 or 1, an index past the last
member, bad UTF-8, a length that runs past its frame or that its contents
do not fill, and trailing bytes. So bytes that decode re-encode to
themselves. New enum and union members go at the end: inserting or
reordering one changes the bytes of every later member, and the pinned
wire and trace digests catch it. No floating point is representable.

Each declared type encodes through one function, generated on first use
as source from the declared field types, compiled and cached, as
``dataclasses`` generates ``__init__``. Its one expression encodes
scalars, enums, optionals and empty sequences in line, so such a field
costs no call; a nested dataclass, a union and a sequence each call the
one cached encoder of their own type, so each type's source is written
and compiled once. Every class check stays in the generated code. One
interpreter decodes every declared type, read off the type as it goes.

One rule decides what encodes: a value encodes only as its declared type.
Where a class is declared the value must be exactly that class, where an
enum or a union is declared a member of it, and None only where the type
is optional; the decoder requires the same. So a bool for an int, an enum
member for a str, a bytearray for bytes, a list for a tuple, or a
sequence whose items no type declares, is refused with CodecError
wherever it appears. A value with no declared type (an untyped argument
of ``canonical_encode``) is declared as its own class: a member of a str-
or int-valued enum encodes as that enum, and a bytearray, or another
subclass of a builtin that is no enum, is refused.

Every signed type declares its signature as its last field, and its label
once, in ``LABELS``. Its signing input, ``struct_bytes``, is the label as
a str, then the struct of every field but the last: what is signed says
what it is (Abadi and Needham's Principle 1), as TLS 1.3's
CertificateVerify signs a context string (RFC 8446 §4.4.3). The labels
differ and open with their lengths, so no signing input of one type
equals, or starts with, one of another. ``seal`` signs a draft over its
signing input into its last field; ``unseal`` gives back a signed value's
signing input and signature. The content id of a token, a receipt or a
ledger transaction is the digest of those bytes, and a payload's the
digest of its own bytes, the first field of its ``SignedPayload``'s
signing input: derived, never carried. Encoding keeps nothing on a
value: a party derives ids and records from the signing input it holds,
whose struct length lets it re-head the value's bytes (``sealed_bytes``)
and slice its first field (``first_field``) without walking the schema,
where that field's bytes open with their length. A value whose fields'
bytes a party already holds is framed from them (``sequence_bytes``,
``member_bytes``), with no encode.
"""

from __future__ import annotations

import dataclasses
import types
from collections.abc import Sequence
from enum import Enum
from functools import lru_cache
from typing import Any, Callable, Union, get_args, get_origin, get_type_hints

_UNION_ORIGINS = (Union, types.UnionType)

# The label each signed type's signing input opens with, by the type's
# module and name: one per type, never reused, never changed.
LABELS = {
    "vasptrust.pki.EvIdentityCertificate": "vasptrust identity certificate",
    "vasptrust.pki.SigningCertificate": "vasptrust signing certificate",
    "vasptrust.pki.TreeHead": "vasptrust certificate tree head",
    "vasptrust.pki.RevocationList": "vasptrust revocation list",
    "vasptrust.resolver.IdentifierAdvertisement": "vasptrust advertisement",
    "vasptrust.travel_rule.SignedPayload": "vasptrust travel-rule payload",
    "vasptrust.ledger.LedgerTx": "vasptrust ledger transaction",
    "vasptrust.claims.SignedClaim": "vasptrust claim",
    "vasptrust.claims.AuthorizationToken": "vasptrust authorization token",
    "vasptrust.claims.ConsentReceipt": "vasptrust consent receipt",
    "vasptrust.wallet.AttestationEvidence": "vasptrust attestation evidence",
    "vasptrust.netsim.sim.PossessionProof": "vasptrust possession proof",
    "vasptrust.netsim.messages.ClaimsFetchRequest": "vasptrust claims fetch request",
}

# The varints of 0 to _TABLE - 1, made once: every length a frame of this
# package has, and most ints.
_TABLE = 0x800
_V = tuple(bytes((n,)) if n < 0x80 else bytes((n & 0x7F | 0x80, n >> 7))
           for n in range(_TABLE))
_ZERO, _ONE = _V[0], _V[1]


class CodecError(Exception):
    """Value cannot be canonically encoded."""


class DecodeError(CodecError):
    """Bytes are not a canonical encoding of the expected type."""


def _varint(n: int) -> bytes:
    """The minimal unsigned LEB128 varint of ``n``, a non-negative int."""
    if n < _TABLE:
        return _V[n]
    out = bytearray()
    while n >= 0x80:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


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
# Each declared type, and each signed type's signing input, gets one encoder
# (``_generate``). A class is its own declared type, so its encoder is also
# the one for an undeclared value of it. A value of a class other than the
# declared one goes to the helper that refuses it with the type's message
# (``_refuse``, ``_arity``, ``_cannot``).

Encoder = Callable[[Any], bytes]

_ENCODERS: dict[Any, Encoder] = {}  # declared type -> encoder
_SIGNING_INPUTS: dict[type, Encoder] = {}  # signed type -> its signing input's


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


def _cannot(name: str) -> bytes:
    """Refuse any value where ``name``, a type with no encoding, is declared."""
    raise CodecError(f"cannot canonically encode {name}")


def _encode_any(value: Any) -> bytes:
    return (_ENCODERS.get(type(value)) or _encoder(type(value)))(value)


def _encode_int(value: Any) -> bytes:
    if type(value) is not int:
        return _refuse(value, "int")
    if value < 0:
        raise CodecError("negative integers are not encodable")
    return _varint(value)


def _encode_bytes(value: Any) -> bytes:
    if type(value) is not bytes:
        return _refuse(value, "bytes")
    return _varint(len(value)) + value


def _encode_str(value: Any) -> bytes:
    if type(value) is not str:
        return _refuse(value, "str")
    return _encode_bytes(value.encode())


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


def _label(cls: type) -> str:
    label = LABELS.get(f"{cls.__module__}.{cls.__qualname__}")
    if label is None:
        raise CodecError(f"{cls.__name__} declares no signing label")
    return label


# Expressions of a scalar held in ``{var}``, evaluated first as ``{val}``.
_SCALARS = {
    bool: "(_ONE if {val} is True else _ZERO if {var} is False "
          "else _refuse({var}, 'bool'))",
    int: f"(_V[{{var}}] if type({{val}}) is int and 0 <= {{var}} < {_TABLE} "
         "else _encode_int({var}))",
    bytes: f"(_V[n] + {{var}} if type({{val}}) is bytes and "
           f"(n := len({{var}})) < {_TABLE} else _encode_bytes({{var}}))",
    # The length of a str is counted in UTF-8 bytes, not characters.
    str: f"(_V[n] + d if type({{val}}) is str and "
         f"(n := len(d := {{var}}.encode())) < {_TABLE} else _encode_str({{var}}))"}


def _generate(typ: Any, signing: bool) -> Encoder:
    """Compile the encoder of declared type ``typ``, or of the signing input
    of signed type ``typ``: one expression, which encodes scalars, enums
    and optionals in line and calls the encoder of any other type it
    contains (a dataclass, a union, a sequence's item). The source is
    built from declared types and field names alone, never from a value."""
    env = dict(globals())

    def const(obj: Any) -> str:
        env[name := f"_k{len(env)}"] = obj
        return name

    def framed(parts: list[str]) -> str:
        body = f"b''.join(({', '.join(parts)},))" if len(parts) > 1 else \
            parts[0] if parts else "b''"
        return (f"(_V[n] + b if (n := len(b := {body})) < {_TABLE} "
                f"else _varint(n) + b)")

    def inline(typ: Any, expr: str, var: str = "x") -> str:
        """The expression encoding the value of ``expr`` as declared type
        ``typ``; where that value is read more than once, from ``var``."""
        val = expr if expr == var else f"({var} := {expr})"
        if typ in _SCALARS:
            return _SCALARS[typ].format(val=val, var=var)
        if isinstance(typ, type) and issubclass(typ, Enum):
            names = {m._name_: _varint(i) for i, m in enumerate(typ)}
            return (f"({const(names)}[{var}._name_] if type({val}) is {const(typ)} "
                    f"else _refuse({var}, {typ.__name__!r}, 'is not a member of'))")
        origin, args = get_origin(typ), get_args(typ)
        if origin in _UNION_ORIGINS and len(members := _union_members(typ)[1]) == 1:
            return f"(_ZERO if {val} is None else _ONE + {inline(members[0], var, var)})"
        if origin is list and args or origin is tuple and args[1:] == (Ellipsis,):
            return (f"(_ZERO if type({val}) is {origin.__name__} and not {var} "
                    f"else {const(_encoder(typ))}({var}))")
        return f"{const(_encoder(typ))}({expr})"

    def struct(cls: type, hints) -> str:
        parts = [inline(t, f"v.{name}") for name, t in hints]
        return (f"({framed(parts)} if type(v) is {const(cls)} "
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
                    arms += (f"{const(_varint(i))} + {const(_encoder(member))}(v)"
                             f" if {test} is {const(member)} else ")
                    test = "t"
            arms = f"({arms}_refuse(v, {const(typ)}, 'is not a member of'))"
            return f"(_ZERO if v is None else _ONE + {arms})" if allows_none \
                else arms
        if origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
            items = [inline(t, f"v[{i}]") for i, t in enumerate(args)]
            return (f"({framed(items)} if type(v) is tuple and "
                    f"len(v) == {len(args)} else _arity(v, {const(typ)}))")
        if origin in (list, tuple) and args:  # a bare one falls to _cannot
            items = f"b''.join(map({const(_encoder(args[0]))}, v))"
            return (f"({framed([items])} if type(v) is {origin.__name__} "
                    f"else _refuse(v, {const(typ)}))")
        if dataclasses.is_dataclass(typ):
            return struct(typ, _hints(typ))
        if typ in _SCALARS or isinstance(typ, type) and issubclass(typ, Enum):
            return inline(typ, "v", "v")
        return f"_cannot({getattr(typ, '__name__', str(typ))!r})"

    if signing:
        source = f"{const(_encode_str(_label(typ)))} + {struct(typ, _hints(typ)[:-1])}"
    else:
        source = body(typ)
    kind = "signing_input" if signing else "encode"
    name = f"{kind}_{getattr(typ, '__name__', 'value')}"
    exec(compile(f"def {name}(v):\n    return {source}\n", __file__, "exec"), env)
    return env[name]


def canonical_encode(value: Any, cls: Any = None) -> bytes:
    """Encode a domain value to its canonical, injective byte form, as
    declared type ``cls``, by default its own class."""
    if cls is None:
        return _encode_any(value)
    return (_ENCODERS.get(cls) or _encoder(cls))(value)


def struct_bytes(value: Any) -> bytes:
    """The signing input of a value of a signed type: its label, then the
    struct of every field but the last. Every signed type declares its
    signature last."""
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


def unseal(value: Any) -> tuple[bytes, Any]:
    """The signing input of signed ``value``, and its signature."""
    return struct_bytes(value), getattr(value, _hints(type(value))[-1][0])


def _fields_start(tbs: bytes) -> int:
    """Where the fields of signing input ``tbs`` start: past its label and
    its struct's length."""
    return _length_at(tbs, _length_at(tbs, 0, len(tbs))[1], len(tbs))[0]


def sealed_bytes(value: Any, tbs: bytes) -> bytes:
    """Signed ``value``'s canonical bytes, re-headed from its signing input."""
    last, typ = _hints(type(value))[-1]
    fields = tbs[_fields_start(tbs):] + _encoder(typ)(getattr(value, last))
    return _varint(len(fields)) + fields


def first_field(cls: type, tbs: bytes) -> bytes:
    """The bytes of the first field of signing input ``tbs`` of signed type
    ``cls``. Only a field whose bytes open with their length slices: a
    struct, a sequence, a str or bytes; any other is refused."""
    name, typ = _hints(cls)[0]
    if not (typ in (str, bytes) or dataclasses.is_dataclass(typ)
            or get_origin(typ) in (list, tuple)):
        raise CodecError(f"{cls.__name__}.{name} does not open with its length")
    start = _fields_start(tbs)
    return tbs[start:_length_at(tbs, start, len(tbs))[1]]


def sequence_bytes(parts: Sequence[bytes]) -> bytes:
    """A sequence's or a struct's canonical bytes, from those of its items
    or fields, in order: their length, then them."""
    body = b"".join(parts)
    return _varint(len(body)) + body


def member_bytes(union: Any, cls: type, *fields: bytes) -> bytes:
    """The canonical bytes of a value of dataclass ``cls`` as its member of
    ``union``, a union of classes and not None, from its fields' bytes."""
    return _varint(get_args(union).index(cls)) + sequence_bytes(fields)


# -- decoding ------------------------------------------------------------------
#
# ``_decode`` reads one value of its declared type from ``data[pos:end]`` and
# returns it with the position after it; no read passes ``end``.


def _varint_at(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """The minimal varint at ``data[pos]``, and the position after it."""
    value = shift = 0
    while pos < end:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            if byte == 0 and shift:
                raise DecodeError("non-minimal varint")
            return value, pos
        shift += 7
    raise DecodeError("truncated varint")


def _length_at(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """The span a varint length at ``data[pos]`` opens: (start, stop)."""
    n, pos = _varint_at(data, pos, end)
    if n > end - pos:
        raise DecodeError("length runs past its frame")
    return pos, pos + n


def _flag_at(data: bytes, pos: int, end: int) -> tuple[bool, int]:
    """A bool or presence byte: 0 or 1."""
    if pos >= end:
        raise DecodeError("truncated frame")
    if data[pos] > 1:
        raise DecodeError(f"flag byte {data[pos]} is neither 0 nor 1")
    return data[pos] == 1, pos + 1


def _index_at(data: bytes, pos: int, end: int, count: int,
              typ: Any) -> tuple[int, int]:
    """A member's declaration index, which must name one of ``count``."""
    index, pos = _varint_at(data, pos, end)
    if index >= count:
        raise DecodeError(f"index {index} past the last member of {typ}")
    return index, pos


def _decode(data: bytes, pos: int, end: int, typ: Any) -> tuple[Any, int]:
    origin, args = get_origin(typ), get_args(typ)

    if origin in _UNION_ORIGINS:
        allows_none, members = _union_members(typ)
        if allows_none:
            present, pos = _flag_at(data, pos, end)
            if not present:
                return None, pos
        index = 0
        if len(members) > 1:
            index, pos = _index_at(data, pos, end, len(members), typ)
        return _decode(data, pos, end, members[index])

    if origin in (list, tuple) and args or dataclasses.is_dataclass(typ):
        pos, stop = _length_at(data, pos, end)
        values = []
        if origin is list or origin is tuple and args[-1] is Ellipsis:
            while pos < stop:  # a sequence: items fill its length
                value, pos = _decode(data, pos, stop, args[0])
                values.append(value)
            return (values if origin is list else tuple(values)), stop
        # A fixed tuple or a struct: its items, in order, fill its length.
        for field in args or [t for _, t in _hints(typ)]:
            value, pos = _decode(data, pos, stop, field)
            values.append(value)
        if pos != stop:
            raise DecodeError(f"trailing bytes inside {typ.__name__}")
        return (tuple(values) if origin is tuple else typ(*values)), stop

    if typ is int:
        return _varint_at(data, pos, end)
    if typ is bool:
        return _flag_at(data, pos, end)
    if typ is bytes or typ is str:
        start, stop = _length_at(data, pos, end)
        if typ is bytes:
            return data[start:stop], stop
        try:
            return data[start:stop].decode("utf-8", errors="strict"), stop
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid UTF-8 in string") from exc
    if isinstance(typ, type) and issubclass(typ, Enum):
        members = list(typ)
        index, pos = _index_at(data, pos, end, len(members), typ)
        return members[index], pos
    raise DecodeError(f"no decoder for type {typ!r}")


def canonical_decode(data: bytes, cls: Any) -> Any:
    """Decode canonical bytes back into a value of the declared type."""
    value, pos = _decode(data, 0, len(data), cls)
    if pos != len(data):
        raise DecodeError("trailing bytes after value")
    return value
