"""Every signing input names what it is.

Each signed type declares one label in ``codec.LABELS``, and its signing
input opens with it. Three checks keep that so:
- an AST scan of src/: every message ``crypto.sign`` or ``crypto.verify``
  takes was made by a codec signing-input call;
- Hypothesis: no signing input of one signed type equals, or starts with,
  one of another;
- committed vectors (``signing_vectors.json``, in the style of RFC 8032
  §7): for each signed type, one fixed value's signing input and its
  signature under a fixed-seed key, so that a change of format names the
  type whose bytes moved.

Run ``PYTHONPATH=src python tests/test_signing.py`` to rewrite the vectors
after a deliberate change of format, and say why in the change.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import types
import typing
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vasptrust
from test_codec import LABELLED, values_of
from vasptrust import codec, crypto

SRC = Path(vasptrust.__file__).parent
VECTORS = Path(__file__).with_name("signing_vectors.json")
VECTOR_KEY = crypto.generate_keypair(bytes(range(32)))

# Calls whose result is a signing input, or holds one first.
SIGNING_INPUT_CALLS = {"struct_bytes", "unseal"}
# Calls that hand a signing input to the callable they are given: codec's
# seal, and the ledger's make_transfer, whose seal calls each signer.
SEALS = {"seal", "make_transfer"}
# A device signs what its signer, which make_transfer drives, hands it.
EXEMPT = {("wallet.py", "WalletDevice.sign")}


def _name(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _params(fn) -> list[str]:
    return [a.arg for a in fn.args.posonlyargs + fn.args.args]


class Provenance:
    """Where each value a signature covers comes from, over ``sources``
    (file name -> source). A message is a signing input when it is made by
    ``codec.struct_bytes`` or ``codec.unseal``; is the parameter of a
    callable given to a seal; or is a name every assignment, or every call
    site, gives a signing input. ``a and b`` is one when ``b`` is; ``a or
    b`` when ``b`` is and ``a`` is one or left at a falsy default."""

    def __init__(self, sources: dict[str, str]):
        self.trees = {name: ast.parse(text) for name, text in sources.items()}
        self.parent: dict[ast.AST, ast.AST] = {}
        self.defs: dict[str, list] = {}
        self.calls: dict[str, list] = {}
        self.file: dict[ast.AST, str] = {}
        for name, tree in self.trees.items():
            for node in ast.walk(tree):
                self.file[node] = name
                for child in ast.iter_child_nodes(node):
                    self.parent[child] = node
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.defs.setdefault(node.name, []).append(node)
                if isinstance(node, ast.Call) and _name(node):
                    self.calls.setdefault(_name(node), []).append(node)

    def qualname(self, node: ast.AST) -> str:
        names = []
        while node is not None:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            node = self.parent.get(node)
        return ".".join(reversed(names))

    def signature_sites(self):
        """(file, enclosing function, message) of each crypto.sign and
        crypto.verify call."""
        for calls in (self.calls.get("sign", []), self.calls.get("verify", [])):
            for call in calls:
                func = call.func
                if isinstance(func, ast.Attribute) and \
                        getattr(func.value, "id", None) == "crypto":
                    yield self.file[call], self.qualname(call), call.args[1]

    def unsigned(self) -> list[str]:
        """Each signature site whose message is not a signing input."""
        return [f"{file}:{message.lineno} {where}"
                for file, where, message in self.signature_sites()
                if (file, where) not in EXEMPT and not self.made(message, set())]

    def made(self, expr: ast.AST, seen: set, falsy_ok: bool = False) -> bool:
        if expr in seen:
            return False
        seen = seen | {expr}
        if isinstance(expr, ast.Starred):
            expr = expr.value
        if isinstance(expr, ast.Call):
            name = _name(expr)
            if name in SIGNING_INPUT_CALLS:
                return True
            returns = [r.value for fn in self.defs.get(name, [])
                       for r in ast.walk(fn) if isinstance(r, ast.Return)]
            return bool(returns) and all(self.made(r, seen) for r in returns)
        if isinstance(expr, ast.BoolOp):
            *rest, last = expr.values
            return self.made(last, seen) and (
                isinstance(expr.op, ast.And)
                or all(self.made(v, seen, falsy_ok=True) for v in rest))
        if isinstance(expr, ast.Name):
            return self.bound(expr, seen, falsy_ok)
        return False

    def bound(self, name: ast.Name, seen: set, falsy_ok: bool) -> bool:
        """Whether what ``name`` is bound to in its scope is a signing input."""
        scope = self.parent.get(name)
        while scope is not None and not isinstance(
                scope, (ast.Lambda, ast.FunctionDef)):
            scope = self.parent.get(scope)
        if scope is None:
            return False
        if isinstance(scope, ast.Lambda):
            if name.id in _params(scope):
                return self.seal_driven(scope)
            return self._outer(scope, name, seen, falsy_ok)
        values = []
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name.id:
                        values.append(node.value)
                    elif isinstance(target, ast.Tuple) and any(
                            getattr(t, "id", None) == name.id for t in target.elts):
                        # ``tbs, sig = codec.unseal(v)``: the first is one.
                        first = getattr(target.elts[0], "id", None) == name.id
                        values.append(node.value if first else ast.Constant(None))
        if values:
            return all(self.made(v, seen) for v in values)
        if name.id in _params(scope):
            return self.passed(scope, name.id, seen, falsy_ok)
        return False

    def _outer(self, scope, name, seen, falsy_ok) -> bool:
        """A name a lambda reads from its enclosing scope."""
        stand_in = ast.Name(name.id, ast.Load())
        self.parent[stand_in] = self.parent.get(scope)
        return self.bound(stand_in, seen, falsy_ok)

    def seal_driven(self, fn: ast.Lambda) -> bool:
        """``fn`` is given, directly or as a dict's value, to a seal."""
        node = self.parent.get(fn)
        while isinstance(node, (ast.Dict, ast.keyword)):
            node = self.parent.get(node)
        return isinstance(node, ast.Call) and _name(node) in SEALS

    def passed(self, fn: ast.FunctionDef, param: str, seen: set,
               falsy_ok: bool) -> bool:
        """Whether every call of ``fn`` in src/ passes a signing input as
        ``param``. A method called on ``self`` is looked for in its file."""
        params = _params(fn)
        index = params.index(param)
        method = bool(params) and params[0] == "self"
        defaults = dict(zip(reversed(params), reversed(fn.args.defaults)))
        sites = [c for c in self.calls.get(fn.name, [])
                 if not (isinstance(c.func, ast.Attribute)
                         and getattr(c.func.value, "id", None) == "self")
                 or self.file[c] == self.file[fn]]
        if not sites:
            return False
        for call in sites:
            keyword = next((k.value for k in call.keywords if k.arg == param), None)
            position, arg = int(method and isinstance(call.func, ast.Attribute)), None
            for given in call.args:
                # A starred argument is an unsealed pair (src/ stars no other).
                width = 2 if isinstance(given, ast.Starred) else 1
                if position <= index < position + width:
                    arg = given
                position += width
            arg = keyword or arg
            if arg is None:
                default = defaults.get(param)
                if not (falsy_ok and isinstance(default, ast.Constant)
                        and not default.value):
                    return False
            elif not self.made(arg, seen, falsy_ok):
                return False
        return True


def _src() -> dict[str, str]:
    return {str(path.relative_to(SRC)): path.read_text()
            for path in sorted(SRC.rglob("*.py")) if path.name != "crypto.py"}


def test_every_signature_is_over_a_codec_signing_input():
    provenance = Provenance(_src())
    sites = list(provenance.signature_sites())
    assert len(sites) >= 20
    assert provenance.unsigned() == []


SIGNER = """
from . import codec, crypto

def sign_head(key, head):
    return codec.seal(head, lambda tbs: crypto.sign(key, tbs))

def prove(key, challenge):
    return crypto.sign(key, challenge)

def check(key, value, tbs=b""):
    return crypto.verify(key, tbs or codec.struct_bytes(value), value.sig)

def caller(key, value):
    return check(key, value, value.raw)

def relay(key, value):
    unsigned, sig = codec.unseal(value)
    raw = value.raw
    return crypto.verify(key, unsigned, sig) and crypto.verify(key, raw, sig)
"""


def test_the_scan_flags_each_message_no_codec_call_made():
    # A raw challenge, a caller's raw bytes through a parameter, and a
    # field read off the value are each flagged; the sealed, unsealed and
    # struct_bytes inputs are not.
    assert Provenance({"signer.py": SIGNER}).unsigned() == [
        "signer.py:8 prove", "signer.py:11 check", "signer.py:19 relay"]
    fixed = SIGNER.replace("value.raw)", "codec.struct_bytes(value))")
    assert Provenance({"signer.py": fixed}).unsigned() == [
        "signer.py:8 prove", "signer.py:19 relay"]


# -- no signing input of one type is, or opens, one of another ----------------

@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_no_signing_input_of_one_type_opens_one_of_another(data):
    first, second = data.draw(st.lists(st.sampled_from(LABELLED), min_size=2,
                                       max_size=2, unique=True))
    a = codec.struct_bytes(data.draw(values_of(first)))
    b = codec.struct_bytes(data.draw(values_of(second)))
    assert not a.startswith(b) and not b.startswith(a)


# -- committed vectors -----------------------------------------------------------

def fixed_value(typ):
    """One fixed value of declared type ``typ``: every field filled from
    its declared type alone, so a change of a type's fields or of the
    format changes its vector."""
    origin, args = typing.get_origin(typ), typing.get_args(typ)
    if origin in (typing.Union, types.UnionType):
        return fixed_value(next(a for a in args if a is not type(None)))
    if origin in (list, tuple):
        items = [fixed_value(args[0])] if args[-1] is Ellipsis or origin is list \
            else [fixed_value(a) for a in args]
        return origin(items)
    if dataclasses.is_dataclass(typ):
        hints = typing.get_type_hints(typ)
        return typ(*[fixed_value(hints[f.name]) for f in dataclasses.fields(typ)])
    if isinstance(typ, type) and issubclass(typ, Enum):
        return list(typ)[-1]
    return {int: 300, bool: True, str: "vector", bytes: bytes(range(32))}[typ]


def vector(cls) -> dict:
    tbs = codec.struct_bytes(fixed_value(cls))
    return {"signing_input": tbs.hex(),
            "signature": crypto.sign(VECTOR_KEY.private_key, tbs).hex()}


def _qualified(cls) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


@pytest.mark.parametrize("cls", LABELLED, ids=lambda cls: cls.__name__)
def test_signing_input_vector(cls):
    committed = json.loads(VECTORS.read_text())
    assert committed["public_key"] == VECTOR_KEY.public_key.hex()
    expected = committed["vectors"][_qualified(cls)]
    assert vector(cls) == expected, f"{cls.__name__}'s signing input moved"
    assert crypto.verify(VECTOR_KEY.public_key,
                         bytes.fromhex(expected["signing_input"]),
                         bytes.fromhex(expected["signature"]))


def test_vectors_cover_every_signed_type():
    committed = json.loads(VECTORS.read_text())
    assert set(committed["vectors"]) == {_qualified(c) for c in LABELLED}


if __name__ == "__main__":
    VECTORS.write_text(json.dumps({
        "seed": bytes(range(32)).hex(),
        "public_key": VECTOR_KEY.public_key.hex(),
        "vectors": {_qualified(c): vector(c) for c in LABELLED}},
        indent=1, sort_keys=True) + "\n")
