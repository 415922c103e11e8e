"""Every field is read: each dataclass field and each ``self.<name> =`` in
src/ is read somewhere in src/, or ``UNREAD`` says why it is kept."""

from __future__ import annotations

import ast
from pathlib import Path

import vasptrust

SRC = Path(vasptrust.__file__).parent

_VERIFIER = "signed; the planned offline verifier (vtn verify) reads it"
_RECORD = "a record kept to be read out whole"
_DETAIL = "an exception's detail for its caller"
_HEAD = "signed; the codec encodes it into a tree head's signing input"
_SEALED = "a signature; codec.unseal reads the last field by position"

UNREAD = {
    "ConsentReceipt.issued_at": _VERIFIER,
    "RevocationEntry.revoked_at": _VERIFIER,
    "RevocationList.issued_at": _VERIFIER,
    "RevocationList.issuer_signature": _VERIFIER,
    "SignedClaim.issuer_signature": _SEALED,
    "TreeHead.root_hash": _HEAD,
    "SignedClaim.subject_customer_ref":
        "signed; the check of a claims answer will match it to the customer",
    "SignedClaim.attribute_value": "the released claim itself",
    "AuditEntry.at": _RECORD,
    "ConsentRecord.direction": _RECORD,
    "ConsentRecord.counterparty_vasp_number": _RECORD,
    "SupervisionRecord.since": _RECORD,
    "WalletStatus.since": _RECORD,
    "ConfigError.path": _DETAIL,
    "PeerCertInvalid.verdict": _DETAIL,
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """``cls`` is decorated ``@dataclass`` or ``@dataclass(...)``."""
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in cls.decorator_list)


def unread_fields(sources: list[str]) -> set[str]:
    """``Class.name`` of each dataclass field and each ``self.<name>``
    stored in ``sources`` whose name no attribute load in ``sources`` reads.

    Reads are matched by name alone, not by class. So a field whose name
    another class's attribute shares, and some code reads there, is not
    caught: ``RootAuthority.name`` was one, as ``name`` is read on many
    classes."""
    trees = [ast.parse(source) for source in sources]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    stored = set()
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if _is_dataclass(cls):
                stored.update((cls.name, node.target.id) for node in cls.body
                              if isinstance(node, ast.AnnAssign)
                              and isinstance(node.target, ast.Name))
            stored.update((cls.name, node.attr) for node in ast.walk(cls)
                          if isinstance(node, ast.Attribute)
                          and isinstance(node.ctx, ast.Store)
                          and getattr(node.value, "id", None) == "self")
    return {f"{cls}.{name}" for cls, name in stored if name not in read}


def test_every_field_is_read_or_says_why_not():
    sources = [path.read_text() for path in sorted(SRC.rglob("*.py"))]
    assert unread_fields(sources) == set(UNREAD)


HOLDER = """
from dataclasses import dataclass

@dataclass(frozen=True)
class Token:
    audience: int
    issued_at: int

class Server:
    def __init__(self, token):
        self.token = token
        self.started = 0

def audience(server):
    return server.token.audience
"""

READER = """
def stamps(server):
    return server.token.issued_at, server.started
"""


def test_the_scan_reports_each_unread_field_and_no_read_one():
    assert unread_fields([HOLDER]) == {"Token.issued_at", "Server.started"}
    assert unread_fields([HOLDER, READER]) == set()
