"""Identifier resolution and federation between VASP resolver services.

Customers are reachable through email-style identifiers (local@domain),
payment identifiers with the "@" replaced by "$" (local$domain), or bare
public keys. Each VASP's resolver keeps a local table of its own customers'
identifiers and learns about other VASPs' customers through signed,
sequence-numbered full-state advertisements flooded over the federation,
newest advertisement per origin winning (link-state semantics).

An advertisement has one field per identifier kind, each list strictly
increasing: PayIDs as their local parts under the index of their domain in
the origin identity certificate's ``alt_domain_names`` (the first whose
lower-case form matches), e-mail addresses as theirs under their lower-
case domain, and bare keys as their 32 bytes. A domain the receiver holds
thus travels as a reference (as in RFC 1035 §4.1.4), and only a domain's
holder can advertise its PayIDs, the rule route origin validation checks
on receipt (RFC 6811). A receiver refuses any other form, and indexes the
canonical strings (``render()``) it expands, interned: every resolver
shares one object per identifier. A merge that applies an advertisement,
and a build, hand their caller its canonical bytes, re-headed from the
signing input just verified or sealed, so a forwarder never encodes it.

Lookups answer with VASP numbers only; key material never flows back to a
caller. Who may ask is not decided here: ``Node.handle`` serves a request
only to a caller whose certificate validates.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Callable, Container, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import repeat

from . import codec, crypto, pki


class ResolverError(Exception):
    pass


class Unparseable(ResolverError):
    pass


class UnknownCustomer(ResolverError):
    pass


class IdentifierKind(Enum):
    EMAIL = "Email"
    PAY_ID = "PayId"
    BARE_PUBLIC_KEY = "BarePublicKey"


_DOMAIN_OK = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.-")


def _valid_domain(domain: str) -> bool:
    return bool(domain) and not domain.startswith(".") and _DOMAIN_OK.issuperset(domain)


@dataclass(frozen=True)
class CustomerIdentifier:
    """A customer identifier whose rules hold from construction: a value
    that breaks them raises Unparseable, and the rendering is made once."""

    kind: IdentifierKind
    local_part: str = ""
    domain_part: str = ""
    key_bytes: bytes = b""

    def __post_init__(self) -> None:
        if self.kind is IdentifierKind.BARE_PUBLIC_KEY:
            if not self.key_bytes or self.local_part or self.domain_part:
                raise Unparseable("bare-key identifier carries only key bytes")
            rendered = f"key:{self.key_bytes.hex()}"
        elif self.key_bytes:
            raise Unparseable("named identifier must not carry key bytes")
        elif not self.local_part or not _valid_domain(self.domain_part):
            raise Unparseable("identifier needs local and domain parts")
        else:
            separator = "@" if self.kind is IdentifierKind.EMAIL else "$"
            rendered = f"{self.local_part}{separator}{self.domain_part.lower()}"
        object.__setattr__(self, "_rendered", rendered)

    def render(self) -> str:
        """Canonical string form; domains compare case-insensitively,
        local parts are case-sensitive."""
        return self._rendered


def parse_identifier(s: str) -> CustomerIdentifier:
    """Classify an identifier string.

    "alice$acmepay.com" is a payment identifier, "bob@idp2.com" an email
    identifier, and 64 hex characters a bare public key.
    """
    if "$" in s:
        local, _, domain = s.rpartition("$")
        return CustomerIdentifier(IdentifierKind.PAY_ID, local, domain)
    if "@" in s:
        local, _, domain = s.rpartition("@")
        return CustomerIdentifier(IdentifierKind.EMAIL, local, domain)
    hexpart = s[4:] if s.startswith("key:") else s
    try:
        key = bytes.fromhex(hexpart)
    except ValueError:
        raise Unparseable(f"not an identifier: {s!r}") from None
    if len(key) != crypto.PUBLIC_KEY_SIZE:
        raise Unparseable("bare key must be a 32-byte public key in hex")
    return CustomerIdentifier(IdentifierKind.BARE_PUBLIC_KEY, key_bytes=key)


@dataclass(frozen=True)
class IdentifierAdvertisement:
    """Full-state advertisement: one VASP number plus every customer
    identifier it serves (module docstring), strictly increasing sequence."""

    vasp_number: int
    sequence: int
    payids: tuple[tuple[int, tuple[str, ...]], ...]  # (domain index, locals)
    emails: tuple[tuple[str, tuple[str, ...]], ...]  # (domain, locals)
    keys: tuple[bytes, ...]
    signer_cert_serial: int
    signature: bytes


def _rising(items: Sequence) -> bool:
    return all(map(operator.lt, items, items[1:]))  # in C: no frame per pair


@lru_cache(maxsize=1024)
def _payid_suffixes(domains: tuple[str, ...]) -> tuple[str | None, ...]:
    """The suffix each index of a certificate's ``domains`` gives its
    PayIDs; None where the domain is invalid or, in lower case, listed
    before, so that one domain has one index."""
    lowered = [domain.lower() for domain in domains]
    return tuple("$" + d if _valid_domain(d) and d not in lowered[:i] else None
                 for i, d in enumerate(lowered))


def _expand(adv: IdentifierAdvertisement,
            suffixes: tuple[str | None, ...]) -> tuple[str, ...] | None:
    """The canonical strings ``adv`` carries, each interned, its PayID
    groups keyed into ``suffixes``; None unless every list is strictly
    increasing, every group and local part non-empty, every e-mail domain
    valid and in lower case with no "$" in its local parts, and every key
    32 bytes: the one form ``build_advertisement`` makes. One loop per
    field checks and expands each group."""
    out, last = [], -1  # below every index
    for i, locals_ in adv.payids:
        if not (last < i < len(suffixes) and (suffix := suffixes[i])
                and locals_ and locals_[0] and _rising(locals_)):
            return None
        last = i
        out += map(sys.intern, map(operator.add, locals_, repeat(suffix)))
    last = ""  # below every valid domain
    for domain, locals_ in adv.emails:
        if not (last < domain == domain.lower() and _valid_domain(domain)
                and locals_ and locals_[0] and _rising(locals_)
                and "$" not in "".join(locals_)):
            return None
        last = domain
        out += map(sys.intern, map(operator.add, locals_, repeat("@" + domain)))
    if not (_rising(adv.keys)
            and all(len(key) == crypto.PUBLIC_KEY_SIZE for key in adv.keys)):
        return None
    return tuple(out + [sys.intern(f"key:{key.hex()}") for key in adv.keys])


class MergeOutcome(Enum):
    APPLIED = "Applied"
    STALE = "Stale"
    REJECTED = "Rejected"


@lru_cache(maxsize=1024)
def _one_origin(vasp_number: int) -> frozenset[int]:
    """The origin set of an identifier only ``vasp_number`` advertises,
    shared by every resolver's index: nearly every identifier has one."""
    return frozenset((vasp_number,))


class ResolverService:
    """One VASP's resolver: local registrations plus federated knowledge."""

    def __init__(self, vasp_number: int, customers: Container[str]):
        self.vasp_number = vasp_number
        self._customers = customers
        # rendered identifier -> (customer id, the identifier registered)
        self._local: dict[str, tuple[str, CustomerIdentifier]] = {}
        # origin -> (its advertisement held, the strings that indexed)
        self._remote: dict[int, tuple[IdentifierAdvertisement, tuple[str, ...]]] = {}
        # Incrementally maintained identifier -> origins index so lookups
        # are plain map accesses, not scans over held advertisements. A
        # one-origin set is shared (_one_origin); a multi-origin identifier
        # has its own frozenset.
        self._remote_index: dict[str, frozenset[int]] = {}
        self._sequence = 0

    # -- local registration -------------------------------------------------

    def register_identifier(self, customer_id: str,
                            identifier: CustomerIdentifier) -> None:
        """Serve ``identifier`` for ``customer_id``; ``config.parse_config``
        decides which identifiers a customer may hold."""
        if customer_id not in self._customers:
            raise UnknownCustomer(customer_id)
        self._local[identifier.render()] = customer_id, identifier

    def local_identifiers(self) -> list[str]:
        return sorted(self._local)

    def local_customer_for(self, identifier: CustomerIdentifier) -> str | None:
        return self._local.get(identifier.render(), (None,))[0]

    # -- lookup ---------------------------------------------------------------

    def lookup(self, identifier: CustomerIdentifier) -> list[int]:
        """Sorted VASP numbers known to serve the identifier.

        The response carries numbers only: never customer key material.
        """
        rendered = identifier.render()
        hits = set(self._remote_index.get(rendered, ()))
        if rendered in self._local:
            hits.add(self.vasp_number)
        return sorted(hits)

    # -- federation -----------------------------------------------------------

    def build_advertisement(self, claims_private_key: bytes, claims_cert_serial: int,
                            domains: Sequence[str],
                            keep: Callable[[bytes], object] | None = None
                            ) -> IdentifierAdvertisement:
        """Our next advertisement, signed, grouped from the identifiers
        registered; ``keep``, if given, gets its canonical bytes, re-headed
        from the signing input it was sealed over. ``domains`` are our
        identity certificate's ``alt_domain_names``: a PayID on none of
        them cannot be advertised, and raises ResolverError."""
        index = {domain.lower(): i for i, domain in reversed([*enumerate(domains)])}
        groups: tuple[dict, dict] = ({}, {})  # PayID and e-mail locals by group
        keys = []
        for _, ident in self._local.values():
            domain = ident.domain_part.lower()
            if ident.kind is IdentifierKind.BARE_PUBLIC_KEY:
                keys.append(ident.key_bytes)
            elif ident.kind is IdentifierKind.EMAIL:
                groups[1].setdefault(domain, []).append(ident.local_part)
            elif domain in index:
                groups[0].setdefault(index[domain], []).append(ident.local_part)
            else:
                raise ResolverError(f"{ident.render()}: a domain we do not hold")
        payids, emails = (tuple((k, tuple(sorted(g[k]))) for k in sorted(g))
                          for g in groups)
        self._sequence += 1
        adv, tbs = codec.seal(IdentifierAdvertisement(
            self.vasp_number, self._sequence, payids, emails, tuple(sorted(keys)),
            claims_cert_serial, b""),
            lambda tbs: crypto.sign(claims_private_key, tbs))
        if keep is not None:
            keep(codec.sealed_bytes(adv, tbs))
        return adv

    def merge_advertisement(self, adv: IdentifierAdvertisement,
                            trust: pki.TrustContext,
                            keep: Callable[[bytes], object] | None = None
                            ) -> MergeOutcome:
        """Apply an advertisement if authentic and newer than what we hold.

        Newest advertisement per origin is authoritative: the identifier
        list replaces the previous one wholesale, so withdrawn identifiers
        stop resolving to that origin. Staleness is checked first, so a
        duplicate or replay costs no certificate or signature work; a
        resolver is authoritative for its own origin and never takes an
        advertisement for it from the federation. The signer must be the
        origin's claims-signing certificate; then one pass checks the form
        against the origin's identity certificate and expands it
        (``_expand``), and the expansion is kept to unindex it. Once it is
        applied, ``keep``, if given, gets its canonical bytes, re-headed
        from the signing input just verified, to forward with no encode.
        """
        held = self._remote.get(adv.vasp_number)
        if adv.vasp_number == self.vasp_number or (
                held is not None and adv.sequence <= held[0].sequence):
            return MergeOutcome.STALE
        tbs = codec.struct_bytes(adv)
        if not trust.verify_member_signature(adv, tbs, adv.vasp_number):
            return MergeOutcome.REJECTED
        expansion = _expand(adv, _payid_suffixes(
            trust.members[adv.vasp_number].identity.subject.alt_domain_names))
        if expansion is None:
            return MergeOutcome.REJECTED

        self.drop_origin(adv.vasp_number)
        index, origin = self._remote_index, _one_origin(adv.vasp_number)
        for rendered in expansion:
            owners = index.get(rendered)
            index[rendered] = origin if owners is None else owners | origin
        self._remote[adv.vasp_number] = adv, expansion
        if keep is not None:
            keep(codec.sealed_bytes(adv, tbs))
        return MergeOutcome.APPLIED

    def drop_origin(self, vasp_number: int) -> None:
        """Forget the advertisement held for an origin, if any."""
        held = self._remote.pop(vasp_number, None)
        if held is None:
            return
        index, origin = self._remote_index, _one_origin(vasp_number)
        for rendered in held[1]:
            owners = index.get(rendered, origin) - origin
            if not owners:
                index.pop(rendered, None)
            else:
                index[rendered] = owners if len(owners) > 1 \
                    else _one_origin(*owners)

    def known_advertisements(self) -> list[IdentifierAdvertisement]:
        """Latest advertisement held per remote origin, for syncing a new
        neighbour."""
        return [self._remote[n][0] for n in sorted(self._remote)]

    def holds_federated(self, index: dict[str, set[int]]) -> bool:
        """Whether the identifier -> origins view learnt from the
        federation is exactly ``index`` (never this resolver's own origin,
        and no identifier with an empty set)."""
        return self._remote_index == index

    def resolve_map(self) -> dict[str, list[int]]:
        """Full identifier -> sorted VASP numbers view (local + federated)."""
        out: dict[str, set[int]] = {}
        for rendered in self._local:
            out.setdefault(rendered, set()).add(self.vasp_number)
        for rendered, origins in self._remote_index.items():
            out.setdefault(rendered, set()).update(origins)
        return {k: sorted(v) for k, v in sorted(out.items())}
