"""Identifier resolution and federation between VASP resolver services.

Customers are reachable through email-style identifiers (local@domain),
payment identifiers with the "@" replaced by "$" (local$domain), or bare
public keys. Each VASP's resolver keeps a local table of its own customers'
identifiers and learns about other VASPs' customers through signed,
sequence-numbered full-state advertisements flooded over the federation,
newest advertisement per origin winning (link-state semantics). An
advertisement carries the canonical strings (``render()``) grouped under
their suffix, separator and domain ("$acmepay.com"; "" for bare keys), so
each travels as its local part, as DNS name compression sends a domain
once (RFC 1035 §4.1.4). A receiver refuses any other grouping, and indexes
each string interned: every resolver shares one object per identifier.

Lookups answer with VASP numbers only; key material never flows back to a
caller. Who may ask is not decided here: ``Node.handle`` serves a request
only to a caller whose certificate validates.
"""

from __future__ import annotations

import sys
from collections.abc import Container, Iterable
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

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


def group_identifiers(rendered: Iterable[str]) -> tuple[tuple[str, ...], ...]:
    """Canonical strings as an advertisement carries them: one group per
    suffix, split off where ``parse_identifier`` splits, suffix first and
    then its local parts; groups and local parts strictly increasing."""
    groups: dict[str, set[str]] = {}
    for s in rendered:
        sep = "$" if "$" in s else "@" if "@" in s else None
        local, sep, domain = s.rpartition(sep) if sep else (s, "", "")
        groups.setdefault(sep + domain, set()).add(local)
    return tuple((suffix, *sorted(groups[suffix])) for suffix in sorted(groups))


@lru_cache(maxsize=4096)
def _renders_as_itself(s: str) -> bool:
    try:
        return parse_identifier(s).render() == s
    except Unparseable:
        return False


def _canonical(domains: tuple[tuple[str, ...], ...], expanded: tuple[str, ...]) -> bool:
    """Whether ``domains`` (expanding to ``expanded``) groups canonical
    strings. A suffix is parsed (and cached) alone: under it, any non-empty
    local part that ``group_identifiers`` splits off is canonical too."""
    return group_identifiers(expanded) == domains and all(
        all(group[1:]) and all(map(_renders_as_itself, (
            ("x" + group[0],) if group[0] else group[1:]))) for group in domains)


@dataclass(frozen=True)
class IdentifierAdvertisement:
    """Full-state advertisement: one VASP number plus every customer
    identifier it serves (``group_identifiers``), strictly increasing sequence."""

    vasp_number: int
    sequence: int
    domains: tuple[tuple[str, ...], ...]
    signer_cert_serial: int
    signature: bytes

    @property
    def identifiers(self) -> tuple[str, ...]:
        """The canonical strings, each interned."""
        return tuple(sys.intern(local + group[0])
                     for group in self.domains for local in group[1:])


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
        self._local: dict[str, str] = {}  # rendered identifier -> customer id
        self._remote: dict[int, IdentifierAdvertisement] = {}
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
        self._local[identifier.render()] = customer_id

    def local_identifiers(self) -> list[str]:
        return sorted(self._local)

    def local_customer_for(self, identifier: CustomerIdentifier) -> str | None:
        return self._local.get(identifier.render())

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

    def build_advertisement(self, claims_private_key: bytes,
                            claims_cert_serial: int) -> IdentifierAdvertisement:
        self._sequence += 1
        return codec.seal(IdentifierAdvertisement(
            vasp_number=self.vasp_number,
            sequence=self._sequence,
            domains=group_identifiers(self._local),
            signer_cert_serial=claims_cert_serial,
            signature=b"",
        ), lambda tbs: crypto.sign(claims_private_key, tbs))[0]

    def merge_advertisement(self, adv: IdentifierAdvertisement,
                            trust: pki.TrustContext) -> MergeOutcome:
        """Apply an advertisement if authentic and newer than what we hold.

        Newest advertisement per origin is authoritative: the identifier
        list replaces the previous one wholesale, so withdrawn identifiers
        stop resolving to that origin. Staleness is checked first, so a
        duplicate or replay costs no certificate or signature work; a
        resolver is authoritative for its own origin and never takes an
        advertisement for it from the federation. The signer must be the
        origin's claims-signing certificate, the grouping canonical, and
        every PayID on a domain its identity certificate lists: only a
        domain's holder serves its PayIDs, as a route origin authorization
        names who may originate a prefix (RFC 6811).
        """
        held = self._remote.get(adv.vasp_number)
        if adv.vasp_number == self.vasp_number or (
                held is not None and adv.sequence <= held.sequence):
            return MergeOutcome.STALE
        if not trust.verify_member_signature(
                *codec.unseal(adv), adv.signer_cert_serial,
                pki.CertPurpose.CLAIMS_SIGNING, adv.vasp_number):
            return MergeOutcome.REJECTED
        payid_suffixes = {"$" + domain.lower() for domain in trust.members[
            adv.vasp_number].identity.subject.alt_domain_names}
        if not _canonical(adv.domains, identifiers := adv.identifiers) or any(
                group[0].startswith("$") and group[0] not in payid_suffixes
                for group in adv.domains):
            return MergeOutcome.REJECTED

        self.drop_origin(adv.vasp_number)
        index, origin = self._remote_index, _one_origin(adv.vasp_number)
        for rendered in identifiers:
            owners = index.get(rendered)
            index[rendered] = origin if owners is None else owners | origin
        self._remote[adv.vasp_number] = adv
        return MergeOutcome.APPLIED

    def drop_origin(self, vasp_number: int) -> None:
        """Forget the advertisement held for an origin, if any."""
        held = self._remote.pop(vasp_number, None)
        if held is None:
            return
        index, origin = self._remote_index, _one_origin(vasp_number)
        for rendered in held.identifiers:
            owners = index.get(rendered, origin) - origin
            if not owners:
                index.pop(rendered, None)
            else:
                index[rendered] = owners if len(owners) > 1 \
                    else _one_origin(*owners)

    def known_advertisements(self) -> list[IdentifierAdvertisement]:
        """Latest advertisement held per remote origin, for syncing a new
        neighbour."""
        return [self._remote[n] for n in sorted(self._remote)]

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
