"""Topology configuration: consortium, VASPs, customers, federation graph.

Configs are JSON files with explicit keys, read by one reader (``read``,
also used for scenario parameters) that takes each type and default from
the dataclasses below. An integer is a JSON integer or a string of decimal
digits, never a bool or a float, and must be non-negative, except
``seed``; a customer id, claims provider or insurer names a trace actor,
so it holds no space or line break; unknown keys are ignored.
``parse_config`` then parses each customer identifier and IdP directory
entry once, and checks the rules across fields: unique VASP numbers, IdP
domains (in any case) and claims providers, known activities, e-mail
identifiers on an IdP's domain that its directory lists, one customer per
identifier within a VASP, known claims providers, one claims store per
customer id, each VASP's certificate subject (``pki.check_subject``) and
federation edges between configured VASPs. It alone admits identifiers:
``build_world`` checks none again. A problem names its config path, a str
the reader makes only on refusal.
All randomness in a run flows from ``seed``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import types
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import (Any, Callable, NewType, Union, get_args, get_origin,
                    get_type_hints)

from . import crypto
from .pki import BusinessActivity, EvSubjectInfo, check_subject
from .resolver import (CustomerIdentifier, IdentifierKind, Unparseable,
                       parse_identifier)

SERVICE_NUMBER_BASE = 1000  # entity numbers >= this are reserved for services

Seed = NewType("Seed", int)  # any integer crypto.seed_from_int takes
Identifier = NewType("Identifier", str)  # a str that parse_identifier takes
Name = NewType("Name", str)  # a str with no space or line break: it names actors


class ConfigError(Exception):
    def __init__(self, path: Any, message: str):
        suffix = ""  # a reader's path nests (parent, ".{}" or "[{}]", part)
        while not isinstance(path, str):
            path, template, part = path
            suffix = template.format(part) + suffix
        self.path = path = path + suffix
        super().__init__(f"{path}: {message}")


@dataclass
class WalletSpec:
    initial_balance: int = 0
    imported_key_balance: int = 0


@dataclass
class ClaimSpec:
    provider: str
    attribute: str
    value: str


@dataclass
class CustomerConfig:
    id: Name
    legal_name: str
    identifiers: list[str] = field(default_factory=list)
    geographic_address: str = ""
    national_id: str = ""
    customer_number: str = ""
    birth_date: str = ""
    birth_place: str = ""
    wallet: WalletSpec | None = None
    claims: list[ClaimSpec] = field(default_factory=list)

    @cached_property  # set by parse_config; no field, so not in config.json
    def parsed_identifiers(self) -> list[CustomerIdentifier]:
        return [parse_identifier(s) for s in self.identifiers]


@dataclass(kw_only=True)
class VaspConfig:
    vasp_number: int
    organization_name: str
    alt_domain_names: list[str]
    incorporation_number_or_lei: str = ""
    is_lei: bool = False
    place_of_business: str = ""
    jurisdiction: str
    regulated_business_activity: str = "Exchange"
    policy_object_identifier: str = "1.3.6.1.4.1.0"
    customers: list[CustomerConfig] = field(default_factory=list)
    treasury: int = 1_000_000

    def subject(self) -> EvSubjectInfo:
        """The subject of this VASP's identity certificate."""
        return EvSubjectInfo(
            organization_name=self.organization_name,
            alt_domain_names=tuple(self.alt_domain_names),
            incorporation_number_or_lei=self.incorporation_number_or_lei,
            is_lei=self.is_lei,
            place_of_business=self.place_of_business,
            jurisdiction=self.jurisdiction,
            vasp_number=self.vasp_number,
            regulated_business_activity=BusinessActivity(
                self.regulated_business_activity),
            policy_object_identifier=self.policy_object_identifier,
        )


@dataclass
class IdpConfig:
    domain: str
    directory: list[str] = field(default_factory=list)


@dataclass(kw_only=True)
class TopologyConfig:
    consortium: str = "vasp-consortium"
    seed: Seed
    vasps: list[VaspConfig]
    idps: list[IdpConfig] = field(default_factory=list)
    claims_providers: list[Name] = field(default_factory=list)
    insurer: Name | None = None
    # Read as written; parse_config makes it symmetric, with int neighbors.
    federation_graph: dict[int, list] = field(default_factory=dict)
    scenario_params: dict[str, dict] = field(default_factory=dict)

    def neighbors(self, number: int) -> list[int]:
        return sorted(self.federation_graph.get(number, []))


Reader = Callable[[Any, Any], Any]  # (JSON value, its config path) -> value


def read(typ: Any, value: Any, path: str) -> Any:
    """``value`` read as ``typ``, or a ConfigError naming the path at fault.
    A function is read as the dict of its keyword-only parameters."""
    return _reader(typ)(value, path)


def _checked(value: Any, typ: type, path: Any) -> Any:
    if not isinstance(value, typ):
        raise ConfigError(path, f"expected {typ.__name__}, got {value!r}")
    return value


def _read_int(value: Any, path: Any, expected: str) -> int:
    """An int, or a string of ASCII digits with an optional minus sign (JSON
    object keys are strings); a bool, a float or anything else is refused,
    not truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.isascii() \
            and value.removeprefix("-").isdigit():
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    raise ConfigError(path, f"expected {expected}, got {value!r}")


def _read_natural(value: Any, path: Any) -> int:
    number = _read_int(value, path, "an integer")
    if number < 0:
        raise ConfigError(path, f"negative value {number}")
    return number


def _read_seed(value: Any, path: Any) -> int:
    expected = "an integer in the signed 128-bit range"
    try:
        crypto.seed_from_int(seed := _read_int(value, path, expected))
    except OverflowError:
        raise ConfigError(path, f"expected {expected}, got {value!r}") from None
    return seed


def _parsed(value: Any, path: Any) -> CustomerIdentifier:
    try:
        return parse_identifier(_checked(value, str, path))
    except Unparseable as exc:
        raise ConfigError(path, str(exc)) from None


def _read_name(value: Any, path: Any) -> str:
    """A name that the trace can hold as (part of) an actor column."""
    if " " in _checked(value, str, path) or "".join(value.splitlines()) != value:
        raise ConfigError(path, f"{value!r} would not parse back as one actor name")
    return value


_SCALAR_READERS = {int: _read_natural, Seed: _read_seed, Name: _read_name,
                   Identifier: lambda value, path: _parsed(value, path) and value}


@lru_cache(maxsize=None)
def _reader(typ: Any) -> Reader:
    origin = get_origin(typ)
    if origin in (types.UnionType, Union):  # X | None, the one union declared
        inner = _reader(next(a for a in get_args(typ) if a is not type(None)))
        return lambda value, path: None if value is None else inner(value, path)
    if origin is list:
        item = _reader(get_args(typ)[0])
        return lambda value, path: [item(v, (path, "[{}]", i)) for i, v
                                    in enumerate(_checked(value, list, path))]
    if origin is dict:
        key, item = map(_reader, get_args(typ))
        return lambda value, path: {key(k, (path, ".{}", k)): item(v, (path, ".{}", k))
                                    for k, v in _checked(value, dict, path).items()}
    if typ in _SCALAR_READERS:
        return _SCALAR_READERS[typ]
    if is_dataclass(typ) or inspect.isfunction(typ):
        return _read_record(typ)
    # str and bool as they are; an untyped list or dict is copied
    return lambda value, path: typ(_checked(value, typ, path))


def _read_record(typ: Any) -> Reader:
    """A dataclass, or a function's keyword-only parameters, read from a dict
    field by field; a missing field keeps its declared default or is refused."""
    hints = get_type_hints(typ)
    is_class = isinstance(typ, type)
    fields = [(p.name, _reader(hints[p.name]), p.default is p.empty)
              for p in inspect.signature(typ).parameters.values()
              if is_class or p.kind is p.KEYWORD_ONLY]
    make = typ if is_class else dict

    def read_record(value: Any, path: Any) -> Any:
        _checked(value, dict, path)
        kwargs = {}
        for name, read_field, required in fields:
            if name in value:
                kwargs[name] = read_field(value[name], (path, ".{}", name))
            elif required:
                raise ConfigError((path, ".{}", name), "missing required field")
        return make(**kwargs)
    return read_record


def parse_config(data: dict, source: str = "config") -> TopologyConfig:
    config = read(TopologyConfig, data, source)
    directories: dict[str, frozenset[str]] = {}  # IdP domain -> rendered entries
    for i, idp in enumerate(config.idps):
        idp_path = f"{source}.idps[{i}]"
        listed = frozenset(_parsed(entry, (idp_path, ".directory[{}]", k)).render()
                           for k, entry in enumerate(idp.directory))
        if idp.domain.lower() in directories:
            raise ConfigError(f"{idp_path}.domain",
                              f"duplicate IdP domain {idp.domain!r}")
        directories[idp.domain.lower()] = listed
    if not config.consortium.strip():  # it names the services' subjects
        raise ConfigError(f"{source}.consortium", "a name is required")
    if not config.vasps:
        raise ConfigError(f"{source}.vasps", "at least one VASP is required")
    for i, name in enumerate(config.claims_providers):
        if name in config.claims_providers[:i]:
            raise ConfigError(f"{source}.claims_providers[{i}]",
                              f"duplicate claims provider {name!r}")

    activities = {a.value for a in BusinessActivity}
    numbers: set[int] = set()
    claim_holders: dict[str, str] = {}  # customer id -> its config path
    for i, vasp in enumerate(config.vasps):
        path = f"{source}.vasps[{i}]"
        number = vasp.vasp_number
        if number in numbers:
            raise ConfigError(f"{path}.vasp_number", f"duplicate value {number}")
        if number >= SERVICE_NUMBER_BASE:
            raise ConfigError(f"{path}.vasp_number",
                              f"values >= {SERVICE_NUMBER_BASE} are reserved")
        numbers.add(number)
        if vasp.regulated_business_activity not in activities:
            raise ConfigError(f"{path}.regulated_business_activity",
                              f"unknown activity {vasp.regulated_business_activity!r}")
        seen_ids = set()
        holders: dict[str, str] = {}  # rendered identifier -> customer id
        for j, customer in enumerate(vasp.customers):
            customer_path = f"{path}.customers[{j}]"
            customer.parsed_identifiers = []
            for k, ident in enumerate(customer.identifiers):
                parsed = _parsed(ident, where := (customer_path, ".identifiers[{}]", k))
                rendered, domain = parsed.render(), parsed.domain_part.lower()
                if parsed.kind is IdentifierKind.EMAIL and domain in directories \
                        and rendered not in directories[domain]:
                    raise ConfigError(where, f"unknown at IdP {domain}")
                if holders.setdefault(rendered, customer.id) != customer.id:
                    raise ConfigError(where, f"{rendered!r} already names "
                                      f"customer {holders[rendered]!r}")
                customer.parsed_identifiers.append(parsed)
            for k, claim in enumerate(customer.claims):
                if claim.provider not in config.claims_providers:
                    raise ConfigError(
                        f"{customer_path}.claims[{k}].provider",
                        f"unknown claims provider {claim.provider!r}")
            if customer.id in seen_ids:
                raise ConfigError(f"{customer_path}.id",
                                  f"duplicate customer id {customer.id!r}")
            if customer.claims:  # held in one store, named by the id
                if customer.id in claim_holders:
                    raise ConfigError(
                        f"{customer_path}.id", f"customer id {customer.id!r} "
                        f"already holds claims at {claim_holders[customer.id]}")
                claim_holders[customer.id] = customer_path
            seen_ids.add(customer.id)
        if problems := check_subject(vasp.subject()):
            raise ConfigError(path, "; ".join(problems))

    graph: dict[int, list[int]] = {}
    for a, neighbors in config.federation_graph.items():
        path = f"{source}.federation_graph.{a}"
        if a not in numbers:
            raise ConfigError(path, "unknown vasp_number")
        for b in neighbors:
            if (b := read(int, b, path)) not in numbers:
                raise ConfigError(path, f"unknown neighbor {b}")
            for x, y in ((a, b), (b, a)):
                if x != y and y not in graph.setdefault(x, []):
                    graph[x].append(y)
    config.federation_graph = graph
    return config


def load_config(path: str | Path) -> TopologyConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found") from None
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"not UTF-8 text at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}", f"invalid JSON: {exc.msg}") from None
    return parse_config(data, source=str(path))


def config_to_dict(config: TopologyConfig) -> dict:
    """The JSON form of ``config``, which ``parse_config`` reads back."""
    data = asdict(config)
    data["federation_graph"] = {str(k): sorted(v) for k, v in
                                sorted(config.federation_graph.items())}
    return data


def default_config() -> dict:
    """Three-VASP demo topology exercising every scenario."""
    carol_bare_key = hashlib.sha256(b"carol-self-custody-key").hexdigest()
    return {
        "consortium": "Open VASP TestNet Consortium",
        "seed": 42,
        "vasps": [
            {
                "vasp_number": 7,
                "organization_name": "ACME Digital Assets Ltd",
                "alt_domain_names": ["acmepay.com"],
                "incorporation_number_or_lei": "5493001KJTIIGC8Y1R12",
                "is_lei": True,
                "place_of_business": "22 Kendall Sq, Cambridge MA, USA",
                "jurisdiction": "Delaware Division of Corporations",
                "regulated_business_activity": "Exchange",
                "policy_object_identifier": "1.3.6.1.4.1.99999.7",
                "customers": [
                    {
                        "id": "alice",
                        "legal_name": "Alice Example",
                        "identifiers": ["alice@idp1.com", "alice$acmepay.com"],
                        "geographic_address": "10 Beacon St, Boston MA, USA",
                        "wallet": {"initial_balance": 500},
                        "claims": [
                            {"provider": "dmv", "attribute": "driving_license_number",
                             "value": "DL-555-0101"}
                        ],
                    },
                    {
                        "id": "carol",
                        "legal_name": "Carol Nakamura",
                        "identifiers": ["carol$acmepay.com", carol_bare_key],
                        "customer_number": "C-7788",
                    },
                ],
            },
            {
                "vasp_number": 9,
                "organization_name": "Beta Exchange GmbH",
                "alt_domain_names": ["betaex.com", "betaex.de"],
                "incorporation_number_or_lei": "HRB-204881-B",
                "is_lei": False,
                "place_of_business": "Friedrichstrasse 68, Berlin, DE",
                "jurisdiction": "Amtsgericht Charlottenburg",
                "regulated_business_activity": "Transfer",
                "policy_object_identifier": "1.3.6.1.4.1.99999.9",
                "customers": [
                    {
                        "id": "bob",
                        "legal_name": "Bob Jones",
                        "identifiers": ["bob@idp2.com", "bob$betaex.com"],
                        "national_id": "DE-ID-99887766",
                    },
                    {
                        "id": "dave",
                        "legal_name": "Dave Osei",
                        "identifiers": ["dave@idp2.com"],
                        "geographic_address": "5 Unter den Linden, Berlin, DE",
                    },
                ],
            },
            {
                "vasp_number": 3,
                "organization_name": "Gamma Custody Oy",
                "alt_domain_names": ["gammax.fi"],
                "incorporation_number_or_lei": "3120011FI556677",
                "is_lei": False,
                "place_of_business": "Mannerheimintie 12, Helsinki, FI",
                "jurisdiction": "Finnish Patent and Registration Office",
                "regulated_business_activity": "Custody",
                "policy_object_identifier": "1.3.6.1.4.1.99999.3",
                "customers": [
                    {
                        "id": "dave",
                        "legal_name": "Dave Osei",
                        "identifiers": ["dave@idp2.com"],
                        "customer_number": "GC-4411",
                    },
                ],
            },
        ],
        "idps": [
            {"domain": "idp1.com", "directory": ["alice@idp1.com"]},
            {"domain": "idp2.com", "directory": ["bob@idp2.com", "dave@idp2.com"]},
        ],
        "claims_providers": ["dmv"],
        "insurer": "crestline-insurance",
        "federation_graph": {"7": [9], "9": [3]},
        "scenario_params": {
            "S1": {
                "originator_customer": "alice",
                "originator_vasp": 7,
                "beneficiary_identifier": "bob@idp2.com",
                "beneficiary_name": "Bob Jones",
                "amount": 125,
                "grant_originator_consent": True,
                "grant_beneficiary_consent": True,
            },
            "S2": {
                "owner_customer": "alice",
                "requesting_vasp": 7,
                "attributes": ["driving_license_number"],
                "purpose": "travel-rule-customer-verification",
                "withdraw_before_fetch": False,
            },
            "S4": {
                "customer": "alice",
                "vasp": 7,
                "insurer_audit": True,
                "supervision_steps": 25,
            },
            "S5": {
                "originator_customer": "alice",
                "originator_vasp": 7,
                "beneficiary_identifier": "dave@idp2.com",
                "beneficiary_name": "Dave Osei",
                "amount": 50,
            },
        },
    }
