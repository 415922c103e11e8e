"""Topology configuration: consortium, VASPs, customers, federation graph.

Configs are JSON files with explicit keys. Parsing validates field types,
non-negative numbers and balances, each VASP's certificate subject (the
consortium PKI's ``check_subject``), and referential integrity (unique VASP
numbers, federation edges between configured VASPs, claims from configured
providers, parseable identifiers, one claims store per customer id) and
reports problems with their config path. All randomness in a run flows
from the single ``seed`` value here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .pki import BusinessActivity, EvSubjectInfo, check_subject
from .resolver import Unparseable, parse_identifier

SERVICE_NUMBER_BASE = 1000  # entity numbers >= this are reserved for services


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


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
    id: str
    legal_name: str
    identifiers: list[str] = field(default_factory=list)
    geographic_address: str = ""
    national_id: str = ""
    customer_number: str = ""
    birth_date: str = ""
    birth_place: str = ""
    wallet: WalletSpec | None = None
    claims: list[ClaimSpec] = field(default_factory=list)


@dataclass
class VaspConfig:
    vasp_number: int
    organization_name: str
    alt_domain_names: list[str]
    incorporation_number_or_lei: str
    is_lei: bool
    place_of_business: str
    jurisdiction: str
    regulated_business_activity: str
    policy_object_identifier: str
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


@dataclass
class TopologyConfig:
    consortium: str
    seed: int
    vasps: list[VaspConfig]
    idps: list[IdpConfig] = field(default_factory=list)
    claims_providers: list[str] = field(default_factory=list)
    insurer: str | None = None
    federation_graph: dict[int, list[int]] = field(default_factory=dict)
    scenario_params: dict[str, dict] = field(default_factory=dict)

    def neighbors(self, number: int) -> list[int]:
        return sorted(self.federation_graph.get(number, []))


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return data[key]


def _int(value, path: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(path, f"expected an integer, got {value!r}") from None


def _natural(value, path: str) -> int:
    number = _int(value, path)
    if number < 0:
        raise ConfigError(path, f"negative value {number}")
    return number


def _typed(value, typ: type, path: str):
    if not isinstance(value, typ):
        raise ConfigError(path, f"expected {typ.__name__}, got {value!r}")
    return value


def _get(data: dict, key: str, path: str, typ: type, default=None):
    """``data[key]``, of type ``typ``; required unless ``default`` is given."""
    value = _require(data, key, path) if default is None \
        else data.get(key, default)
    return _typed(value, typ, f"{path}.{key}")


def _items(data: dict, key: str, path: str, typ: type = dict,
           required: bool = False) -> list[tuple[str, object]]:
    """The config path and value of each ``typ`` in the list ``data[key]``."""
    items = _get(data, key, path, list, None if required else [])
    return [(f"{path}.{key}[{i}]", _typed(item, typ, f"{path}.{key}[{i}]"))
            for i, item in enumerate(items)]


def _identifier(value, path: str) -> str:
    try:
        parse_identifier(_typed(value, str, path))
    except Unparseable as exc:
        raise ConfigError(path, str(exc)) from None
    return value


def _parse_customer(data: dict, path: str) -> CustomerConfig:
    wallet = None
    if data.get("wallet"):
        w = _typed(data["wallet"], dict, f"{path}.wallet")
        wallet = WalletSpec(
            initial_balance=_natural(w.get("initial_balance", 0),
                                     f"{path}.wallet.initial_balance"),
            imported_key_balance=_natural(w.get("imported_key_balance", 0),
                                          f"{path}.wallet.imported_key_balance"))
    claim_specs = [ClaimSpec(provider=_require(c, "provider", claim_path),
                             attribute=_require(c, "attribute", claim_path),
                             value=_require(c, "value", claim_path))
                   for claim_path, c in _items(data, "claims", path)]
    return CustomerConfig(
        id=_get(data, "id", path, str),
        legal_name=_get(data, "legal_name", path, str),
        identifiers=[_identifier(ident, f"{path}.identifiers[{i}]")
                     for i, ident in enumerate(data.get("identifiers", []))],
        geographic_address=data.get("geographic_address", ""),
        national_id=data.get("national_id", ""),
        customer_number=data.get("customer_number", ""),
        birth_date=data.get("birth_date", ""),
        birth_place=data.get("birth_place", ""),
        wallet=wallet,
        claims=claim_specs)


def parse_config(data: dict, source: str = "config") -> TopologyConfig:
    seed = _int(_require(data, "seed", source), f"{source}.seed")
    providers = _get(data, "claims_providers", source, list, [])

    vasps = []
    numbers: set[int] = set()
    claim_holders: dict[str, str] = {}  # customer id -> its config path
    for path, v in _items(data, "vasps", source):
        number = _natural(_require(v, "vasp_number", path), f"{path}.vasp_number")
        if number in numbers:
            raise ConfigError(f"{path}.vasp_number", f"duplicate value {number}")
        if number >= SERVICE_NUMBER_BASE:
            raise ConfigError(f"{path}.vasp_number",
                              f"values >= {SERVICE_NUMBER_BASE} are reserved")
        numbers.add(number)
        activity = _get(v, "regulated_business_activity", path, str, "Exchange")
        if activity not in {a.value for a in BusinessActivity}:
            raise ConfigError(f"{path}.regulated_business_activity",
                              f"unknown activity {activity!r}")
        customers = []
        seen_ids = set()
        for customer_path, c in _items(v, "customers", path):
            customer = _parse_customer(c, customer_path)
            for k, claim in enumerate(customer.claims):
                if claim.provider not in providers:
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
            customers.append(customer)
        vasp = VaspConfig(
            vasp_number=number,
            organization_name=_get(v, "organization_name", path, str),
            alt_domain_names=[d for _, d in _items(
                v, "alt_domain_names", path, str, required=True)],
            incorporation_number_or_lei=_get(
                v, "incorporation_number_or_lei", path, str, ""),
            is_lei=bool(v.get("is_lei", False)),
            place_of_business=_get(v, "place_of_business", path, str, ""),
            jurisdiction=_get(v, "jurisdiction", path, str),
            regulated_business_activity=activity,
            policy_object_identifier=_get(v, "policy_object_identifier", path,
                                          str, "1.3.6.1.4.1.0"),
            customers=customers,
            treasury=_natural(v.get("treasury", 1_000_000), f"{path}.treasury"))
        problems = check_subject(vasp.subject())
        if problems:
            raise ConfigError(path, "; ".join(problems))
        vasps.append(vasp)
    if not vasps:
        raise ConfigError(f"{source}.vasps", "at least one VASP is required")

    graph: dict[int, list[int]] = {}
    for key, neighbors in _get(data, "federation_graph", source, dict,
                               {}).items():
        path = f"{source}.federation_graph.{key}"
        a = _int(key, path)
        if a not in numbers:
            raise ConfigError(path, "unknown vasp_number")
        for b in _typed(neighbors, list, path):
            b = _int(b, path)
            if b not in numbers:
                raise ConfigError(path, f"unknown neighbor {b}")
            if b == a:
                continue
            graph.setdefault(a, [])
            graph.setdefault(b, [])
            if b not in graph[a]:
                graph[a].append(b)
            if a not in graph[b]:
                graph[b].append(a)

    idps = []
    for idp_path, d in _items(data, "idps", source):
        idps.append(IdpConfig(
            domain=_get(d, "domain", idp_path, str),
            directory=[_identifier(ident, f"{idp_path}.directory[{k}]")
                       for k, ident in enumerate(d.get("directory", []))]))

    return TopologyConfig(
        consortium=data.get("consortium", "vasp-consortium"),
        seed=seed,
        vasps=vasps,
        idps=idps,
        claims_providers=providers,
        insurer=data.get("insurer"),
        federation_graph=graph,
        scenario_params={k: dict(_typed(v, dict, f"{source}.scenario_params.{k}"))
                         for k, v in _get(data, "scenario_params", source, dict,
                                          {}).items()})


def load_config(path: str | Path) -> TopologyConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found") from None
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
