"""Build a ready-to-run simulated world from a topology configuration.

Creates the consortium root, drafts identity plus transaction- and
claims-signing certificates for every VASP and identity certificates for
the remote service actors (claims stores, authorization servers, insurer),
and issues them all as one batch under one signed tree head. Provisions
customer wallet devices, funds the ledger genesis, registers the identifiers
``parse_config`` admitted (checking none again: of the IdPs it needs only
their domains), and wires claims providers and stores. Everything derives
from the single config seed, so two builds of the same config are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from .. import claims as claims_mod
from .. import crypto, pki, wallet
from ..config import SERVICE_NUMBER_BASE, TopologyConfig
from ..ledger import Ledger
from ..travel_rule import CustomerRecord
from . import events
from .nodes import AuthServerNode, ClaimsStoreNode, InsurerNode, VaspNode
from .sim import FaultConfig, SecureChannel, Simulation
from .trace import Assertion, check_actor

CERT_VALIDITY = 1_000_000
DEFAULT_STACK_COMPONENTS = ("bootloader", "wallet-os", "signer-app")
CHECKPOINT_INTERVAL = 10  # attestation checkpoint every N ticks


def wallet_device_id(customer_id: str, vasp_number: int) -> str:
    """The id of the wallet device a customer holds at a VASP."""
    return f"wdev:{customer_id}@{vasp_number}"


@dataclass
class World:
    """A built world. It and whoever built its nodes own them; its
    simulator only refers to their handlers and to ``_on_tick``, so the
    world holds no reference cycle and is freed as soon as it is dropped."""

    config: TopologyConfig
    sim: Simulation
    root: pki.RootAuthority
    ledger: Ledger
    registry: wallet.WalletRegistry
    trust: pki.TrustContext
    vasps: dict[int, VaspNode]
    stores: dict[str, ClaimsStoreNode]
    auth_servers: dict[str, AuthServerNode]
    insurer: InsurerNode | None
    devices: dict[str, wallet.WalletDevice]
    _channels: dict[frozenset, SecureChannel] = field(default_factory=dict)

    def channel_between(self, a, b) -> SecureChannel:
        """Establish (once) and return the channel between two nodes."""
        key = frozenset((a.name, b.name))
        if key not in self._channels:
            self._channels[key] = self.sim.establish_channel(a, b)
        return self._channels[key]

    def federation_channels(self) -> dict[int, list[SecureChannel]]:
        """Channels along every federation edge, keyed by VASP number."""
        out: dict[int, list[SecureChannel]] = {n: [] for n in sorted(self.vasps)}
        for a in sorted(self.config.federation_graph):
            for b in self.config.neighbors(a):
                if a < b:
                    channel = self.channel_between(self.vasps[a], self.vasps[b])
                    out[a].append(channel)
                    out[b].append(channel)
        return out

    def confirm_block(self):
        block = self.ledger.confirm_block()
        self.sim.emit("ledger", events.BLOCK_CONFIRMED, block.height,
                      len(block.tx_ids), block.block_hash.hex()[:16])
        return block

    def assert_that(self, name: str, passed: bool, note: str = "") -> bool:
        self.sim.trace.assertions.append(Assertion(name, bool(passed), note))
        return bool(passed)

    def _on_tick(self, now: int) -> None:
        if now % CHECKPOINT_INTERVAL == 0:
            for number in sorted(self.vasps):
                self.vasps[number].take_checkpoints()


def build_world(config: TopologyConfig, scenario: str = "adhoc",
                faults: FaultConfig | None = None) -> World:
    master = crypto.seed_from_int(config.seed)
    sim = Simulation(config.seed, scenario=scenario, faults=faults)

    root = pki.create_consortium_root(crypto.derive_seed(master, "root"))
    service_numbers = count(SERVICE_NUMBER_BASE)
    drafts: list[pki.Certificate] = []

    def draft_service(name: str, seed_label: str) -> crypto.KeyPair:
        """Draft service actor ``name``'s identity certificate; its key."""
        key = crypto.generate_keypair(crypto.derive_seed(master, seed_label))
        number = next(service_numbers)
        subject = pki.EvSubjectInfo(
            organization_name=name,
            alt_domain_names=(f"{name.partition(':')[2] or name}.svc".lower(),),
            incorporation_number_or_lei=f"SVC-{number}",
            is_lei=False,
            place_of_business=config.consortium,
            jurisdiction=config.consortium,
            vasp_number=number,
            regulated_business_activity=pki.BusinessActivity.FINANCIAL_SERVICES,
            policy_object_identifier="1.3.6.1.4.1.99999.1000",
        )
        drafts.append(root.draft_identity_cert(subject, key.public_key, 0,
                                               CERT_VALIDITY))
        return key

    trust = pki.TrustContext(root.public_key, lambda: root.revocation_list,
                             lambda: sim.now)
    registry = wallet.WalletRegistry()
    sim.emit("sim", events.ROOT_CREATED, repr(config.consortium),
             root.public_key.hex()[:16])

    # Wallet devices and genesis funding are prepared before the ledger
    # exists; balances are fixed at genesis and conserved afterwards.
    approved_stacks: set[bytes] = set()
    devices: dict[str, wallet.WalletDevice] = {}
    genesis: list[tuple[bytes, int]] = []
    stack = [(name, crypto.digest(crypto.derive_seed(master, f"stack:{name}")))
             for name in DEFAULT_STACK_COMPONENTS]
    for vcfg in config.vasps:
        for ccfg in vcfg.customers:
            if ccfg.wallet is None:
                continue
            device_id = wallet_device_id(ccfg.id, vcfg.vasp_number)
            device = wallet.WalletDevice(
                device_id,
                crypto.derive_seed(master, f"device:{device_id}"),
                stack)
            approved_stacks.add(device.boot_digest)
            handle = device.generate_key(migratable=False)
            key = device.slot(handle).public_key
            if ccfg.wallet.initial_balance > 0:
                genesis.append((key, ccfg.wallet.initial_balance))
            if ccfg.wallet.imported_key_balance > 0:
                imported = crypto.generate_keypair(
                    crypto.derive_seed(master, f"imported:{device_id}"))
                device.import_key(imported)
                genesis.append((imported.public_key,
                                ccfg.wallet.imported_key_balance))
            devices[device_id] = device
            trust.device_attestation_keys[device_id] = device.attestation_public_key
            registry.set_private(device_id, 0)

    # Every certificate is drafted in serial order and issued as one
    # batch: each VASP's identity, transaction and claims certificates,
    # then the identity certificates of each claims holder's store and
    # authorization server, and of the insurer.
    vasp_keys: dict[int, tuple[crypto.KeyPair, ...]] = {}
    for vcfg in config.vasps:
        n = vcfg.vasp_number
        identity, tx, claims_key = vasp_keys[n] = tuple(
            crypto.generate_keypair(crypto.derive_seed(master, f"vasp:{n}:{role}"))
            for role in ("identity", "transaction", "claims"))
        genesis.append((tx.public_key, vcfg.treasury))
        identity_cert = root.draft_identity_cert(
            vcfg.subject(), identity.public_key, 0, CERT_VALIDITY)
        drafts.append(identity_cert)
        for purpose, key in ((pki.CertPurpose.TRANSACTION_SIGNING, tx),
                             (pki.CertPurpose.CLAIMS_SIGNING, claims_key)):
            drafts.append(root.draft_signing_cert(
                identity_cert, purpose, key.public_key, 0, CERT_VALIDITY))
    service_keys = {name: draft_service(name, seed_label)
                    for vcfg in config.vasps for ccfg in vcfg.customers
                    if ccfg.claims for name, seed_label in (
                        (f"store:{ccfg.id}", f"store-id:{ccfg.id}"),
                        (f"authsrv:{ccfg.id}", f"authsrv-id:{ccfg.id}"))}
    if config.insurer:
        name = f"insurer:{config.insurer}"
        service_keys[name] = draft_service(name, name)
    issued = iter(root.issue(drafts))
    for vcfg in config.vasps:
        member = pki.VaspCerts(next(issued), next(issued), next(issued))
        trust.add_member(member)
        sim.emit("sim", events.IDENTITY_CERT_ISSUED, "identity",
                 member.identity.serial, vcfg.vasp_number,
                 repr(vcfg.organization_name))
        for cert in (member.transaction, member.claims):
            sim.emit("sim", events.SIGNING_CERT_ISSUED, "signing",
                     cert.purpose.value, cert.serial, vcfg.vasp_number)
    # Service actor name -> (name, identity certificate, key), a Node's
    # arguments after its simulation.
    services = {name: (name, next(issued), key)
                for name, key in service_keys.items()}
    ledger = Ledger(genesis)

    idp_domains = {idp.domain.lower() for idp in config.idps}

    vasps: dict[int, VaspNode] = {}
    for vcfg in config.vasps:
        n = vcfg.vasp_number
        identity, tx, claims_key = vasp_keys[n]
        node = VaspNode(sim, n, identity, tx, claims_key, ledger, trust,
                        registry)
        sim.register_actor(node.name, node.handle)
        vasps[n] = node
        for ccfg in vcfg.customers:
            record = CustomerRecord(
                customer_id=ccfg.id,
                legal_name=ccfg.legal_name,
                geographic_address=ccfg.geographic_address or None,
                national_id=ccfg.national_id or None,
                customer_number=ccfg.customer_number or None,
                birth_info=((ccfg.birth_date, ccfg.birth_place)
                            if ccfg.birth_date and ccfg.birth_place else None),
            )
            node.add_customer(record, ccfg.parsed_identifiers, idp_domains)
            if ccfg.wallet is not None:
                device_id = wallet_device_id(ccfg.id, n)
                node.devices[device_id] = devices[device_id]
        sim.emit(node.name, events.ACTOR_READY, len(vcfg.customers), vcfg.treasury)

    # Claims infrastructure: providers, then a personal store plus
    # authorization server for every customer holding claims.
    providers: dict[str, claims_mod.ClaimsProvider] = {}
    for name in config.claims_providers:
        check_actor(f"cp:{name}")  # the actor of its claims' events
        provider = claims_mod.ClaimsProvider(
            name, crypto.derive_seed(master, f"provider:{name}"))
        providers[name] = provider
        trust.provider_keys[name] = provider.public_key

    stores: dict[str, ClaimsStoreNode] = {}
    auth_servers: dict[str, AuthServerNode] = {}
    for vcfg in config.vasps:
        for ccfg in vcfg.customers:
            if not ccfg.claims:
                continue
            owner = ccfg.id
            server = claims_mod.AuthorizationServer(
                crypto.derive_seed(master, f"authsrv-sign:{owner}"))
            store = claims_mod.ClaimsStore(
                owner, crypto.derive_seed(master, f"store:{owner}"),
                authorization_server_key=server.public_key)
            server.bind_store(store)

            store_node = ClaimsStoreNode(store, sim, *services[f"store:{owner}"],
                                         trust)
            server_node = AuthServerNode(server, sim, *services[f"authsrv:{owner}"],
                                         trust)
            sim.register_actor(store_node.name, store_node.handle)
            sim.register_actor(server_node.name, server_node.handle)
            stores[owner] = store_node
            auth_servers[owner] = server_node

            for spec in ccfg.claims:
                claim = providers[spec.provider].issue_claim(
                    owner, spec.attribute, spec.value, 0, CERT_VALIDITY)
                store.add_claim(claim)
                sim.emit(f"cp:{spec.provider}", events.CLAIM_ISSUED, owner,
                         spec.attribute, payload=claim)

    insurer = None
    if config.insurer:
        insurer = InsurerNode(approved_stacks, sim,
                              *services[f"insurer:{config.insurer}"], trust)
        sim.register_actor(insurer.name, insurer.handle)

    world = World(
        config=config, sim=sim, root=root, ledger=ledger, registry=registry,
        trust=trust, vasps=vasps, stores=stores, auth_servers=auth_servers,
        insurer=insurer, devices=devices)
    sim.add_tick_hook(world._on_tick)
    return world
