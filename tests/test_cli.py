"""CLI: init, run, report; exit codes and workspace artifacts."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from test_scenarios import PINNED, line_config
from test_wallet import corrupt_signature
from vasptrust import codec, pki
from vasptrust.cli import main
from vasptrust.config import (ConfigError, CustomerConfig, config_to_dict,
                              default_config, load_config, parse_config)
from vasptrust.netsim.trace import parse_trace_text
from vasptrust.netsim.world import CHECKPOINT_INTERVAL, build_world
from vasptrust.resolver import parse_identifier
from vasptrust.wallet import WalletDevice


def two_vasp_config():
    config = default_config()
    config["vasps"] = config["vasps"][:2]
    config["federation_graph"] = {"7": [9]}
    config["insurer"] = None
    config["vasps"][0]["customers"][0]["claims"] = []
    config["vasps"][0]["customers"][0]["wallet"] = None
    return config


@pytest.fixture
def workspace(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(two_vasp_config()))
    ws = tmp_path / "ws"
    assert main(["init", "--config", str(config_path),
                 "--workspace", str(ws)]) == 0
    return ws


@pytest.mark.parametrize("config", [
    parse_config(default_config()), line_config(5, ring=True)],
    ids=["demo", "ring"])
def test_config_to_dict_round_trips_through_json(config, tmp_path):
    data = config_to_dict(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data, indent=2))
    assert config_to_dict(load_config(path)) == data


def test_config_to_dict_holds_no_parsed_identifier():
    # parse_config keeps each customer's parsed identifiers for
    # build_world, but config.json holds only the fields a config is read
    # from, and reads back to an equal config.
    config = parse_config(default_config())
    data = config_to_dict(config)
    fields = {f.name for f in dataclasses.fields(CustomerConfig)}
    assert all(set(customer) == fields for vasp in data["vasps"]
               for customer in vasp["customers"])
    assert "parsed" not in json.dumps(data)
    assert config_to_dict(parse_config(data)) == data


def test_config_with_another_seed_registers_every_identifier():
    # vtn run --seed-override and perfbench's scenarios set-up both build a
    # world from dataclasses.replace(config, seed=...).
    config = dataclasses.replace(parse_config(default_config()), seed=777)
    world = build_world(config)
    for vcfg in config.vasps:
        assert world.vasps[vcfg.vasp_number].resolver.local_identifiers() \
            == sorted({parse_identifier(s).render() for ccfg in vcfg.customers
                       for s in ccfg.identifiers})
    assert len(world.sim.trace.find("resolver.identifier_registered")) == 8


def test_copied_customer_record_registers_its_identifiers():
    # A customer record copied after parse_config, or built by hand, still
    # registers the identifiers it lists.
    config = parse_config(default_config())
    vasp9 = config.vasps[1]
    vasp9.customers[0] = dataclasses.replace(vasp9.customers[0],
                                             legal_name="Bob Jones")
    vasp9.customers.append(CustomerConfig(id="erin", legal_name="Erin Ruiz",
                                          identifiers=["Erin$BetaEx.com"]))
    resolver = build_world(config).vasps[9].resolver
    assert resolver.local_identifiers() == \
        ["Erin$betaex.com", "bob$betaex.com", "bob@idp2.com", "dave@idp2.com"]
    assert resolver.local_customer_for(parse_identifier("bob@idp2.com")) == "bob"


def test_idp_directory_compares_rendered_forms():
    # An IdP directory entry and a customer's identifier compare as
    # rendered: domains in any case, local parts as written.
    config = default_config()
    config["idps"][1]["directory"].append("Dave@IDP2.com")
    _vasp(config, 1)["customers"][1]["identifiers"].append("Dave@Idp2.com")
    admitted = parse_config(config).vasps[1].customers[1].parsed_identifiers
    assert [i.render() for i in admitted] == ["dave@idp2.com", "Dave@idp2.com"]
    config["idps"][1]["directory"] = ["bob@idp2.com", "Dave@IDP2.com"]
    with pytest.raises(ConfigError) as refused:
        parse_config(config)
    assert str(refused.value) == \
        "config.vasps[1].customers[1].identifiers[0]: unknown at IdP idp2.com"
    config["idps"][0]["directory"] = []  # an empty directory lists no one
    with pytest.raises(ConfigError) as refused:
        parse_config(config)
    assert refused.value.path == "config.vasps[0].customers[0].identifiers[0]"


def test_identifier_listed_twice_for_one_customer_is_admitted():
    config = default_config()
    _alice(config)["identifiers"].append("alice$ACMEPAY.com")
    world = build_world(parse_config(config))
    assert world.vasps[7].resolver.local_customer_for(
        parse_identifier("alice$acmepay.com")) == "alice"


def _vasp(config, i=0):
    return config["vasps"][i]


def _alice(config):
    return config["vasps"][0]["customers"][0]


# Each edit of the demo config that parse_config refuses, with the path of
# the ConfigError it raises.
REFUSALS = {
    "missing_seed": (lambda c: c.pop("seed"), "config.seed"),
    "seed": (lambda c: c.update(seed="x"), "config.seed"),
    "no_vasps": (lambda c: c.update(vasps=[]), "config.vasps"),
    "empty_consortium": (lambda c: c.update(consortium=""), "config.consortium"),
    "blank_consortium": (lambda c: c.update(consortium=" \t"),
                         "config.consortium"),
    "missing_vasp_number": (lambda c: _vasp(c).pop("vasp_number"),
                            "config.vasps[0].vasp_number"),
    "vasp_number": (lambda c: _vasp(c).update(vasp_number="x"),
                    "config.vasps[0].vasp_number"),
    "negative_vasp_number": (lambda c: _vasp(c).update(vasp_number=-1),
                             "config.vasps[0].vasp_number"),
    "duplicate_vasp_number": (lambda c: _vasp(c, 1).update(vasp_number=7),
                              "config.vasps[1].vasp_number"),
    "reserved_vasp_number": (lambda c: _vasp(c).update(vasp_number=1000),
                             "config.vasps[0].vasp_number"),
    "activity": (lambda c: _vasp(c).update(
        regulated_business_activity="Mining"),
        "config.vasps[0].regulated_business_activity"),
    "missing_organization_name": (
        lambda c: _vasp(c).pop("organization_name"),
        "config.vasps[0].organization_name"),
    "missing_alt_domain_names": (lambda c: _vasp(c).pop("alt_domain_names"),
                                 "config.vasps[0].alt_domain_names"),
    "alt_domain_names_string": (
        lambda c: _vasp(c).update(alt_domain_names="acmepay.com"),
        "config.vasps[0].alt_domain_names"),
    "alt_domain_name_type": (lambda c: _vasp(c).update(alt_domain_names=[5]),
                             "config.vasps[0].alt_domain_names[0]"),
    "vasp_entry": (lambda c: c["vasps"].append(5), "config.vasps[3]"),
    "vasps_type": (lambda c: c.update(vasps={"7": {}}), "config.vasps"),
    "customer_entry": (lambda c: _vasp(c)["customers"].append("erin"),
                       "config.vasps[0].customers[2]"),
    "missing_jurisdiction": (lambda c: _vasp(c).pop("jurisdiction"),
                             "config.vasps[0].jurisdiction"),
    "jurisdiction_type": (lambda c: _vasp(c).update(jurisdiction=5),
                          "config.vasps[0].jurisdiction"),
    "blank_jurisdiction": (lambda c: _vasp(c).update(jurisdiction=" "),
                           "config.vasps[0]"),
    "malformed_lei": (lambda c: _vasp(c).update(
        incorporation_number_or_lei="5493-001"), "config.vasps[0]"),
    "blank_organization_name": (
        lambda c: _vasp(c).update(organization_name=" "), "config.vasps[0]"),
    "claims_at_two_vasps": (
        lambda c: _vasp(c, 1)["customers"].append(
            dict(_alice(c), identifiers=["alice@idp1.com"])),
        "config.vasps[1].customers[2].id"),
    "treasury": (lambda c: _vasp(c).update(treasury="lots"),
                 "config.vasps[0].treasury"),
    "negative_treasury": (lambda c: _vasp(c).update(treasury=-5),
                          "config.vasps[0].treasury"),
    "missing_customer_id": (lambda c: _alice(c).pop("id"),
                            "config.vasps[0].customers[0].id"),
    "missing_legal_name": (lambda c: _alice(c).pop("legal_name"),
                           "config.vasps[0].customers[0].legal_name"),
    "duplicate_customer_id": (
        lambda c: _vasp(c)["customers"][1].update(id="alice"),
        "config.vasps[0].customers[1].id"),
    "identifier": (lambda c: _alice(c).update(identifiers=["no separator"]),
                   "config.vasps[0].customers[0].identifiers[0]"),
    "identifier_type": (lambda c: _alice(c).update(identifiers=[5]),
                        "config.vasps[0].customers[0].identifiers[0]"),
    "wallet_balance": (
        lambda c: _alice(c)["wallet"].update(initial_balance="x"),
        "config.vasps[0].customers[0].wallet.initial_balance"),
    "imported_key_balance": (
        lambda c: _alice(c)["wallet"].update(imported_key_balance=None),
        "config.vasps[0].customers[0].wallet.imported_key_balance"),
    "negative_wallet_balance": (
        lambda c: _alice(c)["wallet"].update(initial_balance=-1),
        "config.vasps[0].customers[0].wallet.initial_balance"),
    "wallet_type": (lambda c: _alice(c).update(wallet=5),
                    "config.vasps[0].customers[0].wallet"),
    "negative_imported_key_balance": (
        lambda c: _alice(c)["wallet"].update(imported_key_balance=-1),
        "config.vasps[0].customers[0].wallet.imported_key_balance"),
    "claim_entry": (lambda c: _alice(c)["claims"].append(None),
                    "config.vasps[0].customers[0].claims[1]"),
    "missing_claim_attribute": (lambda c: _alice(c)["claims"][0].pop(
        "attribute"), "config.vasps[0].customers[0].claims[0].attribute"),
    "claims_provider": (lambda c: c.update(claims_providers=[]),
                        "config.vasps[0].customers[0].claims[0].provider"),
    "graph_key": (lambda c: c.update(federation_graph={"x": [9]}),
                  "config.federation_graph.x"),
    "graph_unknown_key": (lambda c: c.update(federation_graph={"5": [9]}),
                          "config.federation_graph.5"),
    "graph_neighbour": (lambda c: c.update(federation_graph={"7": ["x"]}),
                        "config.federation_graph.7"),
    "graph_unknown_neighbour": (
        lambda c: c.update(federation_graph={"7": [5]}),
        "config.federation_graph.7"),
    "missing_idp_domain": (lambda c: c["idps"][0].pop("domain"),
                           "config.idps[0].domain"),
    "idp_entry": (lambda c: c["idps"].append("idp3.com"), "config.idps[2]"),
    "graph_value": (lambda c: c.update(federation_graph={"7": 9}),
                    "config.federation_graph.7"),
    "graph_type": (lambda c: c.update(federation_graph=[[7, 9]]),
                   "config.federation_graph"),
    "idp_directory": (lambda c: c["idps"][1].update(
        directory=["bob@idp2.com", "nope"]), "config.idps[1].directory[1]"),
    "idp_directory_type": (lambda c: c["idps"][0].update(directory=[None]),
                           "config.idps[0].directory[0]"),
    "scenario_params": (lambda c: c.update(scenario_params=["S1"]),
                        "config.scenario_params"),
    "scenario_params_entry": (
        lambda c: c["scenario_params"].update(S2="alice"),
        "config.scenario_params.S2"),
    "consortium_type": (lambda c: c.update(consortium=5), "config.consortium"),
    "seed_range": (lambda c: c.update(seed=2**130), "config.seed"),
    "negative_seed_range": (lambda c: c.update(seed=-2**127 - 1),
                            "config.seed"),
    "is_lei_type": (lambda c: _vasp(c).update(is_lei="no"),
                    "config.vasps[0].is_lei"),
    "insurer_type": (lambda c: c.update(insurer=5), "config.insurer"),
    "geographic_address_type": (
        lambda c: _alice(c).update(geographic_address=5),
        "config.vasps[0].customers[0].geographic_address"),
    "national_id_type": (lambda c: _alice(c).update(national_id=["DE-1"]),
                         "config.vasps[0].customers[0].national_id"),
    "identifiers_type": (lambda c: _alice(c).update(identifiers=None),
                         "config.vasps[0].customers[0].identifiers"),
    "claim_value_type": (lambda c: _alice(c)["claims"][0].update(value=None),
                         "config.vasps[0].customers[0].claims[0].value"),
    "graph_infinite_neighbour": (
        lambda c: c.update(federation_graph={"7": [float("inf")]}),
        "config.federation_graph.7"),
    "idp_unlisted_identifier": (
        lambda c: _alice(c)["identifiers"].append("zed@idp1.com"),
        "config.vasps[0].customers[0].identifiers[2]"),
    "duplicate_idp_domain": (
        lambda c: c["idps"].append({"domain": "IDP1.com", "directory": []}),
        "config.idps[2].domain"),
    "duplicate_claims_provider": (
        lambda c: c.update(claims_providers=["dmv", "dmv"]),
        "config.claims_providers[1]"),
    "float_treasury": (lambda c: _vasp(c).update(treasury=12.9),
                       "config.vasps[0].treasury"),
    "bool_vasp_number": (lambda c: _vasp(c).update(vasp_number=True),
                         "config.vasps[0].vasp_number"),
    "float_wallet_balance": (
        lambda c: _alice(c)["wallet"].update(initial_balance=1.0),
        "config.vasps[0].customers[0].wallet.initial_balance"),
    "float_seed": (lambda c: c.update(seed=42.5), "config.seed"),
    "bool_seed": (lambda c: c.update(seed=False), "config.seed"),
    "float_graph_neighbour": (
        lambda c: c.update(federation_graph={"7": [9.0]}),
        "config.federation_graph.7"),
    "graph_key_not_decimal": (
        lambda c: c.update(federation_graph={" 0_7": [9]}),
        "config.federation_graph. 0_7"),
}


# Refusals deep in the config, each with its whole message.
MESSAGES = {
    "deep_identifier": (
        lambda c: c["vasps"][1]["customers"][1].update(identifiers=["dave@"]),
        "config.vasps[1].customers[1].identifiers[0]: "
        "identifier needs local and domain parts"),
    "identifier_at_two_customers": (
        lambda c: c["vasps"][1]["customers"][1]["identifiers"].append(
            "bob$BetaEx.com"),
        "config.vasps[1].customers[1].identifiers[1]: "
        "'bob$betaex.com' already names customer 'bob'"),
    "payid_on_another_vasps_domain": (
        lambda c: c["vasps"][2]["customers"][0]["identifiers"].append(
            "bob$BetaEx.com"),
        "config.vasps[2].customers[0].identifiers[1]: "
        "betaex.com is not a domain of this VASP"),
    "graph_key": (lambda c: c.update(federation_graph={"x": [9]}),
                  "config.federation_graph.x: expected an integer, got 'x'"),
    "graph_unknown_key": (lambda c: c.update(federation_graph={"5": [9]}),
                          "config.federation_graph.5: unknown vasp_number"),
    "idp_directory": (
        lambda c: c["idps"][1].update(directory=["bob@idp2.com", "nope"]),
        "config.idps[1].directory[1]: not an identifier: 'nope'"),
    "missing_legal_name": (
        lambda c: c["vasps"][1]["customers"][1].pop("legal_name"),
        "config.vasps[1].customers[1].legal_name: missing required field"),
    "claim_value_type": (
        lambda c: c["vasps"][0]["customers"][0]["claims"][0].update(value=None),
        "config.vasps[0].customers[0].claims[0].value: expected str, got None"),
}


@pytest.mark.parametrize("edit, message", MESSAGES.values(), ids=MESSAGES)
def test_config_refusal_says_where_and_why(edit, message):
    config = default_config()
    edit(config)
    with pytest.raises(ConfigError) as refused:
        parse_config(config)
    assert str(refused.value) == message
    assert refused.value.path == message.partition(": ")[0]


@pytest.mark.parametrize("edit, path", REFUSALS.values(), ids=REFUSALS)
def test_config_refusal_names_its_path(edit, path):
    config = default_config()
    parse_config(config)
    edit(config)
    with pytest.raises(ConfigError) as refused:
        parse_config(config)
    assert refused.value.path == path


def _nodes(value, path=()):
    """The key path of every value inside a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield path + (key,)
        if isinstance(item, (dict, list)):
            yield from _nodes(item, path + (key,))


@pytest.mark.parametrize("where", list(_nodes(default_config())),
                         ids=lambda where: ".".join(map(str, where)))
def test_every_config_value_is_refused_or_builds(where):
    # Whatever a value of the demo config is replaced by, parse_config
    # refuses it with a ConfigError or returns a config that builds.
    for value in (None, 5, -1, "x", [], {}, True):
        config = default_config()
        node = config
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        try:
            parsed = parse_config(config)
        except ConfigError:
            continue
        build_world(parsed, scenario="any")


def test_unlisted_idp_identifier_is_config_error(tmp_path, capsys):
    config = two_vasp_config()
    _alice(config)["identifiers"].append("zed@idp1.com")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["init", "--config", str(path),
                 "--workspace", str(tmp_path / "w")]) == 2
    err = capsys.readouterr().err
    assert "customers[0].identifiers[2]" in err and "idp1.com" in err


@pytest.mark.parametrize("command", ["init", "run"])
def test_empty_consortium_is_config_error(tmp_path, capsys, command):
    # Every service's subject is named after the consortium: a blank name
    # is refused as a config error, exit 2, not a certificate traceback.
    config, workspace = default_config(), tmp_path / "w"
    path = tmp_path / "topology.json"
    path.write_text(json.dumps(config))
    assert main(["init", "--config", str(path),
                 "--workspace", str(workspace)]) == 0
    config["consortium"] = ""
    if command == "init":
        path.write_text(json.dumps(config))
        args = ["init", "--config", str(path)]
    else:
        (workspace / "config.json").write_text(json.dumps(config))
        args = ["run", "--scenario", "S1"]
    capsys.readouterr()
    assert main([*args, "--workspace", str(workspace)]) == 2
    err = capsys.readouterr().err
    assert ".consortium" in err and "Traceback" not in err


def test_empty_wallet_has_default_balances():
    config = default_config()
    _alice(config)["wallet"] = {}
    world = build_world(parse_config(config), scenario="S4")
    assert "wdev:alice@7" in world.devices


def test_zero_treasury_and_balances_are_allowed():
    config = default_config()
    _vasp(config)["treasury"] = 0
    _alice(config)["wallet"].update(initial_balance=0, imported_key_balance=0)
    world = build_world(parse_config(config), scenario="S2")
    assert world.config.vasps[0].treasury == 0
    assert world.config.vasps[0].customers[0].wallet.initial_balance == 0


@pytest.mark.parametrize("text, where", [
    (None, ""), ("{\n  \"seed\": 1,\n  oops\n}", ":3")])
def test_load_config_refusal_names_its_path(tmp_path, text, where):
    path = tmp_path / "topology.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError) as refused:
        load_config(path)
    assert refused.value.path == f"{path}{where}"


def test_decimal_strings_read_as_integers():
    # JSON object keys are strings, so a federation_graph key is read from
    # one; any integer field reads a decimal string the same way.
    config = default_config()
    _vasp(config).update(treasury="12")
    config["seed"] = "-3"
    parsed = parse_config(config)
    assert parsed.vasps[0].treasury == 12 and parsed.seed == -3
    assert parsed.neighbors(7) == [9]


def test_init_refuses_a_payid_on_another_vasps_domain(tmp_path, capsys):
    # Only a domain's holder serves its PayIDs: VASP 3 may not list one on
    # betaex.com, which only VASP 9's subject names, in any case. A PayID
    # on one of its own domains, in another case, is admitted.
    config = default_config()
    config["vasps"][1]["customers"][1]["identifiers"].append("dave$BETAEX.de")
    parse_config(config)
    config["vasps"][2]["customers"][0]["identifiers"].append("bob$betaex.com")
    path = tmp_path / "squat.json"
    path.write_text(json.dumps(config))
    assert main(["init", "--config", str(path),
                 "--workspace", str(tmp_path / "w")]) == 2
    err = capsys.readouterr().err
    assert f"{path}.vasps[2].customers[0].identifiers[1]: betaex.com" in err
    assert "Traceback" not in err
    assert not (tmp_path / "w").exists()


def test_unreadable_config_file_is_config_error(tmp_path, capsys):
    directory = tmp_path / "topology.d"
    directory.mkdir()
    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(bytes([0xFF, 0xFE, 0x7B]))
    for path in (directory, not_utf8):
        with pytest.raises(ConfigError) as refused:
            load_config(path)
        assert refused.value.path == str(path)
        assert main(["init", "--config", str(path),
                     "--workspace", str(tmp_path / "w")]) == 2
        assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_name_the_trace_cannot_hold_is_usage_error(tmp_path, workspace,
                                                   capsys):
    # A configured name holding " key=" would read back as two trace
    # fields: vtn refuses it as it emits it, with exit 2 and no trace.
    config = default_config()
    _alice(config)["id"] = "al ice=x"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["init", "--config", str(path),
                 "--workspace", str(tmp_path / "w")]) == 2
    assert "would not parse back" in capsys.readouterr().err
    assert main(["run", "--scenario", "S1", "--workspace", str(workspace),
                 "--override", "beneficiary_identifier=bob x=y@idp2.com"]) == 2
    assert "would not parse back" in capsys.readouterr().err
    assert not (workspace / "traces" / "S1.trace").exists()


class TestInit:
    def test_manifest_counts(self, workspace):
        manifest = json.loads((workspace / "manifest.json").read_text())
        kinds = [c["kind"] for c in manifest["certificates"]]
        # Each VASP's, and the one configured claims provider's.
        assert kinds.count("identity") == 3
        assert kinds.count("signing") == 4
        assert manifest["vasp_numbers"] == [7, 9]
        assert all("hex" in c for c in manifest["certificates"])

    def test_every_manifest_certificate_validates_offline(self, tmp_path):
        # From manifest.json alone: each certificate decodes and is VALID at
        # tick 0 under the manifest's root key, a signing certificate
        # linked to the identity certificate whose leaf hash it names.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(default_config()))
        ws = tmp_path / "ws"
        assert main(["init", "--config", str(path), "--workspace", str(ws)]) == 0
        manifest = json.loads((ws / "manifest.json").read_text())
        root_key = bytes.fromhex(manifest["root_public_key"])
        no_revocations = pki.RevocationList((), 0, b"")
        kinds = {"identity": pki.EvIdentityCertificate,
                 "signing": pki.SigningCertificate}
        certs = [codec.canonical_decode(bytes.fromhex(c["hex"]), kinds[c["kind"]])
                 for c in manifest["certificates"]]
        assert [c.serial for c in certs] == [c["serial"]
                                             for c in manifest["certificates"]]
        identities = {pki.leaf_hash(c): c for c in certs
                      if isinstance(c, pki.EvIdentityCertificate)}
        signing = [c for c in certs if isinstance(c, pki.SigningCertificate)]
        assert len(identities) + len(signing) == len(certs) > 6
        for cert in certs:
            identity = identities.get(getattr(cert, "identity_linkage", None))
            assert (identity is None) is (cert not in signing)
            assert pki.validate_chain(cert, root_key, no_revocations, 0,
                                      identity) is pki.Verdict.VALID

    def test_duplicate_vasp_number_is_config_error(self, tmp_path, capsys):
        config = two_vasp_config()
        config["vasps"][1]["vasp_number"] = 7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["init", "--config", str(path),
                     "--workspace", str(tmp_path / "w")]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        config = two_vasp_config()
        del config["seed"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["init", "--config", str(path),
                     "--workspace", str(tmp_path / "w")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_workspace_env_var(self, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(two_vasp_config()))
        monkeypatch.setenv("VTN_WORKSPACE", str(tmp_path / "envws"))
        assert main(["init", "--config", str(path)]) == 0
        assert (tmp_path / "envws" / "manifest.json").exists()


class TestRun:
    def test_run_s1_exit_zero_and_trace(self, workspace):
        assert main(["run", "--scenario", "S1",
                     "--workspace", str(workspace)]) == 0
        trace_path = workspace / "traces" / "S1.trace"
        trace = parse_trace_text(trace_path.read_text())
        assert trace.passed
        assert (workspace / "traces" / "S1.chain.txt").exists()
        assert (workspace / "traces" / "S1.payloads.txt").exists()

    def test_rerun_same_seed_identical_bytes(self, workspace):
        out = workspace / "traces"
        main(["run", "--scenario", "S1", "--workspace", str(workspace),
              "--trace-out", str(out / "a.trace")])
        main(["run", "--scenario", "S1", "--workspace", str(workspace),
              "--trace-out", str(out / "b.trace")])
        assert (out / "a.trace").read_bytes() == (out / "b.trace").read_bytes()

    def test_cli_trace_equals_library_trace(self, workspace):
        # Thin-shell property: the CLI writes exactly what the library
        # produces for the same config and seed.
        from vasptrust.config import load_config
        from conftest import scenario_trace

        main(["run", "--scenario", "S1", "--workspace", str(workspace)])
        written = (workspace / "traces" / "S1.trace").read_text()
        config = load_config(workspace / "config.json")
        assert written == scenario_trace("S1", config).to_text()

    def test_consent_disabled_override_fails(self, workspace):
        code = main(["run", "--scenario", "S1", "--workspace", str(workspace),
                     "--override", "grant_beneficiary_consent=false"])
        assert code == 1
        trace = parse_trace_text((workspace / "traces" / "S1.trace").read_text())
        assert trace.find("travel_rule.transfer_refused")

    def test_seed_override_changes_trace(self, workspace):
        out = workspace / "traces"
        main(["run", "--scenario", "S1", "--workspace", str(workspace),
              "--trace-out", str(out / "a.trace")])
        main(["run", "--scenario", "S1", "--workspace", str(workspace),
              "--seed-override", "9", "--trace-out", str(out / "c.trace")])
        assert (out / "a.trace").read_bytes() != (out / "c.trace").read_bytes()

    def test_unknown_scenario_exit_two(self, workspace, capsys):
        assert main(["run", "--scenario", "S42",
                     "--workspace", str(workspace)]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_uninitialized_workspace(self, tmp_path, capsys):
        assert main(["run", "--scenario", "S1",
                     "--workspace", str(tmp_path / "nope")]) == 2

    def test_scenario_param_referencing_missing_entity(self, workspace, capsys):
        # The trimmed config has no claims store for alice; S2 is a clean
        # configuration error, not a crash.
        assert main(["run", "--scenario", "S2",
                     "--workspace", str(workspace)]) == 2
        assert "claims store" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, override, named", [
        ("S1", "originator_vasp=99", "VASP 99"),
        ("S1", "originator_customer=zoe", "'zoe'"),
        ("S5", "originator_vasp=99", "VASP 99"),
    ])
    def test_scenario_param_naming_unknown_party(self, workspace, capsys,
                                                 scenario, override, named):
        assert main(["run", "--scenario", scenario,
                     "--workspace", str(workspace),
                     "--override", override]) == 2
        err = capsys.readouterr().err
        assert named in err and "does not configure" in err
        assert not (workspace / "traces" / f"{scenario}.trace").exists()

    @pytest.mark.parametrize("scenario, override", [
        ("S1", "originator_vasp=x"), ("S1", "originator_customer=5"),
        ("S1", "beneficiary_identifier=5"), ("S1", "beneficiary_name=5"),
        ("S1", "amount=abc"), ("S1", "amount=-5"), ("S1", "amount=2.9"),
        ("S1", "amount=true"), ("S4", "supervision_steps=2.5"),
        ("S1", "grant_originator_consent=5"),
        ("S1", "grant_beneficiary_consent=yes"),
        ("S2", "owner_customer=5"), ("S2", "requesting_vasp=x"),
        ("S2", "attributes=5"), ("S2", "attributes=[5]"), ("S2", "purpose=5"),
        ("S2", "withdraw_before_fetch=1"),
        ("S4", "customer=5"), ("S4", "vasp=x"), ("S4", "insurer_audit=5"),
        ("S4", "supervision_steps=x"),
        ("S5", "originator_vasp=x"), ("S5", "beneficiary_identifier=5"),
    ])
    def test_wrong_typed_scenario_param_exit_two(self, workspace, capsys,
                                                 scenario, override):
        assert main(["run", "--scenario", scenario,
                     "--workspace", str(workspace),
                     "--override", override]) == 2
        key = override.partition("=")[0]
        assert f"scenario_params.{scenario}.{key}" in capsys.readouterr().err
        assert not (workspace / "traces" / f"{scenario}.trace").exists()

    @pytest.mark.parametrize("scenario, key", [
        ("S1", "originator_vasp"), ("S1", "originator_customer"),
        ("S1", "beneficiary_identifier"), ("S1", "beneficiary_name"),
        ("S1", "amount"),
        ("S2", "owner_customer"), ("S2", "requesting_vasp"),
        ("S2", "attributes"), ("S2", "purpose"),
        ("S4", "customer"), ("S4", "vasp"),
        ("S5", "originator_vasp"), ("S5", "beneficiary_identifier"),
    ])
    def test_missing_scenario_param_exit_two(self, workspace, capsys,
                                             scenario, key):
        config_path = workspace / "config.json"
        config = json.loads(config_path.read_text())
        del config["scenario_params"][scenario][key]
        config_path.write_text(json.dumps(config))
        assert main(["run", "--scenario", scenario,
                     "--workspace", str(workspace)]) == 2
        err = capsys.readouterr().err
        assert f"scenario_params.{scenario}.{key}: missing" in err
        assert not (workspace / "traces" / f"{scenario}.trace").exists()

    @pytest.mark.parametrize("scenario, override, named", [
        ("S1", "amount=0", "amount"),
        ("S1", "beneficiary_identifier=nobody", "beneficiary_identifier"),
        ("S5", "beneficiary_identifier=nobody", "beneficiary_identifier"),
    ])
    def test_unusable_scenario_param_exit_two(self, workspace, capsys,
                                              scenario, override, named):
        assert main(["run", "--scenario", scenario,
                     "--workspace", str(workspace),
                     "--override", override]) == 2
        assert named in capsys.readouterr().err
        assert not (workspace / "traces" / f"{scenario}.trace").exists()

    def test_seed_override_out_of_range_exit_two(self, workspace, capsys):
        assert main(["run", "--scenario", "S1", "--workspace", str(workspace),
                     "--seed-override", str(2**127)]) == 2
        assert "--seed-override" in capsys.readouterr().err
        assert not (workspace / "traces" / "S1.trace").exists()


# SHA-256 of each .payloads.txt `vtn run` writes on the demo config: only
# S1 exchanges travel-rule payloads, so the other files are empty. S1's was
# re-pinned when payloads gained their originator's transfer number: only
# the two id= values changed.
PAYLOAD_FILES = {
    "S1": "2b65d665d5c761c23b47df92fd39a5a71afe2749ed144ddc09592db0f73fb0d5",
    **dict.fromkeys(["S2", "S3", "S4", "S5"], hashlib.sha256(b"").hexdigest()),
}


def test_run_writes_the_pinned_trace_and_payload_files(tmp_path):
    # The trace text and the payload dump, read back from the records the
    # VASPs keep, are byte for byte what they were when the store held
    # live payloads and the trace rendered as one join.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(default_config()))
    ws = tmp_path / "ws"
    assert main(["init", "--config", str(config_path), "--workspace", str(ws)]) == 0
    for name in sorted(PAYLOAD_FILES):
        assert main(["run", "--scenario", name, "--workspace", str(ws)]) == 0
        digests = tuple(
            hashlib.sha256((ws / "traces" / f"{name}{suffix}").read_bytes())
            .hexdigest() for suffix in (".trace", ".payloads.txt"))
        assert digests == (PINNED[name][0], PAYLOAD_FILES[name])


class TestReport:
    def test_empty_workspace_errors(self, workspace, capsys):
        assert main(["report", "--workspace", str(workspace)]) == 2
        assert "no traces" in capsys.readouterr().err

    def test_report_rows_and_counts(self, workspace, capsys):
        for scenario in ("S1", "S3"):
            main(["run", "--scenario", scenario, "--workspace", str(workspace)])
        capsys.readouterr()
        assert main(["report", "--workspace", str(workspace)]) == 0
        out = capsys.readouterr().out
        assert "S1" in out and "PASS" in out

        # Counts shown by the report must equal independent recounts from
        # the trace files themselves.
        recount = 0
        for path in (workspace / "traces").glob("*.trace"):
            trace = parse_trace_text(path.read_text())
            recount += len(trace.find("travel_rule.payload_validated"))
        assert f"payloads_validated: {recount}" in out

    @pytest.mark.parametrize("text", [
        "", "\n\n", "scenario=S1 seed=1\n", "# scenario=S1\n",
        "# scenario=S1 seed=1\n000001 sim netsim.sent\n",
        "# scenario=S1 seed=1\nassert lookup_hit\n"],
        ids=["empty", "blank", "no_hash", "no_seed", "short_event",
             "short_assertion"])
    def test_malformed_trace_is_usage_error(self, workspace, capsys, text):
        with pytest.raises(ValueError):
            parse_trace_text(text)
        path = workspace / "traces" / "S1.trace"
        path.write_text(text)
        assert main(["report", "--workspace", str(workspace)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "malformed trace" in err

    def test_report_counts_refusals_per_reason(self, workspace, capsys):
        # Bob has not consented: VASP 9 refuses, and VASP 7 records that
        # its peer refused.
        main(["run", "--scenario", "S1", "--workspace", str(workspace),
              "--override", "grant_beneficiary_consent=false"])
        capsys.readouterr()
        assert main(["report", "--workspace", str(workspace)]) == 0
        out = capsys.readouterr().out
        refusals = out[out.index("\nrefusals:\n"):].split("\n")[2:-1]
        assert refusals == ["beneficiary_consent_missing 1", "peer_refused 1"]

    @pytest.mark.parametrize("fault, reason", [
        ("impostor", "evidence_invalid"), ("mute", "attestation_refused")])
    def test_report_counts_refused_checkpoints(self, demo_config, tmp_path,
                                               capsys, fault, reason):
        # After Alice's wallet is onboarded, VASP 7's handle to it answers
        # with evidence signed by another key, or the device stops
        # attesting: the next checkpoint is refused under a Refusal member.
        world = build_world(demo_config)
        vasp, device = world.vasps[7], world.devices["wdev:alice@7"]
        assert vasp.onboard("alice", device).accepted
        if fault == "impostor":
            vasp.devices[device.device_id] = WalletDevice(
                device.device_id, b"\x01" * 32, [("stack", b"\x02" * 32)])
        else:
            device.attestation_enabled = False
        for _ in range(CHECKPOINT_INTERVAL):
            world.sim.step()
        (tmp_path / "traces").mkdir()
        (tmp_path / "traces" / "S4.trace").write_text(world.sim.trace.to_text())
        capsys.readouterr()
        assert main(["report", "--workspace", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out[out.index("\nrefusals:\n"):].split("\n")[2:-1] == [
            f"{reason} 1"]

    def test_report_counts_a_refused_onboarding(self, tmp_path, capsys):
        # Alice's wallet also holds an imported key with assets on it, which
        # onboarding refuses to take on: S4's onboarding is refused, under
        # the Refusal member of the check that failed.
        config = default_config()
        config["vasps"][0]["customers"][0]["wallet"]["imported_key_balance"] = 50
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        ws = tmp_path / "ws"
        assert main(["init", "--config", str(config_path),
                     "--workspace", str(ws)]) == 0
        main(["run", "--scenario", "S4", "--workspace", str(ws)])
        assert "assert onboard_accepted FAIL funded_key_not_migrated\n" in \
            (ws / "traces" / "S4.trace").read_text()
        capsys.readouterr()
        assert main(["report", "--workspace", str(ws)]) == 0
        out = capsys.readouterr().out
        assert out[out.index("\nrefusals:\n"):].split("\n")[2:-1] == [
            "funded_key_not_migrated 1"]

    def test_report_counts_a_refused_offboarding(self, demo_config, tmp_path,
                                                capsys):
        # After Alice's wallet is onboarded, the cut-over's recorded
        # signature is corrupted: the offboarding is refused under
        # key_history_invalid, and the report counts it.
        world = build_world(demo_config)
        vasp, device = world.vasps[7], world.devices["wdev:alice@7"]
        assert vasp.onboard("alice", device).accepted
        world.confirm_block()
        (cutover,) = [tx_id for tx_id, tx in world.ledger.confirmed_txs()
                      if tx.signatures]
        corrupt_signature(world.ledger, cutover)
        assert not vasp.offboard("alice", device).accepted
        (tmp_path / "traces").mkdir()
        (tmp_path / "traces" / "S4.trace").write_text(world.sim.trace.to_text())
        capsys.readouterr()
        assert main(["report", "--workspace", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out[out.index("\nrefusals:\n"):].split("\n")[2:-1] == [
            "key_history_invalid 1"]

    def test_report_reflects_failures(self, workspace, capsys):
        main(["run", "--scenario", "S1", "--workspace", str(workspace),
              "--override", "grant_beneficiary_consent=false"])
        capsys.readouterr()
        main(["report", "--workspace", str(workspace)])
        assert "FAIL" in capsys.readouterr().out
