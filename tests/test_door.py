"""The node's door: ``Node.handle`` sends every request's one answer.

A handler takes the delivered body, never its envelope, and sends
nothing. A request's handler returns a refusal or its answer's fields,
and the door builds the answer naming the request's seq and sends it.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from conftest import sent_envelopes
from vasptrust import claims, crypto, pki
from vasptrust import travel_rule as tr
from vasptrust.netsim import build_world, messages, nodes

NODE_CLASSES = [cls for cls in vars(nodes).values()
                if isinstance(cls, type) and issubclass(cls, nodes.Node)
                and cls is not nodes.Node]


def reached(cls, fn) -> list[ast.FunctionDef]:
    """The definitions of ``fn`` and of every method of ``cls`` it reaches
    through ``self``, transitively."""
    found, todo = {}, [fn]
    while todo:
        fn = todo.pop()
        if fn.__name__ in found:
            continue
        found[fn.__name__] = tree = ast.parse(
            textwrap.dedent(inspect.getsource(fn))).body[0]
        todo.extend(called for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    and inspect.isfunction(called := getattr(cls, node.attr, None)))
    return list(found.values())


def test_every_request_type_has_a_handler():
    assert {kind for cls in NODE_CLASSES for kind in cls.HANDLERS
            if kind in messages.ANSWER} == set(messages.ANSWER)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_no_handler_sends_or_takes_an_envelope(cls):
    # Nothing a handler runs, its own methods included, calls ``.send(``
    # or reads a ``.seq``, and no handler has an Envelope parameter.
    found = []
    for handler in cls.HANDLERS.values():
        for fn in reached(cls, handler):
            found += [(fn.name, node.attr) for node in ast.walk(fn)
                      if isinstance(node, ast.Attribute)
                      and node.attr in ("send", "seq")]
            found += [(fn.name, arg.arg) for arg in fn.args.args
                      if arg.arg == "env" or arg.annotation is not None
                      and "Envelope" in ast.unparse(arg.annotation)]
    assert found == []


def misaddressed(world) -> messages.TravelRuleRequest:
    """VASP 7's validly signed request for a transfer to VASP 3."""
    vasp7 = world.vasps[7]
    payload = tr.build_payload(vasp7.customers["alice"], "Bob Jones",
                               "bob@idp2.com", 3, 10, 7, 1)
    return messages.TravelRuleRequest(tr.sign_payload(
        vasp7.claims_key.private_key, vasp7.certs.claims.serial, payload)[0])


def forged_token(world) -> messages.ClaimsFetchRequest:
    """VASP 7's countersigned fetch with a token no server signed."""
    vasp7 = world.vasps[7]
    token = claims.AuthorizationToken(7, ("driving_license_number",), "kyc",
                                      10**6, bytes(64))
    return messages.ClaimsFetchRequest(token, crypto.sign(
        vasp7.claims_key.private_key, claims.terms_bytes(token)),
        vasp7.certs.claims.serial)


Refusal = pki.Refusal

# Per request type, on a fresh demo world: (requester, answerer, a request
# its handler refuses, that refusal).
REFUSED = {
    "LookupRequest": lambda w: (
        w.vasps[3], w.vasps[9], messages.LookupRequest("not an identifier"),
        Refusal.UNPARSEABLE_IDENTIFIER),
    "AttestationChallenge": lambda w: (
        w.insurer, w.vasps[7],
        messages.AttestationChallenge("wdev:nobody", bytes(32)),
        Refusal.UNKNOWN_DEVICE),
    "ClaimsAuthRequest": lambda w: (
        w.vasps[7], w.auth_servers["alice"],
        messages.ClaimsAuthRequest(("driving_license_number",), "kyc"),
        Refusal.POLICY_INACTIVE),
    "ClaimsFetchRequest": lambda w: (
        w.vasps[7], w.stores["alice"], forged_token(w), Refusal.BAD_TOKEN),
    "TravelRuleRequest": lambda w: (
        w.vasps[7], w.vasps[9], misaddressed(w), Refusal.MISADDRESSED_PAYLOAD),
}


@pytest.mark.parametrize("kind", sorted(REFUSED))
def test_request_refused_by_its_handler_gets_one_answer(demo_config, kind):
    # The caller is valid, so the handler runs and refuses: the answerer
    # sends exactly one answer, naming the request's seq and carrying the
    # handler's refusal, and nothing else.
    world = build_world(demo_config)
    requester, answerer, body, refusal = REFUSED[kind](world)
    channel = world.channel_between(requester, answerer)
    request = world.sim.send(channel, requester.name, body)
    world.sim.run_until_quiet()
    assert [env.body for sent, env in sent_envelopes(world.sim)
            if sent.actor == answerer.name] == \
        [messages.ANSWER[type(body)](request.seq, refusal=refusal)]
