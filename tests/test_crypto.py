"""Signing and hashing primitives."""

from __future__ import annotations

import hashlib
import random

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from vasptrust import crypto


def test_fixed_seed_gives_fixed_keypair():
    k0 = crypto.generate_keypair(b"\x00" * 32)
    again = crypto.generate_keypair(b"\x00" * 32)
    assert k0 == again
    assert len(k0.public_key) == crypto.PUBLIC_KEY_SIZE


def test_kept_derivation_matches_a_fresh_one():
    rng = random.Random(7)
    for seed in [b"\x00" * 32] + [rng.randbytes(32) for _ in range(5)]:
        fresh = Ed25519PrivateKey.from_private_bytes(seed)
        public = fresh.public_key().public_bytes_raw()
        for _ in range(2):
            pair = crypto.generate_keypair(seed)
            assert pair == crypto.KeyPair(public, seed)
            assert crypto.sign(seed, b"m") == fresh.sign(b"m")
    for bad in (b"", b"\x00" * 31, b"\x00" * 33, None):
        with pytest.raises(crypto.MalformedKeyError):
            crypto.generate_keypair(bad)


def test_distinct_seeds_distinct_keys():
    a = crypto.generate_keypair(b"\x01" * 32)
    b = crypto.generate_keypair(b"\x02" * 32)
    assert a.public_key != b.public_key


def test_thousand_random_seeds_all_distinct():
    rng = random.Random(1234)
    seen = set()
    for _ in range(1000):
        pair = crypto.generate_keypair(rng.randbytes(32))
        seen.add(pair.public_key)
    assert len(seen) == 1000


def test_sign_verify_round_trip():
    pair = crypto.generate_keypair(b"\x03" * 32)
    sig = crypto.sign(pair.private_key, b"hello")
    assert crypto.verify(pair.public_key, b"hello", sig)


def test_verify_with_other_key_false():
    pair = crypto.generate_keypair(b"\x03" * 32)
    other = crypto.generate_keypair(b"\x04" * 32)
    sig = crypto.sign(pair.private_key, b"hello")
    assert not crypto.verify(other.public_key, b"hello", sig)


def test_every_bit_flip_of_message_fails():
    # Exhaustive: flip each of the 512 bits of a 64-byte message.
    pair = crypto.generate_keypair(b"\x05" * 32)
    message = bytes(range(64))
    sig = crypto.sign(pair.private_key, message)
    for byte_index in range(64):
        for bit in range(8):
            tampered = bytearray(message)
            tampered[byte_index] ^= 1 << bit
            assert not crypto.verify(pair.public_key, bytes(tampered), sig), \
                f"accepted flip at byte {byte_index} bit {bit}"


def test_malformed_keys():
    with pytest.raises(crypto.MalformedKeyError):
        crypto.sign(b"short", b"x")
    with pytest.raises(crypto.MalformedKeyError):
        crypto.generate_keypair(b"not 32 bytes")
    # Verification treats malformed material as failure, not an error.
    assert not crypto.verify(b"bad", b"m", b"sig")


def test_digest_and_derive():
    assert len(crypto.digest(b"abc")) == crypto.DIGEST_SIZE
    assert crypto.digest(b"abc") == crypto.digest(b"abc")
    assert crypto.derive_seed(b"m" * 32, "a") != crypto.derive_seed(b"m" * 32, "b")
    assert crypto.seed_from_int(42) == crypto.seed_from_int(42)
    assert crypto.seed_from_int(42) != crypto.seed_from_int(43)


def test_signature_soundness_random_samples():
    rng = random.Random(99)
    pairs = [crypto.generate_keypair(rng.randbytes(32)) for _ in range(8)]
    for _ in range(100):
        signer = rng.choice(pairs)
        verifier = rng.choice(pairs)
        message = rng.randbytes(rng.randint(0, 128))
        sig = crypto.sign(signer.private_key, message)
        expected = signer.public_key == verifier.public_key
        assert crypto.verify(verifier.public_key, message, sig) == expected


# -- libsodium and OpenSSL give the same keys, signatures and verdicts -----

L = 2 ** 252 + 27742317777372353535851937790883648493  # the group order
P = 2 ** 255 - 19
BASE = bytes.fromhex(  # the base point B
    "5866666666666666666666666666666666666666666666666666666666666666")

needs_sodium = pytest.mark.skipif(crypto._SODIUM is None,
                                  reason="libsodium does not load on this host")


@needs_sodium
@settings(max_examples=1000, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32),
       message=st.binary(max_size=600), bit=st.integers(0, 511))
def test_libsodium_signs_and_verifies_as_openssl(seed, message, bit):
    openssl, sodium = crypto._OPENSSL, crypto._SODIUM
    public = openssl.public_key(seed)
    assert sodium.public_key(seed) == public
    signature = openssl.sign(seed, message)
    assert sodium.sign(seed, message) == signature
    flipped = bytearray(signature)
    flipped[bit // 8] ^= 1 << bit % 8
    changed = message[:-1] + bytes((message[-1] ^ 1,)) if message else b"\x00"
    for args, verdict in (((public, message, signature), True),
                          ((public, message, bytes(flipped)), False),
                          ((public, changed, signature), False)):
        assert openssl.verify(*args) is sodium.verify(*args) is verdict


def with_sign_bit(point: bytes) -> bytes:
    return point[:31] + bytes((point[31] | 0x80,))


def refused_corpus() -> list[tuple[bytes, bytes, bytes]]:
    """(public key, message, signature) triples that RFC 8032 verification
    with canonical S and A and no small-order A or R refuses. Bare OpenSSL
    takes those where [S]B = R + [k]A holds: a small-order A with R = [S]B,
    or an honest A with R the identity and S = k·a."""
    small = sorted(crypto._SMALL_ORDER)
    small += [with_sign_bit(point) for point in small]
    identity = b"\x01" + bytes(31)
    seed = b"\x05" * 32
    honest = crypto._OPENSSL.public_key(seed)
    h = hashlib.sha512(seed).digest()
    a = int.from_bytes(h[:32], "little") & (2 ** 254 - 8) | 2 ** 254
    messages = [b"", b"m", bytes(range(256)) * 2]
    corpus = []
    for message in messages:
        signature = crypto._OPENSSL.sign(seed, message)
        for point in small:
            for s in (0, 1):
                tail = s.to_bytes(32, "little")
                corpus.append((point, message, identity + tail))
                corpus += [(key, message, point + tail)
                           for key in (honest, identity)]
            corpus.append((point, message, signature))
            corpus.append((point, message, BASE + (1).to_bytes(32, "little")))
        k = int.from_bytes(hashlib.sha512(identity + honest + message).digest(),
                           "little")
        corpus.append((honest, message,
                       identity + (k * a % L).to_bytes(32, "little")))
        # y + p for every y it can be: y >= p is not canonical.
        for key in non_canonical_keys():
            corpus.append((key, message, identity + bytes(32)))
        s = int.from_bytes(signature[32:], "little")
        corpus.append((honest, message,
                       signature[:32] + (s + L).to_bytes(32, "little")))
    return corpus


def non_canonical_keys() -> list[bytes]:
    keys = [(y + P).to_bytes(32, "little") for y in range(2 ** 255 - P)]
    return keys + [with_sign_bit(key) for key in keys]


def test_refused_corpus_is_refused(ed25519_path):
    corpus = refused_corpus()
    assert len(corpus) == 3 * (14 * 8 + 1 + 19 * 2 + 1)
    accepted = [case for case in corpus if crypto.verify(*case)]
    assert accepted == []
    # The honest signatures the corpus bends still verify.
    for message in (b"", b"m"):
        assert crypto.verify(crypto._OPENSSL.public_key(b"\x05" * 32), message,
                             crypto._OPENSSL.sign(b"\x05" * 32, message))


def test_fallback_refuses_non_canonical_keys_before_openssl():
    # No signature under y + p is known to OpenSSL's verify, so refusal is
    # seen where the key is parsed.
    for key in non_canonical_keys():
        with pytest.raises(ValueError):
            crypto._openssl_public(key)


def test_verify_keeps_its_contract(ed25519_path):
    pair = crypto.generate_keypair(b"\x06" * 32)
    key, message = pair.public_key, b"hello"
    signature = crypto.sign(pair.private_key, message)
    assert crypto.verify(key, message, signature)
    for bad_key in (bytearray(key), memoryview(key), key.decode("latin-1"),
                    None, key[:31], key + b"\x00"):
        assert crypto.verify(bad_key, message, signature) is False
    for bad_signature in (bytearray(signature), memoryview(signature),
                          signature.decode("latin-1"), None, signature[:63],
                          signature + b"\x00"):
        assert crypto.verify(key, message, bad_signature) is False
    assert crypto.verify(key, "hello", signature) is False
    with pytest.raises(TypeError):
        crypto.sign(pair.private_key, "hello")
