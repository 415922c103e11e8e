"""Signing and hashing primitives."""

from __future__ import annotations

import random

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

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
            assert crypto.public_key_of(seed) == public
            assert crypto.sign(seed, b"m") == fresh.sign(b"m")
    for bad in (b"", b"\x00" * 31, b"\x00" * 33):
        with pytest.raises(crypto.MalformedKeyError):
            crypto.generate_keypair(bad)
    a, b = crypto.generate_keypair(None), crypto.generate_keypair(None)
    assert a.private_key != b.private_key and a.public_key != b.public_key


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
