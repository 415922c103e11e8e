"""Deterministic signing and hashing primitives.

Signatures are Ed25519 (deterministic, so identical runs produce identical
traces); digests are SHA-256. Key generation is reproducible from a 32-byte
seed; all per-entity seeds in the simulator are derived from one master seed
through the digest function.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

SEED_SIZE = 32
DIGEST_SIZE = 32
PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64


class MalformedKeyError(Exception):
    """Key bytes are not a well-formed Ed25519 key."""


@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    private_key: bytes


def generate_keypair(seed: bytes | None = None) -> KeyPair:
    """Create a key pair, deterministically when a 32-byte seed is given."""
    if seed is None:
        seed = os.urandom(SEED_SIZE)
    if len(seed) != SEED_SIZE:
        raise MalformedKeyError(f"seed must be {SEED_SIZE} bytes, got {len(seed)}")
    return KeyPair(public_key=_private_key(seed)[1], private_key=seed)


@functools.lru_cache(maxsize=1024)
def _private_key(seed: bytes) -> tuple[Ed25519PrivateKey, bytes]:
    """The key object of a seed and its raw public key. Deriving them costs
    as much as a signature, so keep them."""
    if len(seed) != SEED_SIZE:
        raise MalformedKeyError("private key has wrong length")
    try:
        private = Ed25519PrivateKey.from_private_bytes(seed)
    except ValueError as exc:
        raise MalformedKeyError(str(exc)) from exc
    return private, private.public_key().public_bytes_raw()


@functools.lru_cache(maxsize=1024)
def _public_key(public_key: bytes) -> Ed25519PublicKey:
    """Parsed public key objects, kept as ``_private_key`` keeps private
    ones; the verify itself is never skipped."""
    return Ed25519PublicKey.from_public_bytes(public_key)


def sign(private_key: bytes, message: bytes) -> bytes:
    return _private_key(private_key)[0].sign(message)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff the signature binds the message to the public key.

    Malformed keys or signatures verify as False rather than raising; a
    verifier treats garbage the same as a forgery.
    """
    try:
        _public_key(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def derive_seed(master: bytes, label: str) -> bytes:
    """Derive a labelled sub-seed; distinct labels give independent seeds."""
    return digest(master + b"\x1f" + label.encode("utf-8"))


def seed_from_int(seed: int) -> bytes:
    """Expand a configuration seed integer into master seed bytes."""
    return digest(seed.to_bytes(16, "big", signed=True))
