"""Deterministic signing and hashing primitives.

Signatures are Ed25519 (deterministic, so identical runs produce identical
traces); digests are SHA-256. Key generation is reproducible from a 32-byte
seed; all per-entity seeds in the simulator are derived from one master seed
through the digest function.

Ed25519 runs through the host's libsodium when it loads (by soname, once,
at import), and otherwise through ``cryptography``'s OpenSSL. Both give the
same keys and signatures, and the same verdict on every input: RFC 8032
§5.1.7 cofactorless verification ([S]B = R + [k]A, compared as the bytes
of R), with a canonical S (S < L) and a canonical A (y < p), and neither A
nor R one of the small-order encodings, whatever its sign bit. libsodium
refuses such A and R itself; OpenSSL accepts signatures under them (with
A the identity, R the identity and S = 0 verifies for every message), so
the fallback refuses them before it calls OpenSSL. The fallback stays for
hosts without libsodium and as the tests' reference for libsodium's keys,
signatures and verdicts. libsodium verifies in less than half OpenSSL's
time, and every trust decision ends in a verify.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
from dataclasses import dataclass
from typing import Callable, NamedTuple

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


def generate_keypair(seed: bytes) -> KeyPair:
    """The key pair of a 32-byte seed."""
    _check_seed(seed)
    return KeyPair(public_key=_path.public_key(seed), private_key=seed)


def sign(private_key: bytes, message: bytes) -> bytes:
    _check_seed(private_key)
    if not isinstance(message, bytes):
        raise TypeError("message must be bytes")
    return _path.sign(private_key, message)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff the signature binds the message to the public key.

    Malformed keys or signatures verify as False rather than raising; a
    verifier treats garbage the same as a forgery. Only ``bytes`` of the
    exact sizes are well formed, and only a ``bytes`` message.
    """
    return (isinstance(public_key, bytes) and len(public_key) == PUBLIC_KEY_SIZE
            and isinstance(signature, bytes) and len(signature) == SIGNATURE_SIZE
            and isinstance(message, bytes)
            and _path.verify(public_key, message, signature))


def _check_seed(seed: bytes) -> None:
    if not isinstance(seed, bytes) or len(seed) != SEED_SIZE:
        raise MalformedKeyError(f"seed must be {SEED_SIZE} bytes")


class _Path(NamedTuple):
    """One library's Ed25519, on well-formed arguments: a seed's public
    key, a seed's signature of a message, and a verdict."""
    public_key: Callable[[bytes], bytes]
    sign: Callable[[bytes, bytes], bytes]
    verify: Callable[[bytes, bytes, bytes], bool]


# -- OpenSSL, through ``cryptography`` ------------------------------------

# y of every point of order 1, 2, 4 or 8, canonical or not, as encoded
# with the sign bit clear (libsodium's ge25519_has_small_order list).
_SMALL_ORDER = frozenset(bytes.fromhex(h) for h in (
    "00" * 32,                                                            # 0
    "01" + "00" * 31,                                                     # 1
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "ec" + "ff" * 30 + "7f",                                              # p - 1
    "ed" + "ff" * 30 + "7f",                                              # p
    "ee" + "ff" * 30 + "7f",                                              # p + 1
))
_P = 2 ** 255 - 19


def _small_order(encoding: bytes) -> bool:
    """Whether ``encoding`` is a small-order point, with either sign bit."""
    return encoding[:31] + bytes((encoding[31] & 0x7F,)) in _SMALL_ORDER


@functools.lru_cache(maxsize=1024)
def _openssl_private(seed: bytes) -> tuple[Ed25519PrivateKey, bytes]:
    """The key object of a seed and its raw public key. Deriving them costs
    as much as a signature, so keep them."""
    private = Ed25519PrivateKey.from_private_bytes(seed)
    return private, private.public_key().public_bytes_raw()


@functools.lru_cache(maxsize=1024)
def _openssl_public(public_key: bytes) -> Ed25519PublicKey:
    """Parsed public key objects, kept as ``_openssl_private`` keeps
    private ones; the verify itself is never skipped. A key libsodium
    refuses raises ValueError, and is not kept."""
    if (_small_order(public_key)
            or int.from_bytes(public_key, "little") & (2 ** 255 - 1) >= _P):
        raise ValueError("small-order or non-canonical public key")
    return Ed25519PublicKey.from_public_bytes(public_key)


def _openssl_verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    if _small_order(signature[:32]):
        return False
    try:
        _openssl_public(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


_OPENSSL = _Path(lambda seed: _openssl_private(seed)[1],
                 lambda seed, message: _openssl_private(seed)[0].sign(message),
                 _openssl_verify)


# -- libsodium, through ctypes --------------------------------------------

def _sodium_path() -> _Path | None:
    """libsodium's Ed25519, or None where the library does not load. Found
    by soname: ``ctypes.util.find_library`` would run ``ldconfig``."""
    for name in ("libsodium.so.23", "libsodium.so", "libsodium.dylib"):
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            continue
        if lib.sodium_init() >= 0:
            break
    else:
        return None
    # Buffer types are built once: a type per call would be cyclic garbage.
    public_buf = ctypes.c_char * PUBLIC_KEY_SIZE
    secret_buf = ctypes.c_char * (SEED_SIZE + PUBLIC_KEY_SIZE)
    signature_buf = ctypes.c_char * SIGNATURE_SIZE
    c_bytes, c_len = ctypes.c_char_p, ctypes.c_ulonglong
    seed_keypair = lib.crypto_sign_seed_keypair
    seed_keypair.argtypes = (public_buf, secret_buf, c_bytes)
    sign_detached = lib.crypto_sign_detached
    sign_detached.argtypes = (signature_buf, ctypes.c_void_p, c_bytes, c_len,
                              c_bytes)
    verify_detached = lib.crypto_sign_verify_detached
    verify_detached.argtypes = (c_bytes, c_bytes, c_len, c_bytes)
    for function in (seed_keypair, sign_detached, verify_detached):
        function.restype = ctypes.c_int

    @functools.lru_cache(maxsize=1024)
    def keypair(seed: bytes) -> tuple[bytes, bytes]:
        """(secret key, public key) of a seed, kept as OpenSSL's are."""
        public, secret = public_buf(), secret_buf()
        seed_keypair(public, secret, seed)
        return secret.raw, public.raw

    def sign(seed: bytes, message: bytes) -> bytes:
        signature = signature_buf()
        sign_detached(signature, None, message, len(message), keypair(seed)[0])
        return signature.raw

    def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
        return verify_detached(signature, message, len(message), public_key) == 0

    return _Path(lambda seed: keypair(seed)[1], sign, verify)


_SODIUM = _sodium_path()
_path = _SODIUM or _OPENSSL


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def derive_seed(master: bytes, label: str) -> bytes:
    """Derive a labelled sub-seed; distinct labels give independent seeds."""
    return digest(master + b"\x1f" + label.encode("utf-8"))


def seed_from_int(seed: int) -> bytes:
    """Expand a configuration seed integer into master seed bytes."""
    return digest(seed.to_bytes(16, "big", signed=True))
