"""Signature and key-establishment backend.

ML-DSA-65, ML-KEM-768 and X25519 ride on the ``cryptography`` package
(C speed, seeded keygen).  SLH-DSA-SHAKE-192s uses the local pure-Python
implementation.  Handshake-time signing (:class:`Signer`) is hedged and,
like every verification, stays on these paths.

Certificate issuance (SLH-DSA key generation and deterministic signing)
needs reproducible bytes.  :func:`issuer` picks, once per process, one
of two issuers with the same ``slh_keygen`` and ``sign_deterministic``:

* ``openssl``: OpenSSL 3.5's libcrypto (:class:`.openssl.Library`),
  loaded from ``$PQCHAINLAB_LIBCRYPTO`` (default :data:`DEFAULT_LIBCRYPTO`);
* ``python``: :class:`PythonIssuer`, over :mod:`.mldsa` (``cryptography``'s
  ML-DSA signer is hedged) and the deterministic variant of :mod:`.slhdsa`.

Both give the same bytes.  Issuance stays on ``python`` when
``PQCHAINLAB_LIBCRYPTO`` is empty, when the library does not load or
when it lacks either algorithm.  The library is never searched for.

Key exchange is one component table, :data:`KEX_COMPONENTS`: each mode's
components (:class:`_X25519`, :class:`_MLKEM768`) in the order of their
shares and secrets.  A component states its client and server share
lengths and three steps: ``client_share(rng)`` returns (share, key),
``server_respond(share)`` returns (share, shared secret) on fresh
randomness, and ``client_complete(key, share)`` returns the shared secret.
The share lengths, :func:`client_share`, :func:`server_respond_kex` and
:func:`client_complete_kex` loop over the table.

``cryptography`` is imported at the first ML-DSA keypair, ML-DSA
verification, key share or :class:`Signer`, and all three of its modules
(ML-DSA, ML-KEM, X25519) load then.  Loading a hierarchy with an ML-DSA
key, or building the server's :class:`Signer`, therefore loads all of
them before a handshake starts, while commands that only analyze never
load ``cryptography``.

:mod:`~pqchainlab.crypto.mldsa`, and with it NumPy, is imported when
:func:`issuer` resolves issuance to ``python``, so processes that never
issue a certificate there do not load it.  Likewise
:mod:`~pqchainlab.crypto.slhdsa` is imported on the first Python SLH-DSA
operation.  Both are called through their module attributes.  Each
ML-DSA issuer seed is expanded at most once per process: the expanded
key is memoised by seed.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator

from ..scenario import KexMode, SigFamily

RandomBytes = Callable[[int], bytes]

# FIPS 204 ML-DSA-65 and FIPS 205 SLH-DSA-SHAKE-192s sizes, kept here so
# that importing the backend imports neither :mod:`.mldsa` nor :mod:`.slhdsa`.
MLDSA_SEED_BYTES = 32
MLDSA_PUBLIC_KEY_BYTES = 1952
MLDSA_SIGNATURE_BYTES = 3309
SLHDSA_N = 24
SLHDSA_SEED_BYTES = 3 * SLHDSA_N  # SK.seed || SK.prf || PK.seed
SLHDSA_PUBLIC_KEY_BYTES = 2 * SLHDSA_N
SLHDSA_SIGNATURE_BYTES = 16224

LIBCRYPTO_ENV = "PQCHAINLAB_LIBCRYPTO"
# OpenSSL 3.5.6, as a Miniconda installation in the home directory ships
# it.  The library is named by path only: a bare ``libcrypto.so.3`` may
# resolve to an OpenSSL 3.0 without either algorithm.
DEFAULT_LIBCRYPTO = "~/miniconda/lib/libcrypto.so.3"


class CryptoError(Exception):
    """Backend failure (bad key material, signing failure)."""


@dataclass(frozen=True)
class SigParams:
    seed_len: int
    public_key_len: int
    secret_key_len: int
    signature_len: int


SIG_PARAMS = {
    SigFamily.ML_DSA_65: SigParams(
        seed_len=MLDSA_SEED_BYTES,
        public_key_len=MLDSA_PUBLIC_KEY_BYTES,
        secret_key_len=MLDSA_SEED_BYTES,  # stored in seed form
        signature_len=MLDSA_SIGNATURE_BYTES,
    ),
    SigFamily.SLH_DSA_SHAKE_192S: SigParams(
        seed_len=SLHDSA_SEED_BYTES,
        public_key_len=SLHDSA_PUBLIC_KEY_BYTES,
        secret_key_len=4 * SLHDSA_N,
        signature_len=SLHDSA_SIGNATURE_BYTES,
    ),
}


@dataclass(frozen=True)
class KeyPair:
    algorithm: SigFamily
    public_key: bytes
    secret_key: bytes

    def __post_init__(self):
        params = SIG_PARAMS[self.algorithm]
        if len(self.public_key) != params.public_key_len:
            raise CryptoError(
                f"{self.algorithm.value} public key must be {params.public_key_len} bytes"
            )
        if len(self.secret_key) != params.secret_key_len:
            raise CryptoError(
                f"{self.algorithm.value} secret key must be {params.secret_key_len} bytes"
            )


@functools.cache
def _pyca() -> SimpleNamespace:
    """``cryptography``'s ``mldsa``, ``mlkem`` and ``x25519`` modules and its
    ``InvalidSignature``, imported together at the first call, so that the
    call that loads one has loaded them all."""
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric import mldsa, mlkem, x25519

    return SimpleNamespace(mldsa=mldsa, mlkem=mlkem, x25519=x25519,
                           InvalidSignature=InvalidSignature)


@functools.lru_cache(maxsize=None)
def issuer():
    """This process's issuer: the library at ``$PQCHAINLAB_LIBCRYPTO`` if it loads, else Python."""
    path = os.environ.get(LIBCRYPTO_ENV, DEFAULT_LIBCRYPTO)
    if path:
        from . import openssl

        return openssl.load(path) or PythonIssuer()
    return PythonIssuer()


def issuance_backend() -> dict:
    """Name, library path and OpenSSL version of the issuance backend, for manifests."""
    chosen = issuer()
    return {"name": chosen.name, "library": chosen.path, "openssl_version": chosen.version}


def generate_keypair(alg: SigFamily, seed: bytes) -> KeyPair:
    """The signature keypair of ``seed``, reproducibly."""
    params = SIG_PARAMS[alg]
    if len(seed) != params.seed_len:
        raise CryptoError(f"{alg.value} seed must be {params.seed_len} bytes")
    try:
        if alg is SigFamily.ML_DSA_65:
            key = _pyca().mldsa.MLDSA65PrivateKey.from_seed_bytes(seed)
            return KeyPair(alg, key.public_key().public_bytes_raw(), seed)
        return KeyPair(alg, *issuer().slh_keygen(seed))
    except CryptoError:
        raise
    except Exception as exc:  # backend failure
        raise CryptoError(f"keypair generation failed: {exc}") from exc


def keypair_from_secret(alg: SigFamily, secret_key: bytes) -> KeyPair:
    """The keypair of a stored secret: an ML-DSA seed is expanded again, and an SLH-DSA
    private key (FIPS 205) ends with its public key, PK.seed || PK.root."""
    if alg is SigFamily.ML_DSA_65:
        return generate_keypair(alg, secret_key)
    return KeyPair(alg, secret_key[-SIG_PARAMS[alg].public_key_len :], secret_key)


@functools.lru_cache(maxsize=16)
def _expanded_mldsa_key(seed: bytes):
    """Expanded deterministic ML-DSA secret for ``seed``, one expansion per issuer key."""
    from . import mldsa

    return mldsa.keygen_from_seed(seed)[1]


class PythonIssuer:
    """The ``python`` issuer: the members of :class:`.openssl.Library` that issue, in Python."""

    name, path, version = "python", None, None

    def __init__(self):
        from . import mldsa  # noqa: F401  imported before provisioning forks its workers

    def slh_keygen(self, seed: bytes) -> tuple[bytes, bytes]:
        from . import slhdsa

        pk, key = slhdsa.keygen_from_seed(seed)
        return pk, key.to_bytes()

    def sign_deterministic(self, alg: str, secret: bytes, message: bytes) -> bytes:
        if alg == SigFamily.ML_DSA_65.value:
            from . import mldsa

            return mldsa.sign_deterministic(_expanded_mldsa_key(secret), message)
        from . import slhdsa

        return slhdsa.sign(slhdsa.PrivateKey.from_bytes(secret), message)


class Signer:
    """Reusable hedged signing handle for the handshake; construction cost is paid once per key."""

    def __init__(self, keypair: KeyPair):
        self.algorithm = keypair.algorithm
        self._keypair = keypair
        pyca = _pyca()  # for any family, so that the server's key exchange imports nothing
        if keypair.algorithm is SigFamily.ML_DSA_65:
            self._ml = pyca.mldsa.MLDSA65PrivateKey.from_seed_bytes(keypair.secret_key)
            self._slh = None
        else:
            from . import slhdsa

            self._ml = None
            self._slh = slhdsa.PrivateKey.from_bytes(keypair.secret_key)

    def sign(self, message: bytes) -> bytes:
        """Hedged signature (fresh randomness), used on the live path."""
        try:
            if self._ml is not None:
                return self._ml.sign(message)
            from . import slhdsa

            return slhdsa.sign(self._slh, message, opt_rand=os.urandom(SLHDSA_N))
        except Exception as exc:
            raise CryptoError(f"signing failed: {exc}") from exc

    def sign_deterministic(self, message: bytes) -> bytes:
        """Reproducible signature, as :func:`sign` makes it for certificate issuance."""
        return sign(self._keypair, message)


def sign(keypair: KeyPair, message: bytes) -> bytes:
    """The issuer's deterministic signature, for certificates; it builds no :class:`Signer`."""
    try:
        return issuer().sign_deterministic(keypair.algorithm.value, keypair.secret_key, message)
    except Exception as exc:
        raise CryptoError(f"signing failed: {exc}") from exc


def verify(alg: SigFamily, public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Whether ``signature`` verifies; False for a key or signature of the wrong length."""
    params = SIG_PARAMS[alg]
    if (len(public_key), len(signature)) != (params.public_key_len, params.signature_len):
        return False
    if alg is SigFamily.ML_DSA_65:
        pyca = _pyca()
        try:
            pyca.mldsa.MLDSA65PublicKey.from_public_bytes(public_key).verify(signature, message)
            return True
        except pyca.InvalidSignature:
            return False
        except Exception as exc:
            raise CryptoError(f"verification failed: {exc}") from exc
    from . import slhdsa

    return slhdsa.verify(public_key, message, signature)


# --- key establishment -------------------------------------------------


class _X25519:
    """X25519 (RFC 7748): each side sends a public key."""

    client_len = server_len = 32

    @staticmethod
    def client_share(rng: RandomBytes):
        key = _pyca().x25519.X25519PrivateKey.from_private_bytes(rng(32))
        return key.public_key().public_bytes_raw(), key

    @staticmethod
    def server_respond(client_share: bytes) -> tuple[bytes, bytes]:
        x25519 = _pyca().x25519
        peer = x25519.X25519PublicKey.from_public_bytes(client_share)
        key = x25519.X25519PrivateKey.from_private_bytes(os.urandom(32))
        return key.public_key().public_bytes_raw(), key.exchange(peer)

    @staticmethod
    def client_complete(key, server_share: bytes) -> bytes:
        return key.exchange(_pyca().x25519.X25519PublicKey.from_public_bytes(server_share))


class _MLKEM768:
    """ML-KEM-768 (FIPS 203): the client sends an encapsulation key, the server a ciphertext."""

    client_len, server_len = 1184, 1088

    @staticmethod
    def client_share(rng: RandomBytes):
        key = _pyca().mlkem.MLKEM768PrivateKey.from_seed_bytes(rng(64))
        return key.public_key().public_bytes_raw(), key

    @staticmethod
    def server_respond(client_share: bytes) -> tuple[bytes, bytes]:
        secret, ciphertext = _pyca().mlkem.MLKEM768PublicKey.from_public_bytes(
            client_share).encapsulate()
        return ciphertext, secret

    @staticmethod
    def client_complete(key, server_share: bytes) -> bytes:
        return key.decapsulate(server_share)


# Each mode's components, in the order of their shares and secrets.
KEX_COMPONENTS = {
    KexMode.CLASSICAL: (_X25519,),
    KexMode.HYBRID: (_X25519, _MLKEM768),
    KexMode.PURE_PQC: (_MLKEM768,),
}
MLKEM_EK_LEN = _MLKEM768.client_len


def client_share_len(mode: KexMode) -> int:
    return sum(c.client_len for c in KEX_COMPONENTS[mode])


def server_share_len(mode: KexMode) -> int:
    return sum(c.server_len for c in KEX_COMPONENTS[mode])


def _pieces(data: bytes, lengths: Iterable[int]) -> Iterator[bytes]:
    """``data`` cut into consecutive pieces of ``lengths``."""
    offset = 0
    for n in lengths:
        yield data[offset : offset + n]
        offset += n


class ClientKexState:
    """The client's mode and its private keys, one per component in KEX_COMPONENTS order.

    A plain class: a dataclass would cost each process about 0.5 ms at import."""

    def __init__(self, mode: KexMode, keys: tuple):
        self.mode, self.keys = mode, keys


def client_share(mode: KexMode, rng: RandomBytes = os.urandom) -> tuple[bytes, ClientKexState]:
    """Ephemeral client key share: each component's share from ``rng``, in turn."""
    shares, keys = zip(*(c.client_share(rng) for c in KEX_COMPONENTS[mode]))
    return b"".join(shares), ClientKexState(mode, keys)


def server_respond_kex(mode: KexMode, client_share_bytes: bytes) -> tuple[bytes, tuple[bytes, ...]]:
    """Server side, on fresh randomness: returns (server share, shared secrets)."""
    if len(client_share_bytes) != client_share_len(mode):
        raise CryptoError("client key share has wrong length")
    components = KEX_COMPONENTS[mode]
    pieces = _pieces(client_share_bytes, (c.client_len for c in components))
    shares, secrets = zip(*(c.server_respond(p) for c, p in zip(components, pieces)))
    return b"".join(shares), secrets


def client_complete_kex(state: ClientKexState, server_share_bytes: bytes) -> tuple[bytes, ...]:
    """Client side: the shared secrets, from the server share."""
    if len(server_share_bytes) != server_share_len(state.mode):
        raise CryptoError("server key share has wrong length")
    components = KEX_COMPONENTS[state.mode]
    pieces = _pieces(server_share_bytes, (c.server_len for c in components))
    return tuple(c.client_complete(k, p) for c, k, p in zip(components, state.keys, pieces))
