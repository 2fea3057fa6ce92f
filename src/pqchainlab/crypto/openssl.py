"""Certificate issuance through OpenSSL 3.5's libcrypto, called with ctypes.

OpenSSL 3.5 implements ML-DSA-65 and SLH-DSA-SHAKE-192s with FIPS 204's
and FIPS 205's deterministic signing variants and SLH-DSA key generation
from a seed.  It gives the same bytes as :mod:`.mldsa` and :mod:`.slhdsa`,
and signs SLH-DSA more than twice as fast.  A :class:`Library` is the
``openssl`` issuer of :func:`.backend.issuer`, with the same members as
the ``python`` one; the handshake signs and verifies in Python and
through ``cryptography``.  :meth:`Library.verify` serves the oracle tests.

Algorithm names are OpenSSL's, which are the :class:`SigFamily` values.
Keys are rebuilt for every call: an ML-DSA key from its 32-byte seed, an
SLH-DSA key from its 96-byte FIPS 205 private key.
"""

from __future__ import annotations

import ctypes
import os
from ctypes import POINTER, c_char_p, c_int, c_size_t, c_uint, c_void_p
from typing import Optional

from ..scenario import SigFamily
from .backend import SIG_PARAMS

ML_DSA = SigFamily.ML_DSA_65.value
SLH_DSA = SigFamily.SLH_DSA_SHAKE_192S.value
_SLH = SIG_PARAMS[SigFamily.SLH_DSA_SHAKE_192S]
_SIGNATURE_BYTES = {f.value: SIG_PARAMS[f].signature_len for f in SigFamily}

_OSSL_PARAM_INTEGER = 1
_OSSL_PARAM_OCTET_STRING = 5
_OSSL_PARAM_UNMODIFIED = c_size_t(-1).value
_OPENSSL_VERSION = 0


class _Param(ctypes.Structure):
    """``OSSL_PARAM``."""

    _fields_ = [
        ("key", c_char_p),
        ("data_type", c_uint),
        ("data", c_void_p),
        ("data_size", c_size_t),
        ("return_size", c_size_t),
    ]


def _params(key: bytes, data_type: int, data) -> ctypes.Array:
    """A one-entry ``OSSL_PARAM`` list over ``data``, which must outlive it."""
    params = (_Param * 2)()
    size = ctypes.sizeof(data)
    params[0] = _Param(key, data_type, ctypes.addressof(data), size, _OSSL_PARAM_UNMODIFIED)
    return params


_VOIDP_3 = [c_void_p, c_void_p, c_void_p]
_RAW_KEY_NEW = (c_void_p, [c_void_p, c_char_p, c_char_p, c_char_p, c_size_t])
_RAW_KEY_GET = (c_int, [c_void_p, c_char_p, POINTER(c_size_t)])
_PROTOTYPES = {
    "OpenSSL_version": (c_char_p, [c_int]),
    "EVP_SIGNATURE_fetch": (c_void_p, [c_void_p, c_char_p, c_char_p]),
    "EVP_PKEY_CTX_new_from_name": (c_void_p, [c_void_p, c_char_p, c_char_p]),
    "EVP_PKEY_CTX_new_from_pkey": (c_void_p, [c_void_p, c_void_p, c_char_p]),
    "EVP_PKEY_CTX_free": (None, [c_void_p]),
    "EVP_PKEY_CTX_set_params": (c_int, [c_void_p, c_void_p]),
    "EVP_PKEY_keygen_init": (c_int, [c_void_p]),
    "EVP_PKEY_generate": (c_int, [c_void_p, POINTER(c_void_p)]),
    "EVP_PKEY_new_raw_private_key_ex": _RAW_KEY_NEW,
    "EVP_PKEY_new_raw_public_key_ex": _RAW_KEY_NEW,
    "EVP_PKEY_get_raw_private_key": _RAW_KEY_GET,
    "EVP_PKEY_get_raw_public_key": _RAW_KEY_GET,
    "EVP_PKEY_free": (None, [c_void_p]),
    "EVP_PKEY_sign_message_init": (c_int, _VOIDP_3),
    "EVP_PKEY_sign": (c_int, [c_void_p, c_char_p, POINTER(c_size_t), c_char_p, c_size_t]),
    "EVP_PKEY_verify_message_init": (c_int, _VOIDP_3),
    "EVP_PKEY_verify": (c_int, [c_void_p, c_char_p, c_size_t, c_char_p, c_size_t]),
    "ERR_clear_error": (None, []),
}


class Library:
    """One loaded libcrypto that provides both signature algorithms."""

    name = "openssl"

    def __init__(self, path: str):
        lib = ctypes.CDLL(path)
        for name, (restype, argtypes) in _PROTOTYPES.items():
            fn = getattr(lib, name)  # AttributeError: not an OpenSSL 3.5 libcrypto
            fn.restype, fn.argtypes = restype, argtypes
        self._lib = lib
        self._signatures = {
            alg: lib.EVP_SIGNATURE_fetch(None, alg.encode(), None) for alg in _SIGNATURE_BYTES
        }
        missing = [alg for alg, fetched in self._signatures.items() if not fetched]
        if missing:
            raise OSError(f"{path} does not provide {', '.join(missing)}")
        self.path = path
        self.version = lib.OpenSSL_version(_OPENSSL_VERSION).decode()

    def _check(self, result, call: str):
        """``result`` of ``call``; a null pointer or a result below 1 raises ValueError."""
        if not result or result < 0:
            self._lib.ERR_clear_error()
            raise ValueError(f"OpenSSL {call} failed")
        return result

    def _generate(self, alg: str, seed: bytes) -> int:
        """An ``EVP_PKEY`` generated from ``seed``; the caller frees it."""
        lib = self._lib
        ctx = self._check(lib.EVP_PKEY_CTX_new_from_name(None, alg.encode(), None), "key context")
        try:
            data = ctypes.create_string_buffer(seed, len(seed))
            params = _params(b"seed", _OSSL_PARAM_OCTET_STRING, data)
            self._check(lib.EVP_PKEY_keygen_init(ctx), "EVP_PKEY_keygen_init")
            self._check(lib.EVP_PKEY_CTX_set_params(ctx, params), "EVP_PKEY_CTX_set_params")
            key = c_void_p()
            self._check(lib.EVP_PKEY_generate(ctx, ctypes.byref(key)), "EVP_PKEY_generate")
            return key.value
        finally:
            lib.EVP_PKEY_CTX_free(ctx)

    def slh_keygen(self, seed: bytes) -> tuple[bytes, bytes]:
        """SLH-DSA-SHAKE-192s ``(public key, private key)`` from the 72-byte seed."""
        lib = self._lib
        key = self._generate(SLH_DSA, seed)
        try:
            public = self._out(lib.EVP_PKEY_get_raw_public_key, _SLH.public_key_len, key)
            return public, self._out(lib.EVP_PKEY_get_raw_private_key, _SLH.secret_key_len, key)
        finally:
            lib.EVP_PKEY_free(key)

    def _out(self, fn, size: int, first, *rest) -> bytes:
        """The bytes ``fn(first, buffer, &length, *rest)`` writes into a ``size``-byte buffer."""
        buf, length = ctypes.create_string_buffer(size), c_size_t(size)
        self._check(fn(first, buf, ctypes.byref(length), *rest), fn.__name__)
        return buf.raw[: length.value]

    def _with_context(self, alg: str, key: int, init, params, call):
        """Initialise a signature context over ``key``, which it frees; return ``call(ctx)``."""
        lib = self._lib
        try:
            ctx = self._check(lib.EVP_PKEY_CTX_new_from_pkey(None, key, None), "signature context")
            try:
                self._check(init(ctx, self._signatures[alg], params), init.__name__)
                return call(ctx)
            finally:
                lib.EVP_PKEY_CTX_free(ctx)
        finally:
            lib.EVP_PKEY_free(key)

    def sign_deterministic(self, alg: str, secret: bytes, message: bytes) -> bytes:
        """Deterministic signature; ``secret`` is an ML-DSA seed or an SLH-DSA private key."""
        lib = self._lib
        if alg == ML_DSA:
            key = self._generate(alg, secret)
        else:
            new_key = lib.EVP_PKEY_new_raw_private_key_ex
            key = new_key(None, alg.encode(), None, secret, len(secret))
            self._check(key, new_key.__name__)
        one = c_int(1)
        params = _params(b"deterministic", _OSSL_PARAM_INTEGER, one)

        def sign(ctx) -> bytes:
            return self._out(lib.EVP_PKEY_sign, _SIGNATURE_BYTES[alg], ctx, message, len(message))

        return self._with_context(alg, key, lib.EVP_PKEY_sign_message_init, params, sign)

    def verify(self, alg: str, public_key: bytes, message: bytes, signature: bytes) -> bool:
        lib = self._lib
        new_key = lib.EVP_PKEY_new_raw_public_key_ex
        key = new_key(None, alg.encode(), None, public_key, len(public_key))
        self._check(key, new_key.__name__)

        def verify(ctx) -> bool:
            ok = lib.EVP_PKEY_verify(ctx, signature, len(signature), message, len(message)) == 1
            lib.ERR_clear_error()  # a rejected signature leaves an error queued
            return ok

        return self._with_context(alg, key, lib.EVP_PKEY_verify_message_init, None, verify)


def load(path: str) -> Optional[Library]:
    """The library at ``path`` (``~`` expanded); None if it does not load or lacks an algorithm.

    A relative path is taken from the working directory, so that the
    dynamic loader never searches its own paths for a bare name.
    """
    try:
        return Library(os.path.abspath(os.path.expanduser(path)))
    except (OSError, AttributeError):
        return None
