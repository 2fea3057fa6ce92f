"""Deterministic ML-DSA-65 key derivation and signing (FIPS 204 parameter set).

The fast signing/verification path of the lab uses the ``cryptography``
backend, whose signer is hedged: two signatures over the same message
differ.  Certificate issuance, however, must be bit-for-bit reproducible
from a provisioning seed, so this module provides the deterministic
variant (keygen from a 32-byte seed, signing with the zero hedge) in
NumPy.  Keys and signatures interoperate with the backend: a key derived
here from seed ``xi`` equals ``MLDSA65PrivateKey.from_seed_bytes(xi)``,
and signatures produced here verify under that backend.

Only issuance needs this module: :mod:`.backend` imports it (and so
NumPy) on the first deterministic ML-DSA signature and expands each issuer
seed once per process.  The NTTs are exact matrix products that transform
a whole vector of polynomials per call.  A signature takes a few
milliseconds, off the hot path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

Q = 8380417
N = 256
ZETA = 1753
D = 13
TAU = 49
LAMBDA = 192
GAMMA1 = 1 << 19
GAMMA2 = (Q - 1) // 32
K = 6
L = 5
ETA = 4
BETA = TAU * ETA
OMEGA = 55

PUBLIC_KEY_BYTES = 32 + 32 * K * 10  # rho + t1 packed at 10 bits
SIGNATURE_BYTES = LAMBDA // 4 + L * 32 * 20 + OMEGA + K  # 3309
SEED_BYTES = 32

_F_INV256 = pow(256, Q - 2, Q)


def _bitrev8(x: int) -> int:
    return int(f"{x:08b}"[::-1], 2)


def _shake256(data: bytes, n: int) -> bytes:
    return hashlib.shake_256(data).digest(n)


def _shake128(data: bytes, n: int) -> bytes:
    return hashlib.shake_128(data).digest(n)


def _power_matrix(bases: list[int], scale: int) -> np.ndarray:
    """float64 matrix whose row ``j`` is ``scale * bases**j mod Q``."""
    m = np.empty((N, N))
    row = np.full(N, scale, dtype=np.int64)
    base = np.array(bases, dtype=np.int64)
    for j in range(N):
        m[j] = row
        row = row * base % Q
    return m


# The NTT evaluates a polynomial at the roots zeta_i = ZETA**(2*brv8(i)+1)
# of X^256 + 1, so both transforms are matrices over Z_Q: ntt(a) = a @ _NTT
# with _NTT[j, i] = zeta_i**j, and intt(a) = a @ _INTT with
# _INTT[i, j] = zeta_i**-j / 256.
_ROOTS = [pow(ZETA, 2 * _bitrev8(i) + 1, Q) for i in range(N)]
_NTT = _power_matrix(_ROOTS, 1)
_INTT = _power_matrix([pow(z, Q - 2, Q) for z in _ROOTS], _F_INV256).T


# Products are made at most 4 rows at a time.  OpenBLAS runs a product on
# one thread while m*n*k <= 4 * 65536 (its default threshold), which is 4
# rows against a 256x256 matrix.  Larger products wake its thread pool,
# and in provisioning's pool workers, which already keep every CPU busy,
# that cost several times more than the products themselves.
_ROWS_PER_PRODUCT = 4


def _matmul_mod_q(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a @ m mod Q`` for ``a`` shaped ``(..., 256)``, exact in float64.

    ``a`` is reduced to [0, Q) and split into its high 11 and low 12 bits.
    Every partial sum of either product then stays below 2**43 < 2**53, so
    the result does not depend on the order in which BLAS adds.
    """
    flat = (a % Q).reshape(-1, N)
    halves = np.concatenate([flat >> 12, flat & 0xFFF]).astype(np.float64)
    out = np.empty_like(halves)
    for i in range(0, len(halves), _ROWS_PER_PRODUCT):
        rows = slice(i, i + _ROWS_PER_PRODUCT)
        np.matmul(halves[rows], m, out=out[rows])
    hi, lo = np.split(out.astype(np.int64), 2)
    return (((hi << 12) + lo) % Q).reshape(a.shape)


def _ntt(a: np.ndarray) -> np.ndarray:
    """Forward NTT of every polynomial in ``a``, shaped ``(..., 256)``."""
    return _matmul_mod_q(a, _NTT)


def _intt(a: np.ndarray) -> np.ndarray:
    """Inverse NTT of every polynomial in ``a``, shaped ``(..., 256)``."""
    return _matmul_mod_q(a, _INTT)


def _mod_pm(x: np.ndarray, m: int) -> np.ndarray:
    r = x % m
    return np.where(r > m // 2, r - m, r)


def _power2round(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rp = r % Q
    r0 = _mod_pm(rp, 1 << D)
    return (rp - r0) >> D, r0


def _decompose(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rp = r % Q
    r0 = _mod_pm(rp, 2 * GAMMA2)
    edge = (rp - r0) == Q - 1
    r1 = np.where(edge, 0, (rp - r0) // (2 * GAMMA2))
    r0 = np.where(edge, r0 - 1, r0)
    return r1, r0


def _inf_norm(x: np.ndarray) -> int:
    return int(np.abs(_mod_pm(x % Q, Q)).max())


def _pack_bits(vals: np.ndarray, nbits: int) -> bytes:
    bits = ((vals.reshape(-1, 1) >> np.arange(nbits, dtype=np.int64)) & 1).astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little").tobytes()


def _unpack_bits(data: bytes, nbits: int, count: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data, np.uint8), bitorder="little")[: count * nbits]
    weights = np.int64(1) << np.arange(nbits, dtype=np.int64)
    return (bits.reshape(count, nbits).astype(np.int64) * weights).sum(axis=1)


def _coef_from_three_bytes(stream: bytes) -> np.ndarray:
    buf = np.frombuffer(stream, np.uint8).astype(np.int64)
    trip = buf[: len(buf) - len(buf) % 3].reshape(-1, 3)
    z = trip[:, 0] | (trip[:, 1] << 8) | ((trip[:, 2] & 0x7F) << 16)
    return z[z < Q]


def _rej_ntt_poly(seed34: bytes) -> np.ndarray:
    out = np.empty(0, dtype=np.int64)
    n = 1024
    while out.size < N:
        out = _coef_from_three_bytes(_shake128(seed34, n))
        n *= 2
    return out[:N]


def _rej_bounded_poly(seed66: bytes) -> np.ndarray:
    n = 384
    while True:
        buf = np.frombuffer(_shake256(seed66, n), np.uint8).astype(np.int64)
        halves = np.empty(2 * buf.size, dtype=np.int64)
        halves[0::2] = buf & 0x0F
        halves[1::2] = buf >> 4
        ok = halves[halves < 9]
        if ok.size >= N:
            return ETA - ok[:N]
        n *= 2


def _expand_a(rho: bytes) -> np.ndarray:
    a_hat = np.empty((K, L, N), dtype=np.int64)
    for r in range(K):
        for s in range(L):
            a_hat[r, s] = _rej_ntt_poly(rho + bytes([s, r]))
    return a_hat


def _expand_s(rho_prime: bytes) -> tuple[np.ndarray, np.ndarray]:
    s1 = np.stack([_rej_bounded_poly(rho_prime + r.to_bytes(2, "little")) for r in range(L)])
    s2 = np.stack(
        [_rej_bounded_poly(rho_prime + (L + r).to_bytes(2, "little")) for r in range(K)]
    )
    return s1, s2


def _expand_mask(rho2: bytes, kappa: int) -> np.ndarray:
    c = 20  # bitlen(2 * GAMMA1)
    polys = []
    for r in range(L):
        v = _shake256(rho2 + (kappa + r).to_bytes(2, "little"), 32 * c)
        polys.append(GAMMA1 - _unpack_bits(v, c, N))
    return np.stack(polys)


def _sample_in_ball(c_tilde: bytes) -> np.ndarray:
    c = np.zeros(N, dtype=np.int64)
    n = 8 + 4 * TAU
    while True:
        stream = _shake256(c_tilde, n)
        signs = int.from_bytes(stream[:8], "little")
        pos = 8
        try:
            for i in range(N - TAU, N):
                while True:
                    j = stream[pos]
                    pos += 1
                    if j <= i:
                        break
                c[i] = c[j]
                c[j] = 1 - 2 * ((signs >> (i + TAU - N)) & 1)
            return c
        except IndexError:
            c[:] = 0
            n *= 2


def _matvec_ntt(a_hat: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    # not reduced mod Q: the inverse NTT that follows reduces
    return (a_hat * v_hat[None, :, :]).sum(axis=1)


def _w1_encode(w1: np.ndarray) -> bytes:
    return b"".join(_pack_bits(w1[i], 4) for i in range(K))


def _hint_bit_pack(h: np.ndarray) -> bytes:
    y = bytearray(OMEGA + K)
    index = 0
    for i in range(K):
        for j in np.nonzero(h[i])[0]:
            y[index] = int(j)
            index += 1
        y[OMEGA + i] = index
    return bytes(y)


@dataclass(frozen=True)
class _SecretKey:
    rho: bytes
    big_k: bytes
    tr: bytes
    s1_hat: np.ndarray
    s2_hat: np.ndarray
    t0_hat: np.ndarray
    a_hat: np.ndarray
    public_key: bytes

    def __post_init__(self):
        # backend memoises expanded keys and hands one object to every signer
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def keygen_from_seed(xi: bytes) -> tuple[bytes, _SecretKey]:
    """Derive (public key bytes, expanded secret) from a 32-byte seed."""
    if len(xi) != SEED_BYTES:
        raise ValueError("ML-DSA-65 seed must be 32 bytes")
    h = _shake256(xi + bytes([K, L]), 128)
    rho, rho_prime, big_k = h[:32], h[32:96], h[96:]
    a_hat = _expand_a(rho)
    s1, s2 = _expand_s(rho_prime)
    s1_hat = _ntt(s1)
    t = _intt(_matvec_ntt(a_hat, s1_hat)) + s2
    t1, t0 = _power2round(t)
    pk = rho + b"".join(_pack_bits(t1[i], 10) for i in range(K))
    tr = _shake256(pk, 64)
    sk = _SecretKey(
        rho=rho,
        big_k=big_k,
        tr=tr,
        s1_hat=s1_hat,
        s2_hat=_ntt(s2),
        t0_hat=_ntt(t0),
        a_hat=a_hat,
        public_key=pk,
    )
    return pk, sk


def sign_deterministic(sk: _SecretKey, message: bytes, ctx: bytes = b"") -> bytes:
    """FIPS 204 deterministic variant (hedge rnd fixed to zero), empty context."""
    if len(ctx) > 255:
        raise ValueError("context too long")
    m_prime = bytes([0, len(ctx)]) + ctx + message
    mu = _shake256(sk.tr + m_prime, 64)
    rho2 = _shake256(sk.big_k + bytes(32) + mu, 64)
    s_hat = np.concatenate([sk.s1_hat, sk.s2_hat])
    kappa = 0
    while True:
        y = _expand_mask(rho2, kappa)
        kappa += L
        y_hat = _ntt(y)
        w = _intt(_matvec_ntt(sk.a_hat, y_hat))
        w1, _ = _decompose(w)
        c_tilde = _shake256(mu + _w1_encode(w1), LAMBDA // 4)
        c_hat = _ntt(_sample_in_ball(c_tilde))
        cs1, cs2 = np.split(_intt(c_hat * s_hat), [L])
        z = y + _mod_pm(cs1, Q)
        if _inf_norm(z) >= GAMMA1 - BETA:
            continue
        wcs2 = w - cs2
        _, r0 = _decompose(wcs2)
        if int(np.abs(r0).max()) >= GAMMA2 - BETA:
            continue
        ct0 = _mod_pm(_intt(c_hat * sk.t0_hat), Q)
        if _inf_norm(ct0) >= GAMMA2:
            continue
        v1 = _decompose(wcs2)[0]
        v2 = _decompose(wcs2 + ct0)[0]
        h = (v1 != v2).astype(np.int64)
        if int(h.sum()) > OMEGA:
            continue
        z_packed = b"".join(_pack_bits(GAMMA1 - _mod_pm(z[i] % Q, Q), 20) for i in range(L))
        return c_tilde + z_packed + _hint_bit_pack(h)
