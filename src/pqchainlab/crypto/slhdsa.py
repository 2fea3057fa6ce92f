"""SLH-DSA-SHAKE-192s (FIPS 205 parameter set), pure Python.

``cryptography`` exposes no SLH-DSA, so the stateless hash-based scheme
is implemented directly on top of ``hashlib.shake_256``.  This module
signs CertificateVerify and verifies every SLH-DSA signature on the
handshake path.  Certificate issuance runs on OpenSSL 3.5 when it loads
(see :mod:`.backend`), which gives the same bytes more than twice as
fast.  The cost profile is exactly the point of the lab: signing walks
~3.8M short SHAKE evaluations (seconds), key generation builds one
512-leaf subtree (sub-second), verification recomputes ~3k hashes
(milliseconds).  Inner loops are written against precomputed address
prefixes to keep per-hash overhead low.

Key generation is deterministic from a 72-byte seed
(``SK.seed || SK.prf || PK.seed``).  Signing is deterministic when
``opt_rand`` is left at its default (the public seed, per the standard's
deterministic variant); pass fresh randomness for hedged signatures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

N = 24
H_TOTAL = 63
D = 7
HP = 9  # subtree height, h/d
A = 14
K = 17
W = 16

LEN1 = 48
LEN2 = 3
LEN = LEN1 + LEN2  # 51

M_DIGEST = (K * A + 7) // 8 + (H_TOTAL - HP + 7) // 8 + (HP + 7) // 8  # 30+7+2

SEED_BYTES = 3 * N  # SK.seed || SK.prf || PK.seed
PUBLIC_KEY_BYTES = 2 * N
SIGNATURE_BYTES = N * (1 + K * (A + 1) + H_TOTAL + D * LEN)  # 16224

# ADRS type words, big-endian u32
_T_WOTS_HASH = (0).to_bytes(4, "big")
_T_WOTS_PK = (1).to_bytes(4, "big")
_T_TREE = (2).to_bytes(4, "big")
_T_FORS_TREE = (3).to_bytes(4, "big")
_T_FORS_ROOTS = (4).to_bytes(4, "big")
_T_WOTS_PRF = (5).to_bytes(4, "big")
_T_FORS_PRF = (6).to_bytes(4, "big")

_U32 = [i.to_bytes(4, "big") for i in range(max(LEN, W) + 1)]
_Z4 = bytes(4)
_Z8 = bytes(8)

_shake = hashlib.shake_256


@dataclass(frozen=True)
class PrivateKey:
    sk_seed: bytes
    sk_prf: bytes
    pk_seed: bytes
    pk_root: bytes

    def public_key(self) -> bytes:
        return self.pk_seed + self.pk_root

    def to_bytes(self) -> bytes:
        return self.sk_seed + self.sk_prf + self.pk_seed + self.pk_root

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrivateKey":
        if len(data) != 4 * N:
            raise ValueError("SLH-DSA-SHAKE-192s private key must be 96 bytes")
        return cls(data[:N], data[N : 2 * N], data[2 * N : 3 * N], data[3 * N :])


def _lt(layer: int, tree: int) -> bytes:
    """layer || tree-address portion of an ADRS (16 bytes)."""
    return layer.to_bytes(4, "big") + tree.to_bytes(12, "big")


class _TreeCtx:
    """Hash-input prefixes for one (layer, tree address) pair."""

    __slots__ = ("f", "prf", "wotspk", "tree")

    def __init__(self, pk_seed: bytes, layer: int, tree: int):
        base = pk_seed + _lt(layer, tree)
        self.f = base + _T_WOTS_HASH
        self.prf = base + _T_WOTS_PRF
        self.wotspk = base + _T_WOTS_PK
        self.tree = base + _T_TREE


def _wots_pk_gen(ctx: _TreeCtx, sk_seed: bytes, keypair: int) -> bytes:
    kp4 = keypair.to_bytes(4, "big")
    prf_prefix = ctx.prf + kp4
    f_prefix = ctx.f + kp4
    shake = _shake
    u32 = _U32
    parts = []
    for i in range(LEN):
        i4 = u32[i]
        x = shake(prf_prefix + i4 + _Z4 + sk_seed).digest(N)
        chain_prefix = f_prefix + i4
        for j in range(W - 1):
            x = shake(chain_prefix + u32[j] + x).digest(N)
        parts.append(x)
    return shake(ctx.wotspk + kp4 + _Z8 + b"".join(parts)).digest(N)


def _wots_digits(message: bytes) -> list[int]:
    digits = []
    for b in message:
        digits.append(b >> 4)
        digits.append(b & 0x0F)
    csum = sum(W - 1 - d for d in digits) << 4
    cb = csum.to_bytes(2, "big")
    digits.extend((cb[0] >> 4, cb[0] & 0x0F, cb[1] >> 4))
    return digits


def _wots_sign(ctx: _TreeCtx, sk_seed: bytes, keypair: int, message: bytes) -> bytes:
    kp4 = keypair.to_bytes(4, "big")
    prf_prefix = ctx.prf + kp4
    f_prefix = ctx.f + kp4
    shake = _shake
    u32 = _U32
    sig = []
    for i, digit in enumerate(_wots_digits(message)):
        i4 = u32[i]
        x = shake(prf_prefix + i4 + _Z4 + sk_seed).digest(N)
        chain_prefix = f_prefix + i4
        for j in range(digit):
            x = shake(chain_prefix + u32[j] + x).digest(N)
        sig.append(x)
    return b"".join(sig)


def _wots_pk_from_sig(ctx: _TreeCtx, keypair: int, sig: bytes, message: bytes) -> bytes:
    kp4 = keypair.to_bytes(4, "big")
    f_prefix = ctx.f + kp4
    shake = _shake
    u32 = _U32
    parts = []
    for i, digit in enumerate(_wots_digits(message)):
        x = sig[i * N : (i + 1) * N]
        chain_prefix = f_prefix + u32[i]
        for j in range(digit, W - 1):
            x = shake(chain_prefix + u32[j] + x).digest(N)
        parts.append(x)
    return shake(ctx.wotspk + kp4 + _Z8 + b"".join(parts)).digest(N)


def _xmss_tree(ctx: _TreeCtx, sk_seed: bytes) -> list[list[bytes]]:
    """All node levels of one subtree; levels[z][i] is the node at height z."""
    nodes = [_wots_pk_gen(ctx, sk_seed, i) for i in range(1 << HP)]
    levels = [nodes]
    shake = _shake
    for z in range(1, HP + 1):
        below = levels[-1]
        prefix = ctx.tree + _Z4 + z.to_bytes(4, "big")
        levels.append(
            [
                shake(prefix + i.to_bytes(4, "big") + below[2 * i] + below[2 * i + 1]).digest(N)
                for i in range(len(below) // 2)
            ]
        )
    return levels


def _xmss_sign_from_tree(
    ctx: _TreeCtx, sk_seed: bytes, idx: int, message: bytes, levels: list[list[bytes]]
) -> bytes:
    auth = b"".join(levels[z][(idx >> z) ^ 1] for z in range(HP))
    return _wots_sign(ctx, sk_seed, idx, message) + auth


def _xmss_pk_from_sig(ctx: _TreeCtx, idx: int, sig: bytes, message: bytes) -> bytes:
    wots_sig, auth = sig[: LEN * N], sig[LEN * N :]
    node = _wots_pk_from_sig(ctx, idx, wots_sig, message)
    shake = _shake
    tree_index = idx
    for z in range(HP):
        sibling = auth[z * N : (z + 1) * N]
        prefix = ctx.tree + _Z4 + (z + 1).to_bytes(4, "big")
        if tree_index & 1:
            tree_index = (tree_index - 1) >> 1
            node = shake(prefix + tree_index.to_bytes(4, "big") + sibling + node).digest(N)
        else:
            tree_index >>= 1
            node = shake(prefix + tree_index.to_bytes(4, "big") + node + sibling).digest(N)
    return node


def _fors_indices(md: bytes) -> list[int]:
    bits = int.from_bytes(md, "big")
    total = len(md) * 8
    return [(bits >> (total - A * (i + 1))) & ((1 << A) - 1) for i in range(K)]


def _fors_sign(pk_seed: bytes, sk_seed: bytes, tree: int, keypair: int, md: bytes) -> tuple[bytes, bytes]:
    """Returns (signature portion, FORS public key)."""
    base = pk_seed + _lt(0, tree)
    prf_prefix = base + _T_FORS_PRF + keypair.to_bytes(4, "big") + _Z4
    leaf_base = base + _T_FORS_TREE + keypair.to_bytes(4, "big")
    shake = _shake
    indices = _fors_indices(md)
    sig_parts = []
    roots = []
    for i, idx in enumerate(indices):
        offset = i << A
        sks = [
            shake(prf_prefix + (offset + j).to_bytes(4, "big") + sk_seed).digest(N)
            for j in range(1 << A)
        ]
        leaf_prefix = leaf_base + _Z4
        nodes = [
            shake(leaf_prefix + (offset + j).to_bytes(4, "big") + sks[j]).digest(N)
            for j in range(1 << A)
        ]
        levels = [nodes]
        for z in range(1, A + 1):
            below = levels[-1]
            width = len(below) // 2
            start = i << (A - z)
            prefix = leaf_base + z.to_bytes(4, "big")
            levels.append(
                [
                    shake(
                        prefix + (start + j).to_bytes(4, "big") + below[2 * j] + below[2 * j + 1]
                    ).digest(N)
                    for j in range(width)
                ]
            )
        auth = b"".join(levels[z][(idx >> z) ^ 1] for z in range(A))
        sig_parts.append(sks[idx] + auth)
        roots.append(levels[A][0])
    pk_fors = shake(
        base + _T_FORS_ROOTS + keypair.to_bytes(4, "big") + _Z8 + b"".join(roots)
    ).digest(N)
    return b"".join(sig_parts), pk_fors


def _fors_pk_from_sig(pk_seed: bytes, tree: int, keypair: int, sig: bytes, md: bytes) -> bytes:
    base = pk_seed + _lt(0, tree)
    leaf_base = base + _T_FORS_TREE + keypair.to_bytes(4, "big")
    shake = _shake
    indices = _fors_indices(md)
    roots = []
    item = N * (A + 1)
    for i, idx in enumerate(indices):
        chunk = sig[i * item : (i + 1) * item]
        sk, auth = chunk[:N], chunk[N:]
        tree_index = (i << A) + idx
        node = shake(leaf_base + _Z4 + tree_index.to_bytes(4, "big") + sk).digest(N)
        for z in range(A):
            sibling = auth[z * N : (z + 1) * N]
            prefix = leaf_base + (z + 1).to_bytes(4, "big")
            if tree_index & 1:
                tree_index = (tree_index - 1) >> 1
                node = shake(prefix + tree_index.to_bytes(4, "big") + sibling + node).digest(N)
            else:
                tree_index >>= 1
                node = shake(prefix + tree_index.to_bytes(4, "big") + node + sibling).digest(N)
        roots.append(node)
    return shake(
        base + _T_FORS_ROOTS + keypair.to_bytes(4, "big") + _Z8 + b"".join(roots)
    ).digest(N)


def keygen_from_seed(seed: bytes) -> tuple[bytes, PrivateKey]:
    """Derive (public key bytes, private key) from SK.seed || SK.prf || PK.seed."""
    if len(seed) != SEED_BYTES:
        raise ValueError("SLH-DSA-SHAKE-192s seed must be 72 bytes")
    sk_seed, sk_prf, pk_seed = seed[:N], seed[N : 2 * N], seed[2 * N :]
    ctx = _TreeCtx(pk_seed, D - 1, 0)
    pk_root = _xmss_tree(ctx, sk_seed)[HP][0]
    key = PrivateKey(sk_seed, sk_prf, pk_seed, pk_root)
    return key.public_key(), key


def _split_digest(digest: bytes) -> tuple[bytes, int, int]:
    md_len = (K * A + 7) // 8
    tree_len = (H_TOTAL - HP + 7) // 8
    md = digest[:md_len]
    idx_tree = int.from_bytes(digest[md_len : md_len + tree_len], "big") % (1 << (H_TOTAL - HP))
    idx_leaf = int.from_bytes(digest[md_len + tree_len :], "big") % (1 << HP)
    return md, idx_tree, idx_leaf


def sign(key: PrivateKey, message: bytes, ctx: bytes = b"", opt_rand: bytes | None = None) -> bytes:
    """Sign; deterministic unless ``opt_rand`` supplies fresh randomness."""
    if len(ctx) > 255:
        raise ValueError("context too long")
    m_prime = bytes([0, len(ctx)]) + ctx + message
    if opt_rand is None:
        opt_rand = key.pk_seed
    elif len(opt_rand) != N:
        raise ValueError("opt_rand must be 24 bytes")
    r = _shake(key.sk_prf + opt_rand + m_prime).digest(N)
    digest = _shake(r + key.pk_seed + key.pk_root + m_prime).digest(M_DIGEST)
    md, idx_tree, idx_leaf = _split_digest(digest)

    fors_sig, pk_fors = _fors_sign(key.pk_seed, key.sk_seed, idx_tree, idx_leaf, md)

    sig = [r, fors_sig]
    root = pk_fors
    for layer in range(D):
        tctx = _TreeCtx(key.pk_seed, layer, idx_tree)
        levels = _xmss_tree(tctx, key.sk_seed)
        xmss_sig = _xmss_sign_from_tree(tctx, key.sk_seed, idx_leaf, root, levels)
        sig.append(xmss_sig)
        root = levels[HP][0]
        idx_leaf = idx_tree & ((1 << HP) - 1)
        idx_tree >>= HP
    return b"".join(sig)


def verify(public_key: bytes, message: bytes, signature: bytes, ctx: bytes = b"") -> bool:
    if len(public_key) != PUBLIC_KEY_BYTES or len(signature) != SIGNATURE_BYTES:
        return False
    if len(ctx) > 255:
        raise ValueError("context too long")
    pk_seed, pk_root = public_key[:N], public_key[N:]
    m_prime = bytes([0, len(ctx)]) + ctx + message
    r = signature[:N]
    digest = _shake(r + pk_seed + pk_root + m_prime).digest(M_DIGEST)
    md, idx_tree, idx_leaf = _split_digest(digest)

    fors_len = K * (A + 1) * N
    fors_sig = signature[N : N + fors_len]
    node = _fors_pk_from_sig(pk_seed, idx_tree, idx_leaf, fors_sig, md)

    offset = N + fors_len
    xmss_len = (LEN + HP) * N
    for layer in range(D):
        tctx = _TreeCtx(pk_seed, layer, idx_tree)
        xmss_sig = signature[offset : offset + xmss_len]
        node = _xmss_pk_from_sig(tctx, idx_leaf, xmss_sig, node)
        offset += xmss_len
        idx_leaf = idx_tree & ((1 << HP) - 1)
        idx_tree >>= HP
    return node == pk_root
