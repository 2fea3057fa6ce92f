"""Certificate hierarchy material: codec, issuance, serving policy, validation.

Certificates use a canonical fixed-order binary encoding (big-endian
integers, u32 length prefixes on variable fields) rather than DER, laid
out by one table, ``TBS_FIELDS``; the byte budget is dominated by keys
and signatures, so transport ratios stay representative while byte
accounting stays exact and reproducible.  A
self-signed root is 2.7% (ML-DSA-65) and 0.9% (SLH-DSA-SHAKE-192s)
smaller than the X.509 DER root that ``openssl req -x509`` makes with the
same subject and a CA basic constraint (``tests/test_pki.py`` pins both).

Certificate signatures are issued deterministically so that a hierarchy
is a pure function of (scenario, seed).  The lab likewise freezes the
issuance clock by default: wall time in certificate bytes would break
re-provisioning determinism.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass, make_dataclass
from pathlib import Path
from typing import Optional

from .crypto import backend
from .crypto.backend import CryptoError, KeyPair
from .scenario import POSITION_SERIALS, Scenario, SigFamily, position_names

# Frozen issuance clock: 2026-01-01T00:00:00Z.  Overridable everywhere.
DEFAULT_NOW = 1767225600
VALIDITY_BACKDATE = 86400
VALIDITY_LIFETIME = 365 * 86400

_TBS_VERSION = 1


# The to-be-signed fields in wire order: a ``struct`` code for a fixed-size
# big-endian field, or TEXT / BYTES for a u32-length-prefixed UTF-8 string
# or byte string.  This is the one statement of the layout: encode_tbs and
# decode_certificate loop over it, and every caller names the fields.
TEXT, BYTES = "text", "bytes"
TBS_FIELDS = (
    ("version", "B"),
    ("serial", "Q"),
    ("subject", TEXT),
    ("issuer", TEXT),
    ("sig_alg_id", "H"),
    ("pk_alg_id", "H"),
    ("public_key", BYTES),
    ("not_before", "Q"),
    ("not_after", "Q"),
    ("is_ca", "?"),
)
# TBS_FIELDS with each struct code precompiled
_TBS_CODECS = [(n, c if c in (TEXT, BYTES) else struct.Struct(">" + c)) for n, c in TBS_FIELDS]
_TBS_NAMES = {name for name, _ in TBS_FIELDS}
_U32 = struct.Struct(">I")


class CodecError(ValueError):
    """Certificate bytes do not parse, are not canonical or name an unknown version or algorithm."""


def read_prefixed(data: bytes, offset: int) -> tuple[bytes, int]:
    """The u32-length-prefixed field at ``offset`` and the offset after it."""
    start = offset + _U32.size
    if start > len(data):
        raise CodecError("truncated length prefix")
    end = start + _U32.unpack_from(data, offset)[0]
    if end > len(data):
        raise CodecError("length prefix runs past the end")
    return data[start:end], end


class _Certificate:
    """What a certificate offers beyond its fields, which ``CertificateRecord`` declares."""

    @property
    def signature_family(self) -> SigFamily:
        return SigFamily.from_alg_id(self.sig_alg_id)

    @property
    def key_family(self) -> SigFamily:
        return SigFamily.from_alg_id(self.pk_alg_id)

    def tbs_bytes(self) -> bytes:
        """The signed bytes: decoding checked that they are the canonical encoding."""
        return read_prefixed(self.encoded, 0)[0]


# A decoded certificate: the ``TBS_FIELDS`` by name, each typed by its codec (TEXT a
# str, BYTES bytes, "?" a bool, any other struct code an int), then the signature and
# the encoded bytes.  Types are strings, as a ``@dataclass`` here would spell them.
_FIELD_TYPES = {TEXT: "str", BYTES: "bytes", "?": "bool"}
CertificateRecord = make_dataclass(
    "CertificateRecord",
    [(name, _FIELD_TYPES.get(code, "int")) for name, code in TBS_FIELDS]
    + [("signature", "bytes"), ("encoded", "bytes")],
    bases=(_Certificate,), frozen=True, namespace={"__module__": __name__},
)


def encode_tbs(**fields) -> bytes:
    """The to-be-signed bytes of ``TBS_FIELDS``, each passed by name."""
    if fields.keys() != _TBS_NAMES:
        raise TypeError(f"encode_tbs takes exactly the TBS_FIELDS, got {sorted(fields)}")
    parts = []
    for name, codec in _TBS_CODECS:
        value = fields[name]
        if isinstance(codec, struct.Struct):
            parts.append(codec.pack(value))
        else:
            value = value.encode() if codec == TEXT else value
            parts += (_U32.pack(len(value)), value)
    return b"".join(parts)


def encode_certificate(tbs: bytes, signature: bytes) -> bytes:
    return _U32.pack(len(tbs)) + tbs + _U32.pack(len(signature)) + signature


_ALG_IDS = {family.alg_id for family in SigFamily}


def decode_certificate(data: bytes) -> CertificateRecord:
    tbs, offset = read_prefixed(data, 0)
    signature, offset = read_prefixed(data, offset)
    if offset != len(data):
        raise CodecError("trailing certificate bytes")
    fields, offset = {}, 0
    try:
        for name, codec in _TBS_CODECS:
            if isinstance(codec, struct.Struct):
                (fields[name],) = codec.unpack_from(tbs, offset)
                if codec.format == ">?" and tbs[offset] > 1:  # the one field not decoded 1:1
                    raise CodecError(f"non-canonical {name} byte {tbs[offset]:#04x}")
                offset += codec.size
            else:
                value, offset = read_prefixed(tbs, offset)
                fields[name] = value.decode() if codec == TEXT else value
    except (struct.error, UnicodeDecodeError) as exc:
        raise CodecError(f"malformed certificate: {exc}") from exc
    if offset != len(tbs):
        raise CodecError("trailing tbs bytes")
    if fields["version"] != _TBS_VERSION:
        raise CodecError(f"unknown certificate version {fields['version']}")
    if {fields["sig_alg_id"], fields["pk_alg_id"]} - _ALG_IDS:
        raise CodecError(f"unknown algorithm id in ({fields['sig_alg_id']}, {fields['pk_alg_id']})")
    return CertificateRecord(**fields, signature=signature, encoded=data)


def _tbs_digest(tbs: bytes) -> bytes:
    return hashlib.sha256(tbs).digest()


def issue_certificate(
    *,
    serial: int,
    subject: str,
    subject_key: KeyPair,
    issuer_name: str,
    issuer_key: KeyPair,
    is_ca: bool,
    now: int = DEFAULT_NOW,
) -> CertificateRecord:
    """Sign a certificate over hash(tbs) with the issuer key (deterministic)."""
    tbs = encode_tbs(
        version=_TBS_VERSION,
        serial=serial,
        subject=subject,
        issuer=issuer_name,
        sig_alg_id=issuer_key.algorithm.alg_id,
        pk_alg_id=subject_key.algorithm.alg_id,
        public_key=subject_key.public_key,
        not_before=now - VALIDITY_BACKDATE,
        not_after=now + VALIDITY_LIFETIME,
        is_ca=is_ca,
    )
    signature = backend.sign(issuer_key, _tbs_digest(tbs))
    return decode_certificate(encode_certificate(tbs, signature))


def verify_certificate(cert: CertificateRecord, issuer_public_key: bytes) -> bool:
    return backend.verify(
        cert.signature_family, issuer_public_key, _tbs_digest(cert.tbs_bytes()), cert.signature
    )


@dataclass(frozen=True)
class HierarchyMaterial:
    """A scenario's hierarchy as one chain of ``(certificate, keypair)``, root first."""

    scenario_id: str
    chain: tuple[tuple[CertificateRecord, KeyPair], ...]

    @property
    def leaf(self) -> tuple[CertificateRecord, KeyPair]:
        return self.chain[-1]

    @property
    def depth(self) -> int:
        return len(self.chain)

    def certificates(self) -> list[CertificateRecord]:
        return [cert for cert, _ in self.chain]


def _position_seed(master_seed: bytes, scenario_id: str, position: str, n: int) -> bytes:
    material = b"pqchainlab-keyseed\x00" + master_seed + scenario_id.encode() + b"\x00" + position.encode()
    return hashlib.shake_256(material).digest(n)


def build_hierarchy(scenario: Scenario, seed: bytes, now: int = DEFAULT_NOW) -> HierarchyMaterial:
    """Generate keys and issue the scenario's chain; pure in (scenario, seed, now).

    The root signs itself and every other position is signed by the one
    above it; every position but the leaf is a CA.
    """
    sid = scenario.display_id
    positions = scenario.placement.positions()
    chain: list[tuple[CertificateRecord, KeyPair]] = []
    issuer_name, issuer_key = None, None  # the root is its own issuer
    for i, (name, family) in enumerate(positions):
        seed_len = backend.SIG_PARAMS[family].seed_len
        key = backend.generate_keypair(family, _position_seed(seed, sid, name, seed_len))
        subject = f"{sid}:{name}"
        cert = issue_certificate(
            serial=POSITION_SERIALS[name],
            subject=subject,
            subject_key=key,
            issuer_name=issuer_name or subject,
            issuer_key=issuer_key or key,
            is_ca=i < len(positions) - 1,
            now=now,
        )
        chain.append((cert, key))
        issuer_name, issuer_key = subject, key
    return HierarchyMaterial(scenario_id=sid, chain=tuple(chain))


class ServedChainPolicy(enum.Enum):
    """What the server puts on the wire.

    MIRROR reproduces the effective two-certificate exposure observed in
    the reference measurements: depth 2 serves [leaf, root], depth 3
    serves [leaf, intermediate] (the root stays out of the wire chain).
    """

    MIRROR = "mirror"
    FULL_CHAIN = "full"
    LEAF_ONLY = "leaf"


# Certificates each policy serves, counted from the leaf; None serves them all.
_SERVED_COUNT = {
    ServedChainPolicy.LEAF_ONLY: 1,
    ServedChainPolicy.MIRROR: 2,
    ServedChainPolicy.FULL_CHAIN: None,
}


def served_chain(h: HierarchyMaterial, policy: ServedChainPolicy) -> list[CertificateRecord]:
    """Ordered wire chain, leaf first."""
    return h.certificates()[::-1][: _SERVED_COUNT[policy]]


def client_trust_store(
    h: HierarchyMaterial, policy: ServedChainPolicy
) -> list[CertificateRecord]:
    """Trust material a client needs for the given serving policy.

    Serving only the leaf of a depth-3 hierarchy is deployable only when
    clients already hold the intermediate, so LEAF_ONLY preloads every CA
    certificate next to the root anchor.  The other policies use the root
    alone.
    """
    certs = h.certificates()
    return certs[:-1] if policy is ServedChainPolicy.LEAF_ONLY else certs[:1]


def chain_bytes_unique(chain: list[CertificateRecord]) -> int:
    return sum(len(encoded) for encoded in {c.encoded for c in chain})


def chain_len_unique(chain: list[CertificateRecord]) -> int:
    return len({c.encoded for c in chain})


class PathErrorKind(enum.Enum):
    BAD_SIGNATURE = "bad_signature"
    UNKNOWN_ANCHOR = "unknown_anchor"
    EXPIRED = "expired"
    NOT_YET_VALID = "not_yet_valid"
    NOT_CA = "not_ca"
    ISSUER_MISMATCH = "issuer_mismatch"
    ALGORITHM_MISMATCH = "algorithm_mismatch"
    BAD_ANCHOR = "bad_anchor"


class PathError(Exception):
    def __init__(self, kind: PathErrorKind, position: Optional[int] = None):
        self.kind = kind
        self.position = position
        detail = f" at position {position}" if position is not None else ""
        super().__init__(f"{kind.value}{detail}")


def validate_chain(
    served: list[CertificateRecord],
    trust_store: list[CertificateRecord],
    now: int,
) -> None:
    """Validate a served chain (leaf first) against the trust store.

    Every served certificate must be inside its validity window, and every
    one above the leaf must be a CA.  The trust-store anchor that the top
    certificate's issuer name resolves to must be a CA inside its validity
    window too.  Each certificate is then checked against its parent (its
    successor, or the anchor for the top one): its issuer name must equal
    the parent's subject, its signature algorithm the parent's key
    algorithm, and its signature must verify under the parent's key.  A
    served root therefore gets its self-signature checked against the
    stored anchor.  Raises :class:`PathError`; returns None on success.

    That check is the lab's rule.  RFC 5280 §6.1 takes the trust anchor as
    an input, not as a certificate to verify, and OpenSSL 3.5.6 accepts a
    corrupt self-signature in ``-CAfile`` unless ``-check_ss_sig`` is set.
    The reference rows fit a client without it (R² 0.996 with no term for
    a served root's self-signature), while in the lab it is one
    pure-Python SLH-DSA verification on the SLH-root depth-2 client: depth
    3 over depth 2 mean latency read 0.54–0.65 with the check and
    1.13–1.36 without it.  README's "Path validation" note has the probes.
    """
    if not served:
        raise ValueError("served chain is empty")

    for i, cert in enumerate(served):
        if now < cert.not_before:
            raise PathError(PathErrorKind.NOT_YET_VALID, i)
        if now > cert.not_after:
            raise PathError(PathErrorKind.EXPIRED, i)
        if i > 0 and not cert.is_ca:
            raise PathError(PathErrorKind.NOT_CA, i)

    anchor = next((c for c in trust_store if c.subject == served[-1].issuer), None)
    if anchor is None:
        raise PathError(PathErrorKind.UNKNOWN_ANCHOR)
    if not (anchor.is_ca and anchor.not_before <= now <= anchor.not_after):
        raise PathError(PathErrorKind.BAD_ANCHOR)

    for i, (cert, parent) in enumerate(zip(served, served[1:] + [anchor])):
        if cert.issuer != parent.subject:
            raise PathError(PathErrorKind.ISSUER_MISMATCH, i)
        if cert.sig_alg_id != parent.pk_alg_id:
            raise PathError(PathErrorKind.ALGORITHM_MISMATCH, i)
        if not verify_certificate(cert, parent.public_key):
            raise PathError(PathErrorKind.BAD_SIGNATURE, i)


# --- on-disk layout -----------------------------------------------------

_KEY_MAGIC = struct.Struct(">H")


def _write_key(path: Path, keypair: KeyPair) -> None:
    path.write_bytes(_KEY_MAGIC.pack(keypair.algorithm.alg_id) + keypair.secret_key)


def _read_key(path: Path) -> KeyPair:
    data = path.read_bytes()
    alg_id = int.from_bytes(data[: _KEY_MAGIC.size], "big")
    if len(data) < _KEY_MAGIC.size or alg_id not in _ALG_IDS:
        raise CodecError(f"{path}: no known algorithm id in a {len(data)}-byte key file")
    family = SigFamily.from_alg_id(alg_id)
    return backend.keypair_from_secret(family, data[_KEY_MAGIC.size :])


def write_hierarchy(h: HierarchyMaterial, directory: Path | str) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, (cert, keypair) in zip(position_names(h.depth), h.chain):
        (directory / f"{name}.cert").write_bytes(cert.encoded)
        _write_key(directory / f"{name}.key", keypair)


def load_hierarchy(directory: Path | str) -> HierarchyMaterial:
    """Read a hierarchy that :func:`write_hierarchy` wrote.

    Raises CodecError for a certificate or key file that does not parse
    and CryptoError for a key that does not fit its certificate.
    """
    directory = Path(directory)

    def load(name: str) -> tuple[CertificateRecord, KeyPair]:
        path = directory / f"{name}.cert"
        try:
            cert = decode_certificate(path.read_bytes())
        except CodecError as exc:
            raise CodecError(f"{path}: {exc}") from exc
        key = _read_key(directory / f"{name}.key")
        if key.public_key != cert.public_key:
            raise CryptoError(f"{name} key does not match certificate")
        return cert, key

    depth = 3 if (directory / "int.cert").exists() else 2
    chain = tuple(load(name) for name in position_names(depth))
    sid = chain[0][0].subject.rsplit(":", 1)[0]
    return HierarchyMaterial(scenario_id=sid, chain=chain)
