import dataclasses
import hashlib
import random
import shutil
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqchainlab import pki
from pqchainlab.crypto import backend
from pqchainlab.pki import (
    DEFAULT_NOW,
    PathError,
    PathErrorKind,
    ServedChainPolicy,
    build_hierarchy,
    chain_bytes_unique,
    chain_len_unique,
    decode_certificate,
    encode_certificate,
    encode_tbs,
    issue_certificate,
    load_hierarchy,
    served_chain,
    validate_chain,
    verify_certificate,
    write_hierarchy,
)
from pqchainlab.scenario import SigFamily

from conftest import SEED, reencoded


@given(
    serial=st.integers(min_value=0, max_value=2**64 - 1),
    subject=st.text(max_size=40),
    issuer=st.text(max_size=40),
    pk=st.binary(min_size=0, max_size=256),
    sig=st.binary(min_size=0, max_size=256),
    nb=st.integers(min_value=0, max_value=2**40),
    ca=st.booleans(),
)
@settings(max_examples=60)
def test_codec_roundtrip(serial, subject, issuer, pk, sig, nb, ca):
    tbs = encode_tbs(
        version=1,
        serial=serial,
        subject=subject,
        issuer=issuer,
        sig_alg_id=1,
        pk_alg_id=2,
        public_key=pk,
        not_before=nb,
        not_after=nb + 1000,
        is_ca=ca,
    )
    cert = decode_certificate(encode_certificate(tbs, sig))
    assert cert.serial == serial and cert.subject == subject and cert.issuer == issuer
    assert cert.public_key == pk and cert.signature == sig and cert.is_ca == ca
    assert decode_certificate(cert.encoded) == cert


def test_certificate_record_fields_follow_tbs_fields():
    """The record's fields are the layout's, in order and typed by codec, then the
    signature and the encoded bytes."""
    assert [(f.name, f.type) for f in dataclasses.fields(pki.CertificateRecord)] == [
        ("version", "int"), ("serial", "int"), ("subject", "str"), ("issuer", "str"),
        ("sig_alg_id", "int"), ("pk_alg_id", "int"), ("public_key", "bytes"),
        ("not_before", "int"), ("not_after", "int"), ("is_ca", "bool"),
        ("signature", "bytes"), ("encoded", "bytes"),
    ]
    assert [name for name, _ in pki.TBS_FIELDS] == [
        f.name for f in dataclasses.fields(pki.CertificateRecord)][:-2]


def test_codec_rejects_trailing_bytes(ml_d3_hierarchy):
    """Each malformed or non-canonical variant of an issued certificate is a CodecError."""
    _, h = ml_d3_hierarchy
    leaf = h.leaf[0]
    encoded = leaf.encoded
    tbs = encoded[4 : 4 + int.from_bytes(encoded[:4], "big")]
    # version(1) serial(8), then the u32-prefixed subject and issuer
    subject_at = 9 + 4
    alg_ids_at = subject_at + len(leaf.subject.encode()) + 4 + len(leaf.issuer.encode())

    def patched(offset, patch):
        return encode_certificate(tbs[:offset] + patch + tbs[offset + len(patch) :], leaf.signature)

    cases = {
        "trailing byte": encoded + b"\x00",
        "missing byte": encoded[:-1],
        "tbs length prefix past the end": len(encoded).to_bytes(4, "big") + encoded[4:],
        "trailing tbs byte": encode_certificate(tbs + b"\x00", leaf.signature),
        "is_ca byte 0x02": patched(len(tbs) - 1, b"\x02"),
        "signature algorithm id 3": patched(alg_ids_at, (3).to_bytes(2, "big")),
        "key algorithm id 3": patched(alg_ids_at + 2, (3).to_bytes(2, "big")),
        "subject not UTF-8": patched(subject_at, b"\xff"),
    }
    assert decode_certificate(patched(0, tbs[:1])) == leaf  # the patching itself is sound
    for case, data in cases.items():
        try:
            decode_certificate(data)
        except pki.CodecError:
            continue
        pytest.fail(f"{case}: decoded without a CodecError")


def test_self_signed_root_verifies(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    root = h.chain[0][0]
    assert root.subject == root.issuer
    assert verify_certificate(root, root.public_key)


def test_ml_issuer_yields_3309_byte_signature(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    assert len(h.leaf[0].signature) == 3309
    assert h.leaf[0].signature_family is SigFamily.ML_DSA_65


def test_tampered_tbs_fails_verification(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    leaf = h.leaf[0]
    tbs = bytearray(leaf.tbs_bytes())
    tbs[5] ^= 0x01  # inside the serial field: decodes fine, breaks the signature
    tampered = decode_certificate(encode_certificate(bytes(tbs), leaf.signature))
    assert tampered.serial != leaf.serial
    assert not verify_certificate(tampered, h.chain[1][0].public_key)


def test_self_issued_non_ca_certificate_verifies():
    pair = backend.generate_keypair(SigFamily.ML_DSA_65, bytes(32))
    cert = issue_certificate(
        serial=9,
        subject="probe:leaf",
        subject_key=pair,
        issuer_name="probe:leaf",
        issuer_key=pair,
        is_ca=False,
    )
    assert cert.serial == 9
    assert verify_certificate(cert, pair.public_key)


def test_hierarchy_positional_assignment(slh_root_d3_hierarchy):
    _, h = slh_root_d3_hierarchy
    root, intermediate, leaf = h.certificates()
    # SLH root: self-signed with the 16224-byte signature
    assert root.signature_family is SigFamily.SLH_DSA_SHAKE_192S
    assert len(root.signature) == 16224
    # intermediate issued by the SLH root, leaf by the ML intermediate
    assert intermediate.signature_family is SigFamily.SLH_DSA_SHAKE_192S
    assert leaf.signature_family is SigFamily.ML_DSA_65
    assert root.is_ca and intermediate.is_ca and not leaf.is_ca


def test_depth2_has_no_intermediate(ml_d2_hierarchy):
    _, h = ml_d2_hierarchy
    assert [c.subject.split(":")[1] for c in h.certificates()] == ["root", "leaf"]


def test_served_chain_policies(ml_d3_hierarchy, ml_d2_hierarchy):
    """Each policy's wire chain and client trust store, by position name, at both depths."""
    _, h3 = ml_d3_hierarchy
    _, h2 = ml_d2_hierarchy
    expected = [
        (h3, ServedChainPolicy.MIRROR, ["leaf", "int"], ["root"]),
        (h3, ServedChainPolicy.FULL_CHAIN, ["leaf", "int", "root"], ["root"]),
        (h3, ServedChainPolicy.LEAF_ONLY, ["leaf"], ["root", "int"]),
        (h2, ServedChainPolicy.MIRROR, ["leaf", "root"], ["root"]),
        (h2, ServedChainPolicy.FULL_CHAIN, ["leaf", "root"], ["root"]),
        (h2, ServedChainPolicy.LEAF_ONLY, ["leaf"], ["root"]),
    ]

    def names(certs):
        return [c.subject.split(":")[1] for c in certs]

    for h, policy, served, trusted in expected:
        chain = served_chain(h, policy)
        assert names(chain) == served, (h.depth, policy)
        assert names(pki.client_trust_store(h, policy)) == trusted, (h.depth, policy)
        assert chain_len_unique(chain) == len(served)


def test_validate_mirror_and_full(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    for policy in ServedChainPolicy:
        chain = served_chain(h, policy)
        validate_chain(chain, pki.client_trust_store(h, policy), DEFAULT_NOW)


def test_validate_errors(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    chain = served_chain(h, ServedChainPolicy.MIRROR)
    trust = pki.client_trust_store(h, ServedChainPolicy.MIRROR)
    with pytest.raises(PathError) as err:
        validate_chain(chain, [], DEFAULT_NOW)
    assert err.value.kind is PathErrorKind.UNKNOWN_ANCHOR
    with pytest.raises(PathError) as err:
        validate_chain(chain, trust, DEFAULT_NOW + 10**9)
    assert err.value.kind is PathErrorKind.EXPIRED
    with pytest.raises(PathError) as err:
        validate_chain(chain, trust, 0)
    assert err.value.kind is PathErrorKind.NOT_YET_VALID
    with pytest.raises(ValueError):
        validate_chain([], trust, DEFAULT_NOW)


def test_validate_not_ca(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    # serve [leaf, leaf-copy]: position 1 is not a CA
    leaf = h.leaf[0]
    trust = pki.client_trust_store(h, ServedChainPolicy.MIRROR)
    with pytest.raises(PathError) as err:
        validate_chain([leaf, leaf], trust, DEFAULT_NOW)
    assert err.value.kind is PathErrorKind.NOT_CA


def _reissued(cert, key, issuer_name, issuer_key, now=DEFAULT_NOW, is_ca=None):
    """``cert``'s subject and key, validly signed again by ``issuer_key``."""
    return issue_certificate(
        serial=cert.serial,
        subject=cert.subject,
        subject_key=key,
        issuer_name=issuer_name,
        issuer_key=issuer_key,
        is_ca=cert.is_ca if is_ca is None else is_ca,
        now=now,
    )


def test_validate_issuer_mismatch(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    (leaf, leaf_key), (inter, inter_key) = h.leaf, h.chain[1]
    wrong = _reissued(leaf, leaf_key, h.chain[0][0].subject, inter_key)
    assert verify_certificate(wrong, inter.public_key)  # only the name is wrong
    trust = pki.client_trust_store(h, ServedChainPolicy.MIRROR)
    with pytest.raises(PathError) as err:
        validate_chain([wrong, inter], trust, DEFAULT_NOW)
    assert (err.value.kind, err.value.position) == (PathErrorKind.ISSUER_MISMATCH, 0)


def test_validate_algorithm_mismatch_before_signature(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    (leaf, _), (inter, inter_key) = h.leaf, h.chain[1]
    # the leaf claims an SLH-DSA signature from its ML-DSA issuer
    claimed = reencoded(leaf, inter_key, sig_alg_id=SigFamily.SLH_DSA_SHAKE_192S.alg_id)
    trust = pki.client_trust_store(h, ServedChainPolicy.MIRROR)
    with pytest.raises(PathError) as err:
        validate_chain([claimed, inter], trust, DEFAULT_NOW)
    assert (err.value.kind, err.value.position) == (PathErrorKind.ALGORITHM_MISMATCH, 0)


def test_validate_anchor_is_ca_inside_its_window(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    chain = served_chain(h, ServedChainPolicy.MIRROR)  # [leaf, int]: the root is not served
    root, root_key = h.chain[0]
    shift = 2 * pki.VALIDITY_LIFETIME
    for anchor in (
        _reissued(root, root_key, root.subject, root_key, is_ca=False),
        _reissued(root, root_key, root.subject, root_key, now=DEFAULT_NOW + shift),
        _reissued(root, root_key, root.subject, root_key, now=DEFAULT_NOW - shift),
    ):
        assert anchor.subject == root.subject and anchor.public_key == root.public_key
        with pytest.raises(PathError) as err:
            validate_chain(chain, [anchor], DEFAULT_NOW)
        assert err.value.kind is PathErrorKind.BAD_ANCHOR


def test_single_byte_corruption_always_rejected(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    chain = served_chain(h, ServedChainPolicy.MIRROR)
    trust = pki.client_trust_store(h, ServedChainPolicy.MIRROR)
    rng = random.Random(1234)
    for cert_index in range(len(chain)):
        for _ in range(12):
            corrupted = bytearray(chain[cert_index].encoded)
            corrupted[rng.randrange(len(corrupted))] ^= 1 << rng.randrange(8)
            try:
                bad = decode_certificate(bytes(corrupted))
            except pki.CodecError:
                continue  # framing broke: rejected before validation
            served = list(chain)
            served[cert_index] = bad
            with pytest.raises(PathError):
                validate_chain(served, trust, DEFAULT_NOW)


@pytest.mark.slow
def test_chain_size_orderings(matrix, slh_root_d2_hierarchy, slh_root_d3_hierarchy):
    from pqchainlab.scenario import find_scenario

    _, slh_d2 = slh_root_d2_hierarchy
    _, slh_d3 = slh_root_d3_hierarchy
    ml_d2 = build_hierarchy(find_scenario(matrix, "x25519mlkem768__ml_root__ml_leaf"), SEED)

    mirror = ServedChainPolicy.MIRROR
    ml_bytes = chain_bytes_unique(served_chain(ml_d2, mirror))
    slh_d2_bytes = chain_bytes_unique(served_chain(slh_d2, mirror))
    slh_d3_bytes = chain_bytes_unique(served_chain(slh_d3, mirror))
    # 16224-byte signatures and 48/1952-byte keys force these orderings
    assert slh_d2_bytes > ml_bytes
    # depth 3 drops the big SLH root from the wire
    assert slh_d3_bytes < slh_d2_bytes


def test_write_load_roundtrip_and_determinism(tmp_path, matrix, ml_d3_hierarchy):
    from pqchainlab.scenario import find_scenario

    s, h = ml_d3_hierarchy
    write_hierarchy(h, tmp_path / "a")
    again = build_hierarchy(s, SEED)
    write_hierarchy(again, tmp_path / "b")
    for name in ("root.cert", "int.cert", "leaf.cert", "root.key", "int.key", "leaf.key"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    loaded = load_hierarchy(tmp_path / "a")
    assert loaded.leaf[0] == h.leaf[0]
    assert loaded.leaf[1].secret_key == h.leaf[1].secret_key

    d2 = find_scenario(matrix, "x25519mlkem768__ml_root__ml_leaf")
    write_hierarchy(build_hierarchy(d2, SEED), tmp_path / "d2")
    assert not (tmp_path / "d2" / "int.cert").exists()
    assert not (tmp_path / "d2" / "int.key").exists()


def test_key_file_format(tmp_path, ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    write_hierarchy(h, tmp_path)
    raw = (tmp_path / "leaf.key").read_bytes()
    assert raw[:2] == (1).to_bytes(2, "big")  # ML-DSA-65 algorithm id
    assert raw[2:] == h.leaf[1].secret_key


# SHA-256 over the length-prefixed certificates of the inventory scenarios
# whose certificates ML-DSA keys issue, built from conftest SEED at
# DEFAULT_NOW.  It pins deterministic ML-DSA issuance byte for byte: a
# change to mldsa.py or to issuance that alters any certificate fails here,
# even though a rebuild would still agree with itself.
ML_ISSUED_GOLDEN_SHA256 = "fc933d56359585d2578ff4fe64157e0be3aded8af386322f1ebb0e01c61c3fff"


def test_ml_issued_certificates_match_golden_bytes(matrix):
    ml = SigFamily.ML_DSA_65
    scenarios = [
        s for s in matrix if s.placement.root is ml and s.placement.intermediate in (None, ml)
    ]
    assert len(scenarios) == 7
    digest = hashlib.sha256()
    for s in scenarios:
        for cert in build_hierarchy(s, SEED, now=DEFAULT_NOW).certificates():
            digest.update(len(cert.encoded).to_bytes(4, "big") + cert.encoded)
    assert digest.hexdigest() == ML_ISSUED_GOLDEN_SHA256


def _openssl_35():
    """The ``openssl`` on PATH if it is OpenSSL 3.5 or later, else None."""
    exe = shutil.which("openssl")
    if exe is None:
        return None
    out = subprocess.run([exe, "version"], capture_output=True, text=True, timeout=60)
    words = out.stdout.split()
    try:
        version = tuple(int(part) for part in words[1].split(".")[:2])
    except (IndexError, ValueError):
        return None
    return exe if words[0] == "OpenSSL" and version >= (3, 5) else None


# The lab's root certificate against an X.509 DER self-signed root with the
# same subject, a critical CA:TRUE basic constraint and OpenSSL's default
# subject key identifier: len(lab) / len(DER) - 1.
DER_GAPS = {SigFamily.ML_DSA_65: -0.0267, SigFamily.SLH_DSA_SHAKE_192S: -0.0087}


@pytest.mark.parametrize("hierarchy", ["ml_d2_hierarchy", "slh_root_d2_hierarchy"])
def test_encoding_size_close_to_x509_der(request, tmp_path, hierarchy):
    exe = _openssl_35()
    if exe is None:
        pytest.skip("no OpenSSL 3.5 or later on PATH")
    _, h = request.getfixturevalue(hierarchy)
    root = h.chain[0][0]
    der = tmp_path / "root.der"
    argv = [exe, "req", "-x509", "-config", "/dev/null", "-newkey", root.key_family.value]
    argv += ["-keyout", str(tmp_path / "root.pem"), "-nodes", "-subj", f"/CN={root.subject}"]
    argv += ["-addext", "basicConstraints=critical,CA:TRUE", "-days", "365"]
    argv += ["-outform", "DER", "-out", str(der)]
    subprocess.run(argv, capture_output=True, timeout=120, check=True)
    gap = len(root.encoded) / der.stat().st_size - 1
    assert gap == pytest.approx(DER_GAPS[root.key_family], abs=0.001)
