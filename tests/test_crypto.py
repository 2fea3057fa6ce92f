import ctypes
import hashlib
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from cryptography.hazmat.primitives.asymmetric import mldsa as pyca_mldsa

from pqchainlab import pki
from pqchainlab.crypto import backend, mldsa, openssl, slhdsa
from pqchainlab.scenario import KexMode, SigFamily

from conftest import subprocess_env

ML_SEED = bytes(range(32))
SLH_SEED = bytes(range(72))
ML, SLH = SigFamily.ML_DSA_65, SigFamily.SLH_DSA_SHAKE_192S
LIBCRYPTO = os.environ.get(backend.LIBCRYPTO_ENV) or backend.DEFAULT_LIBCRYPTO


@pytest.fixture(scope="module")
def libcrypto():
    lib = openssl.load(LIBCRYPTO)
    if lib is None:
        pytest.skip(f"no OpenSSL libcrypto with ML-DSA-65 and SLH-DSA-SHAKE-192s at {LIBCRYPTO}")
    return lib


def _flip(signature: bytes, offset: int) -> bytes:
    bad = bytearray(signature)
    bad[offset] ^= 0x01
    return bytes(bad)


class TestMlDsa:
    def test_parameter_sizes(self):
        # sizes are fixed by the ML-DSA-65 parameter set
        assert mldsa.PUBLIC_KEY_BYTES == 1952
        assert mldsa.SIGNATURE_BYTES == 3309
        pair = backend.generate_keypair(SigFamily.ML_DSA_65, ML_SEED)
        assert len(pair.public_key) == 1952
        sig = backend.Signer(pair).sign(b"msg")
        assert len(sig) == 3309

    def test_keygen_matches_c_backend(self):
        pk, _ = mldsa.keygen_from_seed(ML_SEED)
        ref = pyca_mldsa.MLDSA65PrivateKey.from_seed_bytes(ML_SEED)
        assert pk == ref.public_key().public_bytes_raw()

    def test_deterministic_signature_verifies_under_c_backend(self):
        _, sk = mldsa.keygen_from_seed(ML_SEED)
        msg = b"certificate issuance payload"
        sig1 = mldsa.sign_deterministic(sk, msg)
        sig2 = mldsa.sign_deterministic(sk, msg)
        assert sig1 == sig2
        ref = pyca_mldsa.MLDSA65PrivateKey.from_seed_bytes(ML_SEED)
        ref.public_key().verify(sig1, msg)  # raises on mismatch

    def test_seed_determinism_and_backend_verify(self):
        a = backend.generate_keypair(SigFamily.ML_DSA_65, ML_SEED)
        b = backend.generate_keypair(SigFamily.ML_DSA_65, ML_SEED)
        assert a.public_key == b.public_key and a.secret_key == b.secret_key
        sig = backend.sign(a, b"hello")
        assert backend.verify(SigFamily.ML_DSA_65, a.public_key, b"hello", sig)
        assert not backend.verify(SigFamily.ML_DSA_65, a.public_key, b"other", sig)
        # a key of the wrong length is a failed verification, not an error
        assert backend.verify(SigFamily.ML_DSA_65, a.public_key[:-1], b"hello", sig) is False

    def test_hedged_signatures_differ_but_verify(self):
        pair = backend.generate_keypair(SigFamily.ML_DSA_65, ML_SEED)
        signer = backend.Signer(pair)
        s1, s2 = signer.sign(b"m"), signer.sign(b"m")
        assert s1 != s2
        assert backend.verify(SigFamily.ML_DSA_65, pair.public_key, b"m", s1)
        assert backend.verify(SigFamily.ML_DSA_65, pair.public_key, b"m", s2)

    def test_bad_seed_length(self):
        with pytest.raises(backend.CryptoError):
            backend.generate_keypair(SigFamily.ML_DSA_65, b"short")

    def test_batched_ntt_matches_per_polynomial(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, mldsa.Q, size=(2, 3, 256), dtype=np.int64)
        for fn in (mldsa._ntt, mldsa._intt):
            rows = np.array([[fn(p) for p in vec] for vec in x])
            assert np.array_equal(fn(x), rows)
        assert np.array_equal(mldsa._intt(mldsa._ntt(x)), x)

    def test_ntt_product_is_negacyclic_schoolbook_product(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            a, b = rng.integers(0, mldsa.Q, size=(2, 256), dtype=np.int64)
            full = np.convolve(a, b)  # every coefficient < 256 * Q**2 < 2**63
            want = (full[:256] - np.append(full[256:], 0)) % mldsa.Q  # X**256 = -1
            got = mldsa._intt(mldsa._ntt(a) * mldsa._ntt(b) % mldsa.Q)
            assert np.array_equal(got, want)

    def test_backend_sizes_match_mldsa(self):
        params = backend.SIG_PARAMS[SigFamily.ML_DSA_65]
        assert params.seed_len == mldsa.SEED_BYTES
        assert params.public_key_len == mldsa.PUBLIC_KEY_BYTES
        assert params.signature_len == mldsa.SIGNATURE_BYTES

    def test_numpy_loads_only_for_deterministic_ml_signing(self):
        # observes mldsa itself, so issuance is pinned to python
        code = (
            "import sys\n"
            "import pqchainlab.bench, pqchainlab.cli, pqchainlab.handshake, pqchainlab.pki\n"
            "from pqchainlab.crypto import backend\n"
            "from pqchainlab.scenario import SigFamily\n"
            "print('numpy' in sys.modules)\n"
            "kp = backend.generate_keypair(SigFamily.ML_DSA_65, bytes(32))\n"
            "backend.sign(kp, b'm')\n"
            "print('numpy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=subprocess_env(PQCHAINLAB_LIBCRYPTO=""),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert out.stdout.split() == ["False", "True"]

    def test_issuer_key_expanded_once(self, monkeypatch, libcrypto_env):
        libcrypto_env("")  # observes mldsa itself
        calls = []
        original = mldsa.keygen_from_seed

        def counting(seed):
            calls.append(seed)
            return original(seed)

        # patched on the module, as a tracer would
        monkeypatch.setattr(mldsa, "keygen_from_seed", counting)
        backend._expanded_mldsa_key.cache_clear()
        pair = backend.generate_keypair(SigFamily.ML_DSA_65, ML_SEED)
        for msg in (b"first", b"second"):
            sig = backend.sign(pair, msg)
            assert backend.verify(SigFamily.ML_DSA_65, pair.public_key, msg, sig)
        assert calls == [ML_SEED]

    def test_issuance_expands_no_hedged_signing_key(self, monkeypatch):
        from pqchainlab import pki
        from pqchainlab.scenario import enumerate_matrix, find_scenario

        scenario = find_scenario(enumerate_matrix(), "x25519mlkem768__ml_root__ml_int__ml_leaf")
        calls = []
        original = pyca_mldsa.MLDSA65PrivateKey.from_seed_bytes

        def counting(seed):
            calls.append(seed)
            return original(seed)

        monkeypatch.setattr(pyca_mldsa.MLDSA65PrivateKey, "from_seed_bytes", counting)
        h = pki.build_hierarchy(scenario, b"one expansion per key")
        # each key is expanded once, to derive its public key; signing a
        # certificate goes to the issuer without a handshake Signer
        assert sorted(calls) == sorted(key.secret_key for _, key in h.chain)


@pytest.fixture(scope="module")
def slh_material():
    pk, key = slhdsa.keygen_from_seed(SLH_SEED)
    msg = b"one expensive stateless hash-based signature"
    return pk, key, msg, slhdsa.sign(key, msg)


@pytest.mark.slow
class TestSlhDsa:
    def test_parameter_sizes(self, slh_material):
        pk, _key, _msg, sig = slh_material
        assert slhdsa.PUBLIC_KEY_BYTES == 48 and len(pk) == 48
        assert slhdsa.SIGNATURE_BYTES == 16224 and len(sig) == 16224

    def test_roundtrip_and_determinism(self, slh_material):
        pk, key, msg, sig = slh_material
        assert slhdsa.verify(pk, msg, sig)
        assert slhdsa.sign(key, msg) == sig  # deterministic variant

    def test_keygen_determinism(self, slh_material):
        pk, _key, _msg, _sig = slh_material
        assert slhdsa.keygen_from_seed(SLH_SEED)[0] == pk

    def test_hedged_signature_differs_and_verifies(self, slh_material):
        pk, key, msg, sig = slh_material
        hedged = slhdsa.sign(key, msg, opt_rand=os.urandom(24))
        assert hedged != sig
        assert slhdsa.verify(pk, msg, hedged)

    def test_rejects_wrong_message_key_and_tamper(self, slh_material):
        pk, _key, msg, sig = slh_material
        assert not slhdsa.verify(pk, msg + b"x", sig)
        other_pk, _ = slhdsa.keygen_from_seed(bytes(72))
        assert not slhdsa.verify(other_pk, msg, sig)
        for offset in (0, 24, 5000, len(sig) - 1):
            assert not slhdsa.verify(pk, msg, _flip(sig, offset))

    def test_backend_facade(self, slh_material):
        pair = backend.generate_keypair(SigFamily.SLH_DSA_SHAKE_192S, SLH_SEED)
        assert pair.public_key == slh_material[0]
        assert backend.verify(
            SigFamily.SLH_DSA_SHAKE_192S, pair.public_key, slh_material[2], slh_material[3]
        )
        # a key of the wrong length is a failed verification, not an error
        _pk, _key, msg, sig = slh_material
        assert backend.verify(SLH, pair.public_key[:-1], msg, sig) is False


class TestOpenSslOracle:
    """OpenSSL 3.5 against mldsa.py, slhdsa.py and pyca: same bytes, mutual verification."""

    def test_ml_deterministic_signatures_identical_and_mutually_verified(self, libcrypto):
        for i in range(4):
            seed, msg = bytes([i]) * 32, b"tbs digest %d" % i
            pk, sk = mldsa.keygen_from_seed(seed)
            ours = mldsa.sign_deterministic(sk, msg)
            theirs = libcrypto.sign_deterministic(ML.value, seed, msg)
            assert theirs == ours
            hedged = backend.Signer(backend.generate_keypair(ML, seed)).sign(msg)
            for sig in (ours, hedged):
                assert libcrypto.verify(ML.value, pk, msg, sig)
                assert backend.verify(ML, pk, msg, sig)
                bad = _flip(sig, 7 * i)
                assert not libcrypto.verify(ML.value, pk, msg, bad)
                assert not backend.verify(ML, pk, msg, bad)

    @pytest.mark.slow
    def test_slh_keygen_and_deterministic_signature_identical(self, libcrypto, slh_material):
        pk, key, msg, sig = slh_material
        assert libcrypto.slh_keygen(SLH_SEED) == (pk, key.to_bytes())
        other = bytes(range(100, 172))
        python_pk, python_key = slhdsa.keygen_from_seed(other)
        assert libcrypto.slh_keygen(other) == (python_pk, python_key.to_bytes())
        assert libcrypto.sign_deterministic(SLH.value, key.to_bytes(), msg) == sig

    @pytest.mark.slow
    def test_slh_signatures_mutually_verified_and_flips_rejected(self, libcrypto, slh_material):
        pk, _key, msg, sig = slh_material
        assert libcrypto.verify(SLH.value, pk, msg, sig)
        assert slhdsa.verify(pk, msg, sig)
        assert not libcrypto.verify(SLH.value, pk, msg + b"x", sig)
        for offset in (0, 24, 5000, len(sig) - 1):
            bad = _flip(sig, offset)
            assert not libcrypto.verify(SLH.value, pk, msg, bad)
            assert not slhdsa.verify(pk, msg, bad)

    @pytest.mark.slow
    def test_slh_hedged_signature_identical_and_verified(self, libcrypto, slh_material):
        """OpenSSL's ``test-entropy`` parameter fixes the randomness a hedged signature draws."""
        pk, key, msg, _sig = slh_material
        lib, secret = libcrypto._lib, key.to_bytes()
        for opt_rand in (b"\x07" * 24, bytes(range(24))):
            entropy = ctypes.create_string_buffer(opt_rand, len(opt_rand))
            params = openssl._params(b"test-entropy", openssl._OSSL_PARAM_OCTET_STRING, entropy)
            evp_key = lib.EVP_PKEY_new_raw_private_key_ex(None, SLH.value.encode(), None, secret, len(secret))
            theirs = libcrypto._with_context(
                SLH.value, evp_key, lib.EVP_PKEY_sign_message_init, params,
                lambda ctx: libcrypto._out(lib.EVP_PKEY_sign, slhdsa.SIGNATURE_BYTES, ctx, msg, len(msg)),
            )
            assert theirs == slhdsa.sign(key, msg, opt_rand=opt_rand)
        hedged = backend.Signer(backend.generate_keypair(SLH, SLH_SEED)).sign(msg)
        assert libcrypto.verify(SLH.value, pk, msg, hedged)

    def test_backends_issue_the_same_bytes(self, libcrypto, libcrypto_env):
        """The facade under both backends: SLH-DSA keygen and deterministic ML-DSA signing."""
        seed = bytes(range(1, 73))
        issued = []
        for path in (libcrypto.path, ""):
            libcrypto_env(path)
            assert backend.issuance_backend()["name"] == ("openssl" if path else "python")
            slh = backend.generate_keypair(SLH, seed)
            ml = backend.generate_keypair(ML, ML_SEED)
            issued.append((slh, backend.sign(ml, slh.public_key)))
        assert issued[0] == issued[1]

    def test_load_refuses_what_is_not_an_openssl_35_libcrypto(self, tmp_path):
        import _ctypes

        empty = tmp_path / "empty.so"
        empty.write_bytes(b"")
        for path in (tmp_path / "libcrypto.so.3", empty, _ctypes.__file__):
            assert openssl.load(str(path)) is None

    def test_load_never_lets_the_loader_search(self, monkeypatch, tmp_path):
        opened = []

        def refuse(path):
            opened.append(path)
            raise OSError(path)

        monkeypatch.setattr(openssl.ctypes, "CDLL", refuse)
        monkeypatch.chdir(tmp_path)
        assert openssl.load("libcrypto.so.3") is None
        assert opened == [str(tmp_path / "libcrypto.so.3")]


def test_openssl_provisioning_loads_neither_numpy_nor_mldsa(libcrypto, tmp_path):
    code = (
        "import sys\n"
        "from pqchainlab import cli\n"
        "assert cli.main(sys.argv[2:]) == 0\n"
        "print(*sorted(m for m in sys.argv[1].split(',') if m in sys.modules))\n"
    )
    watched = "numpy,pqchainlab.crypto.mldsa,pqchainlab.crypto.openssl,socket,subprocess"
    ids = ["x25519mlkem768__ml_root__ml_int__slh_leaf", "mlkem768__ml_root__ml_leaf"]
    argv = ["provision", "--jobs", "1", "--out", str(tmp_path), "--select", *ids]
    out = subprocess.run(
        [sys.executable, "-c", code, watched, *argv],
        env=subprocess_env(PQCHAINLAB_LIBCRYPTO=libcrypto.path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "pqchainlab.crypto.openssl"
    assert json.loads((tmp_path / "manifest.json").read_text())["issuance_backend"] == {
        "name": "openssl",
        "library": libcrypto.path,
        "openssl_version": libcrypto.version,
    }


def test_set_up_imports_load_only_what_commands_run():
    code = (
        "import sys\n"
        "import pqchainlab.bench, pqchainlab.cli, pqchainlab.handshake, pqchainlab.pki\n"
        "print(*sorted(m for m in sys.argv[1:] if m in sys.modules))\n"
    )
    deferred = [
        "pqchainlab.analytics",
        "pqchainlab.svgplot",
        "pqchainlab.config",
        "pqchainlab.crypto.slhdsa",
        "numpy",
        "multiprocessing",
        "concurrent.futures",
        "ctypes",
        "pqchainlab.crypto.openssl",
        "pqchainlab.claims",
        "cryptography",
        "socket",
        "csv",
        "platform",
    ]
    out = subprocess.run(
        [sys.executable, "-c", code, *deferred],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.split() == []


def test_analysis_commands_load_neither_cryptography_nor_socket(tmp_path):
    code = (
        "import sys\n"
        "from pqchainlab import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(*sorted(m for m in ('cryptography', 'socket') if m in sys.modules))\n"
    )
    for argv in (["analyze", "--fixture", "paper", "--out", str(tmp_path / "analysis")],
                 ["reproduce", "--fixture-only", "--out", str(tmp_path / "reproduce")]):
        out = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert out.stdout.splitlines()[-1] == "", argv


def test_loading_an_ml_hierarchy_loads_every_pyca_module(tmp_path, ml_d2_hierarchy):
    """The first use of ``cryptography`` loads its ML-DSA, ML-KEM and X25519 modules together,
    so a handshake after ``load_hierarchy`` imports none of them."""
    s, h = ml_d2_hierarchy
    pki.write_hierarchy(h, tmp_path / s.display_id)
    code = (
        "import sys\n"
        "from pqchainlab import pki\n"
        "watched = [f'cryptography.hazmat.primitives.asymmetric.{m}' for m in sys.argv[2:]]\n"
        "print(sum(m in sys.modules for m in watched))\n"
        "pki.load_hierarchy(sys.argv[1])\n"
        "print(sum(m in sys.modules for m in watched))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / s.display_id), "mldsa", "mlkem", "x25519"],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.split() == ["0", "3"]


def test_backend_sizes_match_slhdsa():
    params = backend.SIG_PARAMS[SigFamily.SLH_DSA_SHAKE_192S]
    assert params.seed_len == slhdsa.SEED_BYTES
    assert params.public_key_len == slhdsa.PUBLIC_KEY_BYTES
    assert params.secret_key_len == 4 * slhdsa.N
    assert params.signature_len == slhdsa.SIGNATURE_BYTES
    assert backend.SLHDSA_N == slhdsa.N


class TestKex:
    @pytest.mark.parametrize(
        "mode,client_len,server_len",
        [
            (KexMode.CLASSICAL, 32, 32),
            (KexMode.HYBRID, 32 + 1184, 32 + 1088),
            (KexMode.PURE_PQC, 1184, 1088),
        ],
    )
    def test_share_lengths_and_agreement(self, mode, client_len, server_len):
        share, state = backend.client_share(mode)
        assert len(share) == client_len == backend.client_share_len(mode)
        server_share, srv_secrets = backend.server_respond_kex(mode, share)
        assert len(server_share) == server_len == backend.server_share_len(mode)
        cli_secrets = backend.client_complete_kex(state, server_share)
        assert cli_secrets == srv_secrets
        assert all(len(s) == 32 for s in cli_secrets)
        assert len(cli_secrets) == (2 if mode is KexMode.HYBRID else 1)

    @pytest.mark.parametrize("mode,digest", [
        (KexMode.CLASSICAL, "94f4b49b8d86be27bc13068a2d1cae5adf3d9bd9eea95c69ad02ce240b6ef819"),
        (KexMode.HYBRID, "783613cafbc4ee80e58767ada5d3ed53f27874b6fd4d825f5c90b8f99229a017"),
        (KexMode.PURE_PQC, "d7f8b7ffeac98ec6f224641abc1a237bb25b8846dc37477be2a6f44c69ac2f81"),
    ], ids=["x25519", "x25519mlkem768", "mlkem768"])
    def test_client_share_known_answer(self, mode, digest):
        """A seeded client share is pinned: each component's share in turn, X25519's key from
        the first 32 bytes ``rng`` draws and ML-KEM's seed from the next 64."""
        share, _ = backend.client_share(mode, random.Random(7).randbytes)
        assert hashlib.sha256(share).hexdigest() == digest

    def test_wrong_share_length_rejected(self):
        with pytest.raises(backend.CryptoError):
            backend.server_respond_kex(KexMode.HYBRID, b"\x00" * 10)

    def test_deterministic_rng_reproduces_client_share(self):
        stream = [bytes([7]) * 32, bytes([9]) * 64]

        def rng(n, _s=list(stream)):
            return _s.pop(0)[:n] if _s else os.urandom(n)

        a, _ = backend.client_share(KexMode.HYBRID, rng)
        stream2 = [bytes([7]) * 32, bytes([9]) * 64]

        def rng2(n, _s=stream2):
            return _s.pop(0)[:n]

        b, _ = backend.client_share(KexMode.HYBRID, rng2)
        assert a == b
