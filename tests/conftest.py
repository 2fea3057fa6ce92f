import hashlib
import os
import struct
from collections import deque
from pathlib import Path

import pytest

import pqchainlab
from pqchainlab import handshake as hs
from pqchainlab import pki
from pqchainlab.bench import read_master_summary
from pqchainlab.cli import fixture_path
from pqchainlab.crypto import backend
from pqchainlab.scenario import enumerate_matrix, find_scenario

SEED = bytes.fromhex("a5" * 32)

acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def fixture_rows():
    """The shipped reference table's 17 rows."""
    return read_master_summary(fixture_path())


def pump(client, server, tamper=None):
    """Run a client flow against a server flow in memory; no sockets or threads.

    ``tamper(msg_type, body) -> body`` may rewrite any frame in either
    direction; the rewritten frame's length field follows the new body.
    Returns ``(client_result, server_result, frames)``, where ``frames``
    lists every frame delivered, in wire order.  The first HandshakeError
    either flow raises propagates.
    """
    flows, inboxes, frames, results = (client, server), (deque(), deque()), [], {}
    outs = [next(client), next(server)]
    while len(results) < 2:
        progressed = False
        for side in (0, 1):
            try:
                while side not in results and (outs[side] is not None or inboxes[side]):
                    out = outs[side]
                    if out is None:
                        outs[side] = flows[side].send(inboxes[side].popleft())
                    else:
                        if tamper is not None:
                            body = tamper(out[0], out[5:])
                            out = out[:1] + struct.pack(">I", len(body)) + body
                        inboxes[1 - side].append(out)
                        frames.append(out)
                        outs[side] = next(flows[side])
                    progressed = True
            except StopIteration as stop:
                results[side], progressed = stop.value, True
        assert progressed, "both flows wait for a frame"
    return results[0], results[1], frames


def subprocess_env(**overrides) -> dict:
    """This environment, with this checkout's ``pqchainlab`` importable."""
    path = [str(Path(pqchainlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **overrides)


def reencoded(cert: pki.CertificateRecord, key=None, **changes) -> pki.CertificateRecord:
    """``cert`` with ``changes`` to its TBS fields, signed again by ``key`` when given
    (else carrying ``cert``'s signature).  The record is built, not decoded, so it may
    hold what decoding refuses, such as version 2."""
    fields = {**{name: getattr(cert, name) for name, _ in pki.TBS_FIELDS}, **changes}
    tbs = pki.encode_tbs(**fields)
    signature = cert.signature if key is None else backend.sign(key, hashlib.sha256(tbs).digest())
    return pki.CertificateRecord(**fields, signature=signature,
                                 encoded=pki.encode_certificate(tbs, signature))


def run_handshake(hierarchy, kex, policy=pki.ServedChainPolicy.MIRROR, tamper=None, trust=None):
    """One in-memory handshake over a hierarchy; returns what :func:`pump` returns."""
    material = hs.ServerMaterial.from_hierarchy(hierarchy, kex, policy)
    if trust is None:
        trust = pki.client_trust_store(hierarchy, policy)
    return pump(hs.client_flow(kex, trust), hs.server_flow(material), tamper)


@pytest.fixture
def libcrypto_env(monkeypatch):
    """``set(path)`` sets ``PQCHAINLAB_LIBCRYPTO`` for one test; "" selects Python issuance."""

    def set_path(path: str) -> None:
        monkeypatch.setenv(backend.LIBCRYPTO_ENV, path)
        backend.issuer.cache_clear()

    yield set_path
    backend.issuer.cache_clear()  # resolved again under the restored setting


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def matrix():
    return enumerate_matrix()


@pytest.fixture(scope="session")
def ml_d3_hierarchy(matrix):
    """Fast all-ML depth-3 hierarchy shared across tests."""
    s = find_scenario(matrix, "x25519mlkem768__ml_root__ml_int__ml_leaf")
    return s, pki.build_hierarchy(s, SEED)


@pytest.fixture(scope="session")
def ml_d2_hierarchy(matrix):
    s = find_scenario(matrix, "x25519mlkem768__ml_root__ml_leaf")
    return s, pki.build_hierarchy(s, SEED)


@pytest.fixture(scope="session")
def slh_root_d2_hierarchy(matrix):
    """SLH root / ML leaf depth-2 hierarchy (two slow signatures to build)."""
    s = find_scenario(matrix, "x25519mlkem768__slh_root__ml_leaf")
    return s, pki.build_hierarchy(s, SEED)


@pytest.fixture(scope="session")
def slh_root_d3_hierarchy(matrix):
    s = find_scenario(matrix, "x25519mlkem768__slh_root__ml_int__ml_leaf")
    return s, pki.build_hierarchy(s, SEED)
