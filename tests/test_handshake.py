import hashlib
import socket
import struct
import threading

import pytest

from pqchainlab import handshake as hs
from pqchainlab import pki
from pqchainlab.pki import ServedChainPolicy
from pqchainlab.scenario import KexMode


# Helper threads are daemons joined with this timeout, so a failing test
# cannot leave one blocked and keep the test run from exiting.
JOIN_TIMEOUT_S = 60.0


def _start_thread(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread


def _join(*threads):
    for thread in threads:
        thread.join(JOIN_TIMEOUT_S)
        assert not thread.is_alive(), f"{thread.name} still running after {JOIN_TIMEOUT_S} s"


def _loopback_pair():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    return listener, listener.getsockname()[1]


def run_handshake(hierarchy, kex, policy=ServedChainPolicy.MIRROR, tamper=None, trust=None):
    """Run client+server over loopback; ``tamper(msg_type, body) -> body`` can
    rewrite server messages in flight."""
    material = hs.ServerMaterial.from_hierarchy(hierarchy, kex, policy)
    listener, port = _loopback_pair()
    server_result, server_error = {}, {}

    def server():
        conn, _ = listener.accept()
        with conn:
            try:
                if tamper is None:
                    server_result["r"] = hs.server_handshake(conn, material)
                else:
                    server_result["r"] = _tampering_server(conn, material, tamper)
            except Exception as exc:  # surfaced by the client-side assertion
                server_error["e"] = exc

    thread = _start_thread(server)
    try:
        sock = socket.create_connection(("127.0.0.1", port))
        with sock:
            client = hs.client_handshake(
                sock,
                kex,
                pki.client_trust_store(hierarchy, policy) if trust is None else trust,
            )
    finally:
        _join(thread)
        listener.close()
    return client, server_result.get("r"), server_error.get("e")


def _tampering_server(conn, material, tamper):
    """Server that runs the honest protocol but rewrites chosen messages."""

    class Rewriter:
        def __init__(self, sock):
            self._sock = sock

        def sendall(self, frame):
            msg_type = frame[0]
            body = tamper(msg_type, frame[5:])
            self._sock.sendall(frame[:1] + struct.pack(">I", len(body)) + body)

        def recv(self, n):
            return self._sock.recv(n)

        def setsockopt(self, *a):
            pass

    return hs.server_handshake(Rewriter(conn), material)


@pytest.mark.parametrize("kex", list(KexMode))
def test_roundtrip_all_kex_modes(ml_d3_hierarchy, kex):
    _, h = ml_d3_hierarchy
    client, server, err = run_handshake(h, kex)
    assert err is None
    assert client.secrets.master_secret == server.secrets.master_secret
    assert client.secrets.finished_key == server.secrets.finished_key
    assert server.client_finished_ok
    assert client.observation.chain_len_unique == 2


def test_client_hello_keyshare_lengths():
    for kex, expect in [(KexMode.CLASSICAL, 32), (KexMode.HYBRID, 1216), (KexMode.PURE_PQC, 1184)]:
        from pqchainlab.crypto import backend

        share, _ = backend.client_share(kex)
        assert len(share) == expect


def test_server_hello_share_lengths(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    client, _, _ = run_handshake(h, KexMode.PURE_PQC)
    # ServerHello = header(5) + random(32) + ciphertext(1088)
    assert client.bytes_read >= 5 + 32 + 1088


def test_policy_chain_observations(ml_d3_hierarchy, ml_d2_hierarchy):
    _, h3 = ml_d3_hierarchy
    _, h2 = ml_d2_hierarchy
    for h in (h3, h2):
        client, _, _ = run_handshake(h, KexMode.HYBRID, ServedChainPolicy.MIRROR)
        assert client.observation.chain_len_unique == 2
    client, _, _ = run_handshake(h3, KexMode.HYBRID, ServedChainPolicy.FULL_CHAIN)
    assert client.observation.chain_len_unique == 3
    client, _, _ = run_handshake(h3, KexMode.HYBRID, ServedChainPolicy.LEAF_ONLY)
    assert client.observation.chain_len_unique == 1


def test_bytes_accounting_deterministic(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    a, _, _ = run_handshake(h, KexMode.HYBRID)
    b, _, _ = run_handshake(h, KexMode.HYBRID)
    assert a.bytes_read == b.bytes_read
    assert a.bytes_written == b.bytes_written
    chain = pki.served_chain(h, ServedChainPolicy.MIRROR)
    cert_body = hs.encode_certificate_msg(chain)
    assert a.observation.served_chain_der_bytes == len(cert_body)
    # SH + Certificate + CV + SF, each framed with 5 header bytes
    expected = (
        (5 + 32 + 1120) + (5 + len(cert_body)) + (5 + 3309) + (5 + 32)
    )
    assert a.bytes_read == expected


def test_master_secret_domain_separation():
    th = hashlib.sha256(b"transcript").digest()
    classical = hs.derive_secrets(b"\x01" * 32, None, th)
    kem = hs.derive_secrets(None, b"\x02" * 32, th)
    hybrid = hs.derive_secrets(b"\x01" * 32, b"\x02" * 32, th)
    assert len({classical.master_secret, kem.master_secret, hybrid.master_secret}) == 3
    # absent component contributes nothing rather than zero padding
    zero_padded = hs.derive_secrets(b"\x01" * 32, b"\x00" * 32, th)
    assert zero_padded.master_secret != classical.master_secret


def test_tamper_certificate_rejected(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy

    def tamper(msg_type, body):
        if msg_type == hs.MSG_CERTIFICATE:
            mutated = bytearray(body)
            mutated[40] ^= 0x01
            return bytes(mutated)
        return body

    with pytest.raises((hs.ChainRejected, hs.Malformed)):
        run_handshake(h, KexMode.HYBRID, tamper=tamper)


def test_tamper_cert_verify_rejected(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy

    def tamper(msg_type, body):
        if msg_type == hs.MSG_CERT_VERIFY:
            mutated = bytearray(body)
            mutated[100] ^= 0x01
            return bytes(mutated)
        return body

    with pytest.raises(hs.BadCertVerify):
        run_handshake(h, KexMode.HYBRID, tamper=tamper)


def test_tamper_server_finished_rejected(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy

    def tamper(msg_type, body):
        if msg_type == hs.MSG_SERVER_FINISHED:
            return bytes(32)
        return body

    with pytest.raises(hs.BadFinished):
        run_handshake(h, KexMode.HYBRID, tamper=tamper)


def test_tamper_server_hello_breaks_transcript(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy

    def tamper(msg_type, body):
        if msg_type == hs.MSG_SERVER_HELLO:
            mutated = bytearray(body)
            mutated[0] ^= 0x01  # server random: transcripts diverge
            return bytes(mutated)
        return body

    # transcript binding surfaces at the first transcript-bound signature
    with pytest.raises(hs.BadCertVerify):
        run_handshake(h, KexMode.HYBRID, tamper=tamper)


def test_unknown_anchor_rejected(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    with pytest.raises(hs.ChainRejected) as err:
        run_handshake(h, KexMode.HYBRID, trust=[])
    assert err.value.path_error.kind is pki.PathErrorKind.UNKNOWN_ANCHOR


def test_unsupported_group(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    material = hs.ServerMaterial.from_hierarchy(h, KexMode.CLASSICAL, ServedChainPolicy.MIRROR)
    listener, port = _loopback_pair()
    caught = {}

    def server():
        conn, _ = listener.accept()
        with conn:
            try:
                hs.server_handshake(conn, material)
            except hs.HandshakeError as exc:
                caught["e"] = exc

    thread = _start_thread(server)
    sock = socket.create_connection(("127.0.0.1", port))
    with sock:
        try:
            hs.client_handshake(sock, KexMode.HYBRID, h.trust_store)
        except hs.HandshakeError:
            pass
    _join(thread)
    listener.close()
    assert isinstance(caught["e"], hs.UnsupportedGroup)


def test_run_server_sequential_and_fault_tolerant(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    material = hs.ServerMaterial.from_hierarchy(h, KexMode.HYBRID, ServedChainPolicy.MIRROR)
    listener, port = _loopback_pair()
    ctrl_server, ctrl_port = _loopback_pair()

    records = []

    def reader():
        conn, _ = ctrl_server.accept()
        with conn, conn.makefile("r") as f:
            for line in f:
                import json

                records.append(json.loads(line))

    reader_thread = _start_thread(reader)
    ctrl_client = socket.create_connection(("127.0.0.1", ctrl_port))
    server_thread = _start_thread(hs.run_server, listener, material, ctrl_client, 4)

    # 1: good, 2: malformed (bad type byte), 3-4: good again
    outcomes = []
    for i in range(4):
        sock = socket.create_connection(("127.0.0.1", port), timeout=JOIN_TIMEOUT_S)
        with sock:
            if i == 1:
                sock.sendall(b"\x99\x00\x00\x00\x01Z")
                # The server rejects the header and closes, possibly before it
                # reads the last byte; then the close arrives as a reset.
                try:
                    while sock.recv(4096):
                        pass
                except ConnectionResetError:
                    pass
                outcomes.append("malformed")
            else:
                result = hs.client_handshake(sock, KexMode.HYBRID, h.trust_store)
                outcomes.append("ok")
                assert result.observation.chain_len_unique == 2
    _join(server_thread)
    ctrl_client.close()
    _join(reader_thread)
    ctrl_server.close()
    listener.close()

    assert outcomes == ["ok", "malformed", "ok", "ok"]
    assert [r["connection_index"] for r in records] == [0, 1, 2, 3]
    assert "error" in records[1]
    assert all("server_cpu_ms" in r for i, r in enumerate(records) if i != 1)


def test_tampering_client_failure_is_client_side(ml_d3_hierarchy):
    """A client that sends a bad ClientFinished: the server has already sent
    everything and simply records the mismatch."""
    _, h = ml_d3_hierarchy
    material = hs.ServerMaterial.from_hierarchy(h, KexMode.HYBRID, ServedChainPolicy.MIRROR)
    listener, port = _loopback_pair()
    result = {}

    def server():
        conn, _ = listener.accept()
        with conn:
            result["r"] = hs.server_handshake(conn, material)

    thread = _start_thread(server)
    sock = socket.create_connection(("127.0.0.1", port))
    with sock:
        conn = hs.Conn(sock)
        from pqchainlab.crypto import backend

        share, state = backend.client_share(KexMode.HYBRID)
        import os

        conn.send_msg(1, os.urandom(32) + struct.pack(">H", hs.GROUP_IDS[KexMode.HYBRID]) + share)
        for msg_type in (2, 3, 4, 5):
            conn.recv_msg(msg_type)
        conn.send_msg(6, bytes(32))  # wrong MAC on purpose
    _join(thread)
    listener.close()
    assert result["r"].client_finished_ok is False
