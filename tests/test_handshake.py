import hashlib
import json
import random
import socket
import struct
import threading

import pytest
from conftest import pump, reencoded, run_handshake

from pqchainlab import handshake as hs
from pqchainlab import pki
from pqchainlab.crypto import backend
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


@pytest.mark.parametrize("kex", list(KexMode))
def test_roundtrip_all_kex_modes(ml_d3_hierarchy, kex):
    _, h = ml_d3_hierarchy
    client, server, _ = run_handshake(h, kex)
    assert client.secrets.master_secret == server.master_secret
    assert client.secrets.finished_key == server.finished_key
    assert client.observation.chain_len_unique == 2


def test_client_hello_keyshare_lengths():
    for kex, expect in [(KexMode.CLASSICAL, 32), (KexMode.HYBRID, 1216), (KexMode.PURE_PQC, 1184)]:
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
    classical = hs.derive_secrets((b"\x01" * 32,), th)
    kem = hs.derive_secrets((b"\x02" * 32,), th)
    hybrid = hs.derive_secrets((b"\x01" * 32, b"\x02" * 32), th)
    assert len({classical.master_secret, kem.master_secret, hybrid.master_secret}) == 3
    # absent component contributes nothing rather than zero padding
    zero_padded = hs.derive_secrets((b"\x01" * 32, b"\x00" * 32), th)
    assert zero_padded.master_secret != classical.master_secret


def test_master_secret_known_answer():
    """The master secret of two component secrets is pinned: SHA256("ms" || 01..01 || 02..02 || th)."""
    secrets = hs.derive_secrets((b"\x01" * 32, b"\x02" * 32), bytes(32))
    assert secrets.master_secret.hex() == (
        "093400e34d90de178f9ef55bffb420d9f50fa628ce42c14d9895f39f2de87268")


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


def test_short_ca_key_is_a_chain_rejection(ml_d3_hierarchy):
    """A served intermediate whose ML-DSA key is one byte short, every length
    prefix consistent: the leaf's signature fails to verify under it."""
    _, h = ml_d3_hierarchy

    def tamper(msg_type, body):
        if msg_type != hs.MSG_CERTIFICATE:
            return body
        leaf, inter = hs.decode_certificate_msg(body)
        return hs.encode_certificate_msg([leaf, reencoded(inter, public_key=inter.public_key[:-1])])

    with pytest.raises(hs.ChainRejected) as err:
        run_handshake(h, KexMode.HYBRID, tamper=tamper)
    assert (err.value.path_error.kind, err.value.path_error.position) == (
        pki.PathErrorKind.BAD_SIGNATURE,
        0,
    )


def test_served_version_2_leaf_is_malformed(ml_d3_hierarchy):
    """A leaf with version 2, validly signed again by its true parent and
    served by the server itself: the client refuses to decode it."""
    _, h = ml_d3_hierarchy
    (leaf, leaf_key), (_, inter_key) = h.leaf, h.chain[1]
    v2 = reencoded(leaf, inter_key, version=2)
    served = pki.HierarchyMaterial(h.scenario_id, (*h.chain[:-1], (v2, leaf_key)))
    with pytest.raises(hs.Malformed, match="unknown certificate version 2"):
        run_handshake(served, KexMode.HYBRID)


def test_unknown_anchor_rejected(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    with pytest.raises(hs.ChainRejected) as err:
        run_handshake(h, KexMode.HYBRID, trust=[])
    assert err.value.path_error.kind is pki.PathErrorKind.UNKNOWN_ANCHOR


def test_unsupported_group(ml_d3_hierarchy):
    _, h = ml_d3_hierarchy
    material = hs.ServerMaterial.from_hierarchy(h, KexMode.CLASSICAL, ServedChainPolicy.MIRROR)
    trust = pki.client_trust_store(h, ServedChainPolicy.MIRROR)
    with pytest.raises(hs.UnsupportedGroup):
        pump(hs.client_flow(KexMode.HYBRID, trust), hs.server_flow(material))


def _client_hello(share):
    body = bytes(32) + struct.pack(">H", hs.GROUP_IDS[KexMode.HYBRID]) + share
    return struct.pack(">BI", hs.MSG_CLIENT_HELLO, len(body)) + body


def _client_finished_zeroed(flow):
    """The client flow, sending its ClientFinished with an all-zero MAC."""
    frame = next(flow)
    while True:
        if frame is not None and frame[0] == hs.MSG_CLIENT_FINISHED:
            frame = frame[:5] + bytes(len(frame) - 5)
        try:
            frame = flow.send((yield frame))
        except StopIteration as done:
            return done.value


def test_run_server_sequential_and_fault_tolerant(ml_d3_hierarchy, monkeypatch):
    _, h = ml_d3_hierarchy
    monkeypatch.setattr(hs, "CONNECTION_TIMEOUT_S", 1.0)
    material = hs.ServerMaterial.from_hierarchy(h, KexMode.HYBRID, ServedChainPolicy.MIRROR)
    share, _ = backend.client_share(KexMode.HYBRID)
    hostile = {
        "bad type byte": b"\x99\x00\x00\x00\x01Z",
        "short key share": _client_hello(share[:-1]),
        "all-0xFF ML-KEM key": _client_hello(share[:32] + b"\xff" * backend.MLKEM_EK_LEN),
        "all-zero X25519 share": _client_hello(bytes(32) + share[32:]),
        "silent client": b"",
    }
    # An honest handshake before and after each hostile connection.
    plan = ["ok"] + [step for name in hostile for step in (name, "ok")]
    plan += ["bad ClientFinished", "ok"]

    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    ctrl_reader, ctrl_writer = socket.socketpair()
    trust = pki.client_trust_store(h, ServedChainPolicy.MIRROR)
    records = []

    def reader():
        with ctrl_reader, ctrl_reader.makefile("r") as f:
            for line in f:
                records.append(json.loads(line))

    reader_thread = _start_thread(reader)
    server_thread = _start_thread(hs.run_server, listener, material, ctrl_writer, len(plan))

    for step in plan:
        sock = socket.create_connection(("127.0.0.1", port), timeout=JOIN_TIMEOUT_S)
        with sock:
            if step == "ok":
                result = hs.client_handshake(sock, KexMode.HYBRID, trust)
                assert result.observation.chain_len_unique == 2
            elif step == "bad ClientFinished":
                flow = hs.client_flow(KexMode.HYBRID, trust)
                hs._drive(sock, _client_finished_zeroed(flow))
            else:
                sock.sendall(hostile[step])
                # The server rejects the input and closes, possibly before it
                # reads the last byte; then the close arrives as a reset.
                try:
                    while sock.recv(4096):
                        pass
                except ConnectionResetError:
                    pass
    _join(server_thread)
    ctrl_writer.close()
    _join(reader_thread)
    listener.close()

    assert [r["connection_index"] for r in records] == list(range(len(plan)))
    for step, record in zip(plan, records):
        if step == "ok":
            assert "server_cpu_ms" in record, record
        else:
            assert "error" in record, (step, record)
    assert records[-2]["error"] == "ClientFinished MAC mismatch"


def test_tampering_client_failure_is_client_side(ml_d3_hierarchy):
    """A client that sends a bad ClientFinished: the server has already sent
    everything, and its flow rejects the MAC."""
    _, h = ml_d3_hierarchy

    def tamper(msg_type, body):
        return bytes(32) if msg_type == hs.MSG_CLIENT_FINISHED else body  # wrong MAC

    with pytest.raises(hs.BadFinished, match="^ClientFinished MAC mismatch$"):
        run_handshake(h, KexMode.HYBRID, tamper=tamper)


# --- exhaustive single-bit mutations through the pump ----------------------


def _seeded_client(h):
    """A client whose ClientHello, and so its ML-KEM key, is the same each time."""
    trust = pki.client_trust_store(h, ServedChainPolicy.MIRROR)
    return hs.client_flow(KexMode.HYBRID, trust, rng=random.Random(0x5EED).randbytes)


def _replaying_server(frames):
    """A server flow that sends recorded frames whatever it receives."""
    yield  # ClientHello
    yield from frames
    yield  # ClientFinished


def _first_frame_replaced(flow, frame):
    """The flow, sending ``frame`` in place of its own first frame."""
    next(flow)
    yield frame
    return (yield from flow)


def test_every_single_bit_flip_is_a_handshake_error(ml_d3_hierarchy):
    """Flip one bit in every byte of ClientHello and of each server message,
    frame headers included.  Server messages are recorded once and replayed
    into fresh clients.  Each mutation must end in a HandshakeError on one
    side, and none may complete."""
    _, h = ml_d3_hierarchy
    material = hs.ServerMaterial.from_hierarchy(h, KexMode.HYBRID, ServedChainPolicy.MIRROR)
    _, _, frames = pump(_seeded_client(h), hs.server_flow(material))
    client, _, _ = pump(_seeded_client(h), _replaying_server(frames[1:5]))
    assert client.bytes_read == sum(len(f) for f in frames[1:5])  # an exact replay completes

    escaped = []
    for position, frame in enumerate(frames[:5]):
        for index in range(len(frame)):
            mutated = bytearray(frame)
            mutated[index] ^= 1 << (index % 8)
            if position == 0:
                client = _first_frame_replaced(_seeded_client(h), bytes(mutated))
                server = hs.server_flow(material)
            else:
                replay = frames[1:5]
                replay[position - 1] = bytes(mutated)
                client, server = _seeded_client(h), _replaying_server(replay)
            try:
                pump(client, server)
            except hs.HandshakeError:
                continue
            except Exception as exc:  # reported below with its position
                escaped.append((frame[0], index, repr(exc)))
            else:
                escaped.append((frame[0], index, "handshake completed"))
    assert not escaped, f"{len(escaped)} mutations escaped (type, offset, outcome): {escaped[:10]}"


def test_handshake_and_validation_never_reach_openssl(
    ml_d3_hierarchy, slh_root_d2_hierarchy, monkeypatch
):
    """Only issuance may run on OpenSSL: CertificateVerify signing and every
    path-validation verify stay on slhdsa.py and pyca."""
    from pqchainlab.crypto import openssl, slhdsa

    def refuse(*args, **kwargs):
        raise AssertionError("the handshake reached crypto/openssl.py")

    monkeypatch.setattr(backend, "issuer", refuse)
    for name in ("slh_keygen", "sign_deterministic", "verify"):
        monkeypatch.setattr(openssl.Library, name, refuse)
    for scenario, h in (ml_d3_hierarchy, slh_root_d2_hierarchy):
        for policy in ServedChainPolicy:
            client, server, _ = run_handshake(h, scenario.kex, policy)
            assert client.secrets.master_secret == server.master_secret
    # An SLH-DSA leaf signs CertificateVerify hedged, through slhdsa.sign.
    opt_rands = []

    def record(key, message, ctx=b"", opt_rand=None):
        opt_rands.append(opt_rand)
        return bytes(slhdsa.SIGNATURE_BYTES)

    monkeypatch.setattr(slhdsa, "sign", record)
    backend.Signer(slh_root_d2_hierarchy[1].chain[0][1]).sign(b"transcript hash")
    assert len(opt_rands) == 1 and len(opt_rands[0]) == slhdsa.N
