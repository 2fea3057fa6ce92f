"""Minimal TLS-1.3-style authenticated key establishment over TCP.

One handshake is six framed messages in fixed order:

    C -> S  ClientHello        client_random(32) || group_id(u16) || key share
    S -> C  ServerHello        server_random(32) || server key share
    S -> C  Certificate        count(u8) || (len(u32) || cert bytes)*
    S -> C  CertificateVerify  leaf-key signature over the transcript
    S -> C  ServerFinished     HMAC over the transcript
    C -> S  ClientFinished     HMAC over the transcript

Frames are ``type(u8) || length(u32 BE) || body``.  There is no record
protection, resumption or extension machinery: the protocol isolates
exactly the costs under study (chain transmission, leaf signature,
path validation) with bit-exact byte accounting.

Secrets: ``master = SHA256("ms" || classical_ss? || kem_ss? || th(SH))``
where absent key-exchange components contribute nothing, and
``finished_key = SHA256("fk" || master)``.  CertificateVerify signs
``SHA256("pqchainlab-cv" || th(Certificate))``; the Finished MACs are
HMAC-SHA256 over the running transcript hash.

The protocol lives in :func:`client_flow` and :func:`server_flow`, which
do no I/O and own the transcript, the byte counts and every check on peer
input, frame headers and both Finished MACs included: each side raises a
:class:`HandshakeError` for a bad peer message.  :func:`client_handshake`
and :func:`server_handshake` drive them over a socket; tests drive them
against each other in memory.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import struct
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from . import pki
from .crypto import backend
from .crypto.backend import CryptoError, RandomBytes, Signer
from .pki import CertificateRecord, HierarchyMaterial, PathError, ServedChainPolicy
from .scenario import KexMode

if TYPE_CHECKING:
    import socket

MSG_CLIENT_HELLO = 1
MSG_SERVER_HELLO = 2
MSG_CERTIFICATE = 3
MSG_CERT_VERIFY = 4
MSG_SERVER_FINISHED = 5
MSG_CLIENT_FINISHED = 6

_HEADER = struct.Struct(">BI")

# A flow yields each frame it sends as soon as the frame exists, yields
# None to receive the peer's next whole frame (passed in with ``send``),
# and returns its side's result.
Flow = Generator[Optional[bytes], bytes, object]

GROUP_IDS = {
    KexMode.CLASSICAL: 0x001D,
    KexMode.HYBRID: 0x11EC,
    KexMode.PURE_PQC: 0x0201,
}
_GROUP_BY_ID = {v: k for k, v in GROUP_IDS.items()}

CV_CONTEXT = b"pqchainlab-cv"
_MS_LABEL = b"ms"
_FK_LABEL = b"fk"


class HandshakeError(Exception):
    pass


class Malformed(HandshakeError):
    pass


class UnsupportedGroup(HandshakeError):
    pass


class BadCertVerify(HandshakeError):
    pass


class BadFinished(HandshakeError):
    pass


class ChainRejected(HandshakeError):
    def __init__(self, path_error: PathError):
        self.path_error = path_error
        super().__init__(f"chain rejected: {path_error}")


@dataclass
class SessionSecrets:
    master_secret: bytes
    finished_key: bytes


@dataclass(frozen=True)
class ChainObservation:
    chain_len_unique: int
    chain_bytes_unique: int
    served_chain_der_bytes: int


def derive_secrets(
    classical_ss: Optional[bytes], kem_ss: Optional[bytes], th_server_hello: bytes
) -> SessionSecrets:
    material = _MS_LABEL + (classical_ss or b"") + (kem_ss or b"") + th_server_hello
    master = hashlib.sha256(material).digest()
    finished = hashlib.sha256(_FK_LABEL + master).digest()
    return SessionSecrets(master, finished)


class Conn:
    """Reads whole frames off a socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self.sock.recv(min(remaining, 65536))
            if not chunk:
                raise Malformed("connection closed mid-message")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv_msg(self) -> bytes:
        """Block until one whole frame has arrived; returns it, header included."""
        header = self._recv_exact(_HEADER.size)
        _, length = _HEADER.unpack(header)
        if length > 1 << 24:
            raise Malformed("oversized message")
        return header + self._recv_exact(length)


class _Transcript:
    """One side's running transcript hash and byte counts."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.bytes_read = 0
        self.bytes_written = 0

    def send(self, msg_type: int, body: bytes) -> bytes:
        frame = _HEADER.pack(msg_type, len(body)) + body
        self.bytes_written += len(frame)
        self.hash.update(frame)
        return frame

    def recv(self, frame: bytes, expected_type: int) -> bytes:
        """Check a peer frame's header and return its body."""
        if len(frame) < _HEADER.size:
            raise Malformed("truncated frame header")
        msg_type, length = _HEADER.unpack_from(frame)
        if msg_type != expected_type:
            raise Malformed(f"expected message type {expected_type}, got {msg_type}")
        if length != len(frame) - _HEADER.size:
            raise Malformed("frame length does not match its header")
        self.bytes_read += len(frame)
        self.hash.update(frame)
        return frame[_HEADER.size :]

    def digest(self) -> bytes:
        return self.hash.copy().digest()


def encode_certificate_msg(chain: list[CertificateRecord]) -> bytes:
    body = [struct.pack(">B", len(chain))]
    for cert in chain:
        body.append(struct.pack(">I", len(cert.encoded)))
        body.append(cert.encoded)
    return b"".join(body)


def decode_certificate_msg(body: bytes) -> list[CertificateRecord]:
    try:
        (count,) = struct.unpack_from(">B", body, 0)
        offset = 1
        certs = []
        for _ in range(count):
            encoded, offset = pki.read_prefixed(body, offset)
            certs.append(pki.decode_certificate(encoded))
        if offset != len(body) or not certs:
            raise Malformed("bad certificate message framing")
        return certs
    except (struct.error, pki.CodecError) as exc:
        raise Malformed(f"bad certificate message: {exc}") from exc


def _cv_message(th_certificate: bytes) -> bytes:
    return hashlib.sha256(CV_CONTEXT + th_certificate).digest()


def _finished_mac(secrets: SessionSecrets, transcript_hash: bytes) -> bytes:
    return hmac.new(secrets.finished_key, transcript_hash, hashlib.sha256).digest()


def _drive(sock: socket.socket, flow: Flow):
    """Run a flow over a socket: send each frame it yields, read each frame it asks for."""
    conn = Conn(sock)
    try:
        out = next(flow)
        while True:
            if out is None:
                out = flow.send(conn.recv_msg())
            else:
                sock.sendall(out)
                out = next(flow)
    except StopIteration as done:
        return done.value


# --- client -------------------------------------------------------------


@dataclass
class ClientResult:
    secrets: SessionSecrets
    observation: ChainObservation
    bytes_read: int
    bytes_written: int


def client_flow(
    kex: KexMode,
    trust_store: list[CertificateRecord],
    now: int = pki.DEFAULT_NOW,
    rng: RandomBytes = os.urandom,
) -> Flow:
    """The client side as a flow; returns a ClientResult, raises HandshakeError."""
    t = _Transcript()
    share, state = backend.client_share(kex, rng)
    yield t.send(MSG_CLIENT_HELLO, rng(32) + struct.pack(">H", GROUP_IDS[kex]) + share)

    sh = t.recv((yield), MSG_SERVER_HELLO)
    try:  # a short ServerHello fails the backend's length check
        classical_ss, kem_ss = backend.client_complete_kex(state, sh[32:])
    except (CryptoError, ValueError) as exc:  # pyca refuses some shares with ValueError
        raise Malformed(f"bad server key share: {exc}") from exc
    secrets = derive_secrets(classical_ss, kem_ss, t.digest())

    cert_body = t.recv((yield), MSG_CERTIFICATE)
    served = decode_certificate_msg(cert_body)
    th_cert = t.digest()
    observation = ChainObservation(
        chain_len_unique=pki.chain_len_unique(served),
        chain_bytes_unique=pki.chain_bytes_unique(served),
        served_chain_der_bytes=len(cert_body),
    )
    try:
        pki.validate_chain(served, trust_store, now)
    except PathError as exc:
        raise ChainRejected(exc) from exc

    leaf = served[0]
    cv = t.recv((yield), MSG_CERT_VERIFY)
    if not backend.verify(leaf.key_family, leaf.public_key, _cv_message(th_cert), cv):
        raise BadCertVerify("CertificateVerify does not verify under the leaf key")

    th_cv = t.digest()
    sf = t.recv((yield), MSG_SERVER_FINISHED)
    if not hmac.compare_digest(sf, _finished_mac(secrets, th_cv)):
        raise BadFinished("ServerFinished MAC mismatch")

    yield t.send(MSG_CLIENT_FINISHED, _finished_mac(secrets, t.digest()))
    return ClientResult(secrets, observation, t.bytes_read, t.bytes_written)


def client_handshake(
    sock: socket.socket,
    kex: KexMode,
    trust_store: list[CertificateRecord],
    now: int = pki.DEFAULT_NOW,
) -> ClientResult:
    """Run the client side on a connected socket; raises HandshakeError."""
    return _drive(sock, client_flow(kex, trust_store, now))


# --- server -------------------------------------------------------------


@dataclass
class ServerMaterial:
    """Everything the server needs to answer handshakes for one scenario."""

    kex: KexMode
    chain: list[CertificateRecord]
    leaf_signer: Signer

    @classmethod
    def from_hierarchy(
        cls, h: HierarchyMaterial, kex: KexMode, policy: ServedChainPolicy
    ) -> "ServerMaterial":
        return cls(kex=kex, chain=pki.served_chain(h, policy), leaf_signer=Signer(h.leaf[1]))


def server_flow(material: ServerMaterial) -> Flow:
    """The server side as a flow; returns its SessionSecrets, raises HandshakeError."""
    t = _Transcript()
    hello = t.recv((yield), MSG_CLIENT_HELLO)
    if len(hello) < 34:
        raise Malformed("short ClientHello")
    (group_id,) = struct.unpack_from(">H", hello, 32)
    mode = _GROUP_BY_ID.get(group_id)
    if mode is None or mode is not material.kex:
        raise UnsupportedGroup(f"group 0x{group_id:04x} not enabled for this scenario")

    try:
        server_share, classical_ss, kem_ss = backend.server_respond_kex(mode, hello[34:])
    except (CryptoError, ValueError) as exc:  # pyca refuses some shares with ValueError
        raise Malformed(f"bad client key share: {exc}") from exc
    yield t.send(MSG_SERVER_HELLO, os.urandom(32) + server_share)
    secrets = derive_secrets(classical_ss, kem_ss, t.digest())

    # Each frame goes out as soon as it exists, so the client validates
    # the chain while the server signs CertificateVerify.
    yield t.send(MSG_CERTIFICATE, encode_certificate_msg(material.chain))
    th_cert = t.digest()
    yield t.send(MSG_CERT_VERIFY, material.leaf_signer.sign(_cv_message(th_cert)))
    yield t.send(MSG_SERVER_FINISHED, _finished_mac(secrets, t.digest()))

    th_sf = t.digest()
    cf = t.recv((yield), MSG_CLIENT_FINISHED)
    if not hmac.compare_digest(cf, _finished_mac(secrets, th_sf)):
        raise BadFinished("ClientFinished MAC mismatch")
    return secrets


def server_handshake(sock: socket.socket, material: ServerMaterial) -> SessionSecrets:
    """Serve one handshake on an accepted socket; raises HandshakeError."""
    return _drive(sock, server_flow(material))


# --- serving loop with control channel ----------------------------------

# A connection that stalls this long on one read or write is dropped, so
# a silent client cannot hold up the sequential server.
CONNECTION_TIMEOUT_S = 30.0


def run_server(
    listener: socket.socket, material: ServerMaterial, control: socket.socket, max_connections: int
) -> int:
    """Accept and serve up to ``max_connections`` handshakes strictly sequentially.

    After each connection a JSON line ``{"connection_index": i,
    "server_cpu_ms": x}`` is written to ``control``.  A transport failure or
    a :class:`HandshakeError` from :func:`server_flow` (a ClientFinished
    that does not verify included) drops the connection and continues with
    an ``{"connection_index": i, "error": reason}`` record.
    The loop ends after ``max_connections``, when the listener closes or
    when ``control`` can no longer be written.  Returns the number of
    completed handshakes.
    """
    import socket

    ctrl_file = control.makefile("w")
    completed = 0
    index = 0
    while index < max_connections:
        try:
            sock, _ = listener.accept()
        except OSError:
            break
        try:
            with sock:
                sock.settimeout(CONNECTION_TIMEOUT_S)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                cpu0 = time.thread_time_ns()
                server_handshake(sock, material)
                cpu_ms = (time.thread_time_ns() - cpu0) / 1e6
                record = {"connection_index": index, "server_cpu_ms": cpu_ms}
                completed += 1
        except (HandshakeError, OSError) as exc:
            record = {"connection_index": index, "error": str(exc)}
        index += 1
        try:
            ctrl_file.write(json.dumps(record) + "\n")
            ctrl_file.flush()
        except OSError:
            break
    return completed

