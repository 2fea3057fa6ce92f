"""One full authenticated handshake, narrated.

Spins up the sequential server in a thread, connects once per KEX mode,
and prints what the client saw: bytes moved, chain observations, and
the shared secrets agreeing on both ends.  The server's flow checks
ClientFinished itself: a MAC that does not verify raises BadFinished.

Run:  python demos/02_single_handshake.py
"""

import socket
import threading

from pqchainlab import handshake as hs
from pqchainlab import pki
from pqchainlab.pki import ServedChainPolicy
from pqchainlab.scenario import KexMode, enumerate_matrix, find_scenario

SEED = b"demo-seed-0002".ljust(32, b"\x00")

scenario = find_scenario(enumerate_matrix(), "x25519mlkem768__ml_root__ml_int__ml_leaf")
hierarchy = pki.build_hierarchy(scenario, SEED)

trust_store = pki.client_trust_store(hierarchy, ServedChainPolicy.MIRROR)

for kex in KexMode:
    material = hs.ServerMaterial.from_hierarchy(hierarchy, kex, ServedChainPolicy.MIRROR)
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    result = {}

    def serve():
        conn, _ = listener.accept()
        with conn:
            result["server"] = hs.server_handshake(conn, material)

    thread = threading.Thread(target=serve)
    thread.start()
    sock = socket.create_connection(("127.0.0.1", port))
    with sock:
        client = hs.client_handshake(sock, kex, trust_store)
    thread.join()
    listener.close()

    server_secrets = result["server"]
    print(f"\n{kex.value}")
    print(f"  client read {client.bytes_read} B / wrote {client.bytes_written} B")
    print(
        f"  chain: {client.observation.chain_len_unique} unique certs, "
        f"{client.observation.chain_bytes_unique} unique bytes, "
        f"certificate message {client.observation.served_chain_der_bytes} B"
    )
    print("  server verified ClientFinished")
    assert client.secrets.master_secret == server_secrets.master_secret
    print(f"  master secret agreed: {client.secrets.master_secret.hex()[:32]}...")
