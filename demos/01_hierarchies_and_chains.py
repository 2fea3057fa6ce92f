"""Walk through hierarchy construction and effective chain exposure.

Builds two hierarchies that differ only in where the hash-based family
sits, then shows how the serving policy changes what actually crosses
the wire.  The punchline: a depth-3 hierarchy with a heavy root can
put FEWER bytes on the wire than its depth-2 sibling, because the
mirrored serving policy keeps the root out of the transmitted chain.

Run:  python demos/01_hierarchies_and_chains.py   (~15s: two SLH-DSA
hierarchies are signed for real)
"""

from pqchainlab import pki
from pqchainlab.pki import ServedChainPolicy
from pqchainlab.scenario import enumerate_matrix, find_scenario

SEED = b"demo-seed-0001".ljust(32, b"\x00")

matrix = enumerate_matrix()

print("building hybrid SLH-root hierarchies at depth 2 and depth 3 ...")
d2 = pki.build_hierarchy(find_scenario(matrix, "x25519mlkem768__slh_root__ml_leaf"), SEED)
d3 = pki.build_hierarchy(find_scenario(matrix, "x25519mlkem768__slh_root__ml_int__ml_leaf"), SEED)

for name, h in [("depth 2 (SLH root / ML leaf)", d2), ("depth 3 (SLH root / ML int / ML leaf)", d3)]:
    print(f"\n{name}")
    for cert, _key in h.chain:
        position = cert.subject.rsplit(":", 1)[1]
        print(
            f"  {position:5s} key={cert.key_family.value:20s} "
            f"signed-by={cert.signature_family.value:20s} cert={len(cert.encoded):6d} B"
        )
    for policy in ServedChainPolicy:
        chain = pki.served_chain(h, policy)
        print(
            f"  served[{policy.value:6s}] = {[c.subject.rsplit(':', 1)[1] for c in chain]}"
            f"  ({pki.chain_bytes_unique(chain)} unique bytes)"
        )

mirror_d2 = pki.chain_bytes_unique(pki.served_chain(d2, ServedChainPolicy.MIRROR))
mirror_d3 = pki.chain_bytes_unique(pki.served_chain(d3, ServedChainPolicy.MIRROR))
print(
    f"\nmirrored serving: depth 3 transmits {mirror_d2 - mirror_d3} fewer bytes than depth 2"
    f" ({mirror_d3} vs {mirror_d2}) because the heavy root never crosses the wire."
)
