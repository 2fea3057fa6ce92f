"""Cryptographic backends: C-accelerated ML-DSA/ML-KEM/X25519, the
pure-Python SLH-DSA-SHAKE-192s and deterministic ML-DSA signing paths, and
certificate issuance through OpenSSL 3.5."""
