"""pqcli: X.509 certificates across the post-quantum migration.

Issue, inspect, and verify certificates that are classical, pure
post-quantum (ML-DSA, SLH-DSA), hybrid via the alternative-signature
extensions, composite (several algorithms under one OID, AND-verified), or
paired with a delta descriptor for byte-exact reconstruction.

Every name is imported from the module that defines it (pqcli.algs,
pqcli.x509, pqcli.catalyst, ...); the package itself exports only
__version__.
"""

__version__ = "0.1.0"
