"""pqcli: X.509 certificates across the post-quantum migration.

Issue, inspect, and verify certificates that are classical, pure
post-quantum (ML-DSA, SLH-DSA), hybrid via the alternative-signature
extensions, composite (several algorithms under one OID, AND-verified), or
paired with a delta descriptor for byte-exact reconstruction.
"""

from .algs import (
    AlgorithmIdentifier,
    AlgorithmSpec,
    KeyPairRecord,
    Registry,
    SubjectPublicKeyInfo,
    default_registry,
    generate_keypair,
    load_private_key,
    oid_for,
    parse_alg_spec,
    sign,
    use_registry,
    verify,
)
from .catalyst import CatalystExtensionTriple, issue_catalyst, verify_catalyst
from .chameleon import CertParams, issue_paired
from .composite import (
    CompositeKeyMaterial,
    CompositeSignatureValue,
    composite_keygen,
    composite_sign,
    composite_verify,
    issue_composite_certificate,
)
from .errors import PqcliError
from .names import DistinguishedName, parse_name
from .x509 import (
    CertificateDocument,
    CsrDocument,
    DeltaCertificateDescriptor,
    ExtensionBlock,
    TbsCertificate,
    VerificationReport,
    build_csr,
    build_tbs,
    parse_certificate,
    parse_csr,
    reconstruct_delta,
    render_text,
    sign_certificate,
    verify_certificate,
    verify_csr,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmIdentifier",
    "AlgorithmSpec",
    "CatalystExtensionTriple",
    "CertParams",
    "CertificateDocument",
    "CompositeKeyMaterial",
    "CompositeSignatureValue",
    "CsrDocument",
    "DeltaCertificateDescriptor",
    "DistinguishedName",
    "ExtensionBlock",
    "KeyPairRecord",
    "PqcliError",
    "Registry",
    "SubjectPublicKeyInfo",
    "TbsCertificate",
    "VerificationReport",
    "build_csr",
    "build_tbs",
    "composite_keygen",
    "composite_sign",
    "composite_verify",
    "default_registry",
    "generate_keypair",
    "issue_catalyst",
    "issue_composite_certificate",
    "issue_paired",
    "load_private_key",
    "oid_for",
    "parse_alg_spec",
    "parse_certificate",
    "parse_csr",
    "parse_name",
    "reconstruct_delta",
    "render_text",
    "sign",
    "sign_certificate",
    "use_registry",
    "verify",
    "verify_catalyst",
    "verify_certificate",
    "verify_csr",
]
