"""Composite certificates: several algorithms fused into one SPKI and one
signature value under a single umbrella OID.

The composite key and signature encodings are the composite backend in
algs, and the per-component certificate verdicts are in x509; both are
re-exported here. This module adds self-signed issuance.
"""

from __future__ import annotations

from . import algs, x509
from .algs import (  # re-exported, so composite.X keeps working
    CompositeComponent,
    CompositeKeyMaterial,
    CompositeSignatureValue,
    composite_keygen,
    composite_sign,
    material_from_private,
    material_from_public,
)
from .x509 import (  # likewise: composite verification lives in x509
    CompositeVerification,
    composite_verify,
    verify_certificate_signature,
)


def issue_composite_certificate(subject, key: CompositeKeyMaterial,
                                validity=None, rng=None) -> x509.CertificateDocument:
    """Self-signed certificate over the composite SPKI."""
    record = key.to_record()
    if validity is None:
        validity = x509.default_validity()
    tbs = x509.build_tbs(subject, subject, algs.spki_for_key(record), validity,
                         algs.signature_algorithm_for(key.spec), rng=rng)
    return x509.sign_certificate(tbs, record)
