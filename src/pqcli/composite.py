"""Composite certificates: several algorithms fused into one SPKI and one
signature value under a single umbrella OID.

The composite key and signature encodings are the composite backend in
algs, re-exported here. This module adds the certificate level:
per-component verdicts and self-signed issuance.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algs, x509
from .algs import (  # re-exported, so composite.X keeps working
    CompositeComponent,
    CompositeKeyMaterial,
    CompositeSignatureValue,
    composite_keygen,
    composite_sign,
    material_from_private,
    material_from_public,
    verify_raw,
)
from .errors import DerError


@dataclass(frozen=True)
class CompositeVerification:
    """Per-component verdicts plus the AND over them. A structural problem
    (count mismatch, undecodable key or signature) leaves components empty
    and carries an explanatory note."""

    components: tuple[str, ...]
    overall: bool
    note: str | None = None


def composite_verify(key: CompositeKeyMaterial, message: bytes,
                     sig: CompositeSignatureValue) -> CompositeVerification:
    verdicts = algs.component_verdicts(key, message, sig)
    if verdicts is None:
        return CompositeVerification(
            (), False,
            f"signature has {len(sig.parts)} parts for {len(key.components)} components")
    return CompositeVerification(
        tuple(x509.VALID if ok else x509.INVALID for ok in verdicts), all(verdicts))


def verify_certificate_signature(cert, issuer_spki: algs.SubjectPublicKeyInfo,
                                 registry: algs.Registry | None = None,
                                 ) -> CompositeVerification:
    """Composite check of a certificate's outer signature over tbs_der."""
    spec = algs.spec_from_spki(issuer_spki, registry)
    if spec is None or spec.family != algs.FAMILY_COMPOSITE:
        return CompositeVerification((), False, "issuer key is not a usable composite key")
    # spec_from_spki has decoded every component key already
    material = material_from_public(spec, issuer_spki.key_bits, registry)
    try:
        sig = CompositeSignatureValue.from_der(cert.signature)
    except DerError:
        return CompositeVerification(
            (), False, "signature is not a sequence of bit strings")
    return composite_verify(material, cert.tbs_der, sig)


def issue_composite_certificate(subject, key: CompositeKeyMaterial,
                                validity=None, serial: int | None = None,
                                extensions=(),
                                registry: algs.Registry | None = None,
                                rng=None) -> x509.CertificateDocument:
    """Self-signed certificate over the composite SPKI."""
    registry = registry or algs.default_registry()
    spki = key.outer_spki(registry)
    if validity is None:
        validity = x509.default_validity()
    signature_alg = algs.signature_algorithm_for(key.spec, registry)
    tbs = x509.build_tbs(subject, subject, spki, validity, signature_alg,
                         serial=serial, extensions=extensions, rng=rng)
    return x509.sign_certificate(tbs, key.to_record(), registry)
