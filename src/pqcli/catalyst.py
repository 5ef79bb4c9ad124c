"""Hybrid certificates carrying a second key and signature in the three
alternative extensions (2.5.29.72/73/74).

The alternative signature is computed over the TBS with the
altSignatureValue extension absent; the native signature then covers the
complete TBS including all three alternative extensions. Legacy verifiers
that ignore non-critical extensions still see a valid classical
certificate.

This module issues; reading and checking the triple live in x509.
"""

from __future__ import annotations

import dataclasses
import warnings

from . import algs, der, x509
from .errors import AlgorithmMismatch, DuplicateExtension
from .oids import (
    EXT_ALT_SIGNATURE_ALGORITHM,
    EXT_ALT_SIGNATURE_VALUE,
    EXT_SUBJECT_ALT_PUBLIC_KEY_INFO,
    extension_name,
)
from .x509 import (  # re-exported, so catalyst.X keeps working
    CatalystExtensionTriple,
    alt_preimage,
    alt_verdict,
)


def issue_catalyst(tbs_base: x509.TbsCertificate,
                   native_issuer_key: algs.KeyPairRecord,
                   alt_issuer_key: algs.KeyPairRecord,
                   alt_subject_spki: algs.SubjectPublicKeyInfo | None = None,
                   ) -> x509.CertificateDocument:
    """Two-pass issuance: alt-sign the TBS extended with the first two
    alternative extensions, append the alt signature as the third, then
    native-sign the whole thing.

    alt_subject_spki defaults to the alt issuer's own public key, the
    self-signed case.
    """
    for oid in x509.ALT_EXTENSION_OIDS:
        if tbs_base.find_extension(oid) is not None:
            raise DuplicateExtension(
                f"base TBS already carries {extension_name(oid)}")
    expected = algs.signature_algorithm_for(native_issuer_key.spec)
    if tbs_base.signature_alg != expected:
        raise AlgorithmMismatch(
            f"TBS says {tbs_base.signature_alg.oid}, native key signs as {expected.oid}")
    if native_issuer_key.spec.family == alt_issuer_key.spec.family:
        warnings.warn(
            "native and alternative keys share one algorithm family; the "
            "hybrid adds no migration value", stacklevel=2)
    if alt_subject_spki is None:
        alt_subject_spki = algs.spki_for_key(alt_issuer_key)

    alt_sig_alg = algs.signature_algorithm_for(alt_issuer_key.spec)
    spki_ext = x509.ExtensionBlock(
        EXT_SUBJECT_ALT_PUBLIC_KEY_INFO, False, alt_subject_spki.der)
    alg_ext = x509.ExtensionBlock(
        EXT_ALT_SIGNATURE_ALGORITHM, False, der.encode(alt_sig_alg.to_der_value()))
    intermediate = dataclasses.replace(
        tbs_base, extensions=tbs_base.extensions + (spki_ext, alg_ext))

    alt_signature = algs.sign(alt_issuer_key.spec, alt_issuer_key, intermediate.der)
    value_ext = x509.ExtensionBlock(
        EXT_ALT_SIGNATURE_VALUE, False, der.encode(der.bit_string(alt_signature)))
    final_tbs = dataclasses.replace(
        intermediate, extensions=intermediate.extensions + (value_ext,))
    return x509.sign_certificate(final_tbs, native_issuer_key)


def verify_catalyst(cert: x509.CertificateDocument,
                    native_issuer_spki: algs.SubjectPublicKeyInfo | None = None,
                    alt_issuer_spki: algs.SubjectPublicKeyInfo | None = None,
                    ) -> x509.VerificationReport:
    """Full report over both paths. Unlike verify_certificate, a partial
    alternative-extension triple raises MalformedAltExtension."""
    CatalystExtensionTriple.from_certificate(cert)
    native_spki = native_issuer_spki if native_issuer_spki is not None else cert.tbs.spki
    return x509.verify_certificate(cert, native_spki, alt_issuer_spki=alt_issuer_spki)
