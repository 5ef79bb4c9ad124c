"""Hybrid certificates carrying a second key and signature in the three
alternative extensions (2.5.29.72/73/74).

The alternative signature is computed over the TBS with the
altSignatureValue extension absent; the native signature then covers the
complete TBS including all three alternative extensions. Legacy verifiers
that ignore non-critical extensions still see a valid classical
certificate.

x509 does the work: sign_certificate issues every shape, this one through
its alternative-key branch, and x509 reads and checks the triple. This
module keeps the issue_catalyst and verify_catalyst entry points and
re-exports the readers.
"""

from __future__ import annotations

from . import algs, x509
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
    """Two-pass Catalyst issuance: x509.sign_certificate with an
    alternative issuer key."""
    return x509.sign_certificate(tbs_base, native_issuer_key, alt_issuer_key,
                                 alt_subject_spki)


def verify_catalyst(cert: x509.CertificateDocument,
                    native_issuer_spki: algs.SubjectPublicKeyInfo | None = None,
                    alt_issuer_spki: algs.SubjectPublicKeyInfo | None = None,
                    ) -> x509.VerificationReport:
    """Full report over both paths. Unlike verify_certificate, a partial
    alternative-extension triple raises MalformedAltExtension."""
    CatalystExtensionTriple.from_certificate(cert)
    native_spki = native_issuer_spki if native_issuer_spki is not None else cert.tbs.spki
    return x509.verify_certificate(cert, native_spki, alt_issuer_spki=alt_issuer_spki)
