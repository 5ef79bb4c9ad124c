"""Hybrid certificates carrying a second key and signature in the three
alternative extensions (2.5.29.72/73/74).

The alternative signature is computed over the TBS with the
altSignatureValue extension absent; the native signature then covers the
complete TBS including all three alternative extensions. Legacy verifiers
that ignore non-critical extensions still see a valid classical
certificate.
"""

from __future__ import annotations

import dataclasses
import warnings

from . import algs, der, x509
from .errors import (
    AlgorithmMismatch,
    DerError,
    DuplicateExtension,
    MalformedAltExtension,
)
from .oids import (
    EXT_ALT_SIGNATURE_ALGORITHM,
    EXT_ALT_SIGNATURE_VALUE,
    EXT_SUBJECT_ALT_PUBLIC_KEY_INFO,
    extension_name,
)


@dataclasses.dataclass(frozen=True)
class CatalystExtensionTriple:
    alt_spki: algs.SubjectPublicKeyInfo
    alt_sig_alg: algs.AlgorithmIdentifier
    alt_sig_value: bytes

    @classmethod
    def from_certificate(cls, cert: x509.CertificateDocument):
        """The decoded triple, None when absent entirely.

        A partial triple (one or two of the three extensions) raises
        MalformedAltExtension: it cannot be verified and was not produced
        by a correct issuer.
        """
        found = {
            oid: cert.tbs.find_extension(oid)
            for oid in (EXT_SUBJECT_ALT_PUBLIC_KEY_INFO,
                        EXT_ALT_SIGNATURE_ALGORITHM,
                        EXT_ALT_SIGNATURE_VALUE)
        }
        if all(e is None for e in found.values()):
            return None
        missing = [extension_name(oid) for oid, e in found.items() if e is None]
        if missing:
            raise MalformedAltExtension(
                f"alternative extension triple incomplete: missing {', '.join(missing)}")
        try:
            alt_spki = algs.SubjectPublicKeyInfo.from_der(
                found[EXT_SUBJECT_ALT_PUBLIC_KEY_INFO].value)
            alt_sig_alg = algs.AlgorithmIdentifier.from_der_value(
                der.decode(found[EXT_ALT_SIGNATURE_ALGORITHM].value))
            alt_sig_value = der.decode(found[EXT_ALT_SIGNATURE_VALUE].value).as_bits()
        except DerError as exc:
            raise MalformedAltExtension(
                f"alternative extension contents malformed: {exc}") from exc
        return cls(alt_spki, alt_sig_alg, alt_sig_value)


def issue_catalyst(tbs_base: x509.TbsCertificate,
                   native_issuer_key: algs.KeyPairRecord,
                   alt_issuer_key: algs.KeyPairRecord,
                   alt_subject_spki: algs.SubjectPublicKeyInfo | None = None,
                   registry: algs.Registry | None = None,
                   ) -> x509.CertificateDocument:
    """Two-pass issuance: alt-sign the TBS extended with the first two
    alternative extensions, append the alt signature as the third, then
    native-sign the whole thing.

    alt_subject_spki defaults to the alt issuer's own public key, the
    self-signed case.
    """
    registry = registry or algs.default_registry()
    for oid in (EXT_SUBJECT_ALT_PUBLIC_KEY_INFO, EXT_ALT_SIGNATURE_ALGORITHM,
                EXT_ALT_SIGNATURE_VALUE):
        if tbs_base.find_extension(oid) is not None:
            raise DuplicateExtension(
                f"base TBS already carries {extension_name(oid)}")
    expected = algs.signature_algorithm_for(native_issuer_key.spec, registry)
    if tbs_base.signature_alg != expected:
        raise AlgorithmMismatch(
            f"TBS says {tbs_base.signature_alg.oid}, native key signs as {expected.oid}")
    if native_issuer_key.spec.family == alt_issuer_key.spec.family:
        warnings.warn(
            "native and alternative keys share one algorithm family; the "
            "hybrid adds no migration value", stacklevel=2)
    if alt_subject_spki is None:
        alt_subject_spki = algs.spki_for_key(alt_issuer_key, registry=registry)

    alt_sig_alg = algs.signature_algorithm_for(alt_issuer_key.spec, registry)
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
    return x509.sign_certificate(final_tbs, native_issuer_key, registry)


def alt_preimage(tbs_der: bytes) -> bytes:
    """The bytes the alternative signature covers: the TBS with only the
    altSignatureValue extension removed, re-encoded canonically.

    Works on the raw structure so fields this tool does not model pass
    through byte-exactly.
    """
    value = der.decode(tbs_der)
    value.expect(der.SEQUENCE)
    out = []
    removed = False
    for child in value.children:
        if (child.cls == der.CONTEXT and child.tag == 3 and child.constructed
                and len(child.children) == 1):
            kept = tuple(e for e in child.children[0].children
                         if not _is_alt_value_extension(e))
            if len(kept) != len(child.children[0].children):
                removed = True
            if not kept:
                continue  # empty extension list is encoded as absent
            out.append(der.explicit(3, der.seq(*kept)))
        else:
            out.append(child)
    if not removed:
        raise MalformedAltExtension("TBS carries no altSignatureValue extension")
    return der.encode(der.seq(*out))


def _is_alt_value_extension(ext: der.DerValue) -> bool:
    try:
        return (ext.tag == der.SEQUENCE and bool(ext.children)
                and ext.children[0].as_oid() == EXT_ALT_SIGNATURE_VALUE)
    except DerError:
        return False


def alt_verdict(cert: x509.CertificateDocument,
                alt_issuer_spki: algs.SubjectPublicKeyInfo | None = None,
                registry: algs.Registry | None = None) -> str:
    """Verdict string for the alternative signature path alone."""
    registry = registry or algs.default_registry()
    triple = CatalystExtensionTriple.from_certificate(cert)
    if triple is None:
        raise MalformedAltExtension("certificate carries no alternative extensions")
    spki = alt_issuer_spki if alt_issuer_spki is not None else triple.alt_spki
    spec = algs.spec_from_spki(spki, registry)
    if spec is None:
        return x509.UNSUPPORTED
    expected = algs.signature_algorithm_for(spec, registry)
    if triple.alt_sig_alg.oid != expected.oid:
        return x509.INVALID  # declared algorithm disagrees with the key
    preimage = alt_preimage(cert.tbs_der)
    ok = algs.verify(spec, spki.key_bits, preimage, triple.alt_sig_value)
    return x509.VALID if ok else x509.INVALID


def verify_catalyst(cert: x509.CertificateDocument,
                    native_issuer_spki: algs.SubjectPublicKeyInfo | None = None,
                    alt_issuer_spki: algs.SubjectPublicKeyInfo | None = None,
                    registry: algs.Registry | None = None,
                    at_time=None) -> x509.VerificationReport:
    """Full report over both paths. Unlike verify_certificate, a partial
    alternative-extension triple raises MalformedAltExtension."""
    CatalystExtensionTriple.from_certificate(cert)
    native_spki = native_issuer_spki if native_issuer_spki is not None else cert.tbs.spki
    return x509.verify_certificate(cert, native_spki, at_time, registry,
                                   alt_issuer_spki)
