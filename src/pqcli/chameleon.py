"""Paired certificates: a base certificate embedding a delta certificate
descriptor from which the second certificate is reconstructed byte-exactly.

The descriptor (extension 2.16.840.1.114027.80.6.1, non-critical) stores
the delta's serial, public key, and signature, plus any field whose value
differs from the base. Absent optional fields mean "same as the base", so
reconstruction is a copy-and-substitute over the base TBS.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from . import algs, der, x509
from .errors import (
    BadValue,
    DerError,
    FieldConflict,
    NoDescriptor,
    ReconstructionMismatch,
)
from .names import DistinguishedName, parse_name
from .oids import EXT_DELTA_CERTIFICATE_DESCRIPTOR


@dataclass(frozen=True)
class DeltaCertificateDescriptor:
    serial: int
    spki: algs.SubjectPublicKeyInfo
    signature_value: bytes
    signature_alg: algs.AlgorithmIdentifier | None = None
    issuer: DistinguishedName | None = None
    validity: tuple[datetime.datetime, datetime.datetime] | None = None
    subject: DistinguishedName | None = None
    extensions: tuple[x509.ExtensionBlock, ...] | None = None

    def to_der_value(self) -> der.DerValue:
        children = [der.integer(self.serial)]
        if self.signature_alg is not None:
            children.append(der.explicit(0, self.signature_alg.to_der_value()))
        if self.issuer is not None:
            children.append(der.explicit(1, self.issuer.to_der_value()))
        if self.validity is not None:
            children.append(der.explicit(2, der.seq(
                der.encode_time(self.validity[0]),
                der.encode_time(self.validity[1]))))
        if self.subject is not None:
            children.append(der.explicit(3, self.subject.to_der_value()))
        children.append(self.spki.to_der_value())
        if self.extensions is not None:
            children.append(der.explicit(4, der.seq(
                *(e.to_der_value() for e in self.extensions))))
        children.append(der.bit_string(self.signature_value))
        return der.seq(*children)

    @property
    def der(self) -> bytes:
        return der.encode(self.to_der_value())

    @classmethod
    def from_der(cls, data: bytes) -> "DeltaCertificateDescriptor":
        value = der.decode(data)
        value.expect(der.SEQUENCE)
        children = list(value.children)
        if len(children) < 3:
            raise BadValue("descriptor needs serial, key, and signature")
        serial = children[0].as_int()
        index = 1

        def take(tag: int) -> der.DerValue | None:
            nonlocal index
            if (index < len(children) and children[index].cls == der.CONTEXT
                    and children[index].tag == tag):
                wrapper = children[index]
                if not wrapper.constructed or len(wrapper.children) != 1:
                    raise BadValue(f"malformed [{tag}] descriptor field")
                index += 1
                return wrapper.children[0]
            return None

        inner = take(0)
        signature_alg = (algs.AlgorithmIdentifier.from_der_value(inner)
                         if inner is not None else None)
        inner = take(1)
        issuer = DistinguishedName.from_der_value(inner) if inner is not None else None
        inner = take(2)
        validity = None
        if inner is not None:
            inner.expect(der.SEQUENCE)
            if len(inner.children) != 2:
                raise BadValue("descriptor validity needs two times")
            validity = (der.decode_time(inner.children[0]),
                        der.decode_time(inner.children[1]))
        inner = take(3)
        subject = DistinguishedName.from_der_value(inner) if inner is not None else None
        if index >= len(children):
            raise BadValue("descriptor is missing the public key")
        spki = algs.SubjectPublicKeyInfo.from_der_value(children[index])
        index += 1
        inner = take(4)
        extensions = None
        if inner is not None:
            inner.expect(der.SEQUENCE)
            extensions = tuple(x509.ExtensionBlock.from_der_value(e)
                               for e in inner.children)
        if index >= len(children):
            raise BadValue("descriptor is missing the signature value")
        signature_value = children[index].as_bits()
        index += 1
        if index != len(children):
            raise BadValue("trailing fields in descriptor")
        return cls(serial, spki, signature_value, signature_alg, issuer,
                   validity, subject, extensions)


@dataclass(frozen=True)
class CertParams:
    """Per-certificate knobs for paired issuance. None means inherit: the
    base inherits tool defaults, the delta inherits the base."""

    subject: DistinguishedName | None = None
    validity: tuple[datetime.datetime, datetime.datetime] | None = None
    serial: int | None = None
    extensions: tuple[x509.ExtensionBlock, ...] | None = None


def issue_paired(base_params: CertParams, delta_params: CertParams,
                 base_issuer_key: algs.KeyPairRecord,
                 delta_issuer_key: algs.KeyPairRecord,
                 rng=None) -> tuple[x509.CertificateDocument, x509.CertificateDocument]:
    """Issue the self-signed pair: delta first so its signature can ride in
    the base's descriptor extension.

    Default extensions are suppressed on both certificates so that pairs
    differing only in algorithm produce a minimal descriptor; callers who
    want basicConstraints and the like pass them explicitly.
    """
    base_subject = base_params.subject or parse_name(x509.DEFAULT_SUBJECT)
    base_validity = base_params.validity or x509.default_validity()
    base_validity = (der.normalize_time(base_validity[0]),
                     der.normalize_time(base_validity[1]))
    base_serial = (base_params.serial if base_params.serial is not None
                   else x509.random_serial(rng))
    base_exts = tuple(base_params.extensions or ())

    delta_subject = delta_params.subject or base_subject
    delta_validity = delta_params.validity or base_validity
    delta_validity = (der.normalize_time(delta_validity[0]),
                      der.normalize_time(delta_validity[1]))
    delta_serial = (delta_params.serial if delta_params.serial is not None
                    else x509.random_serial(rng))
    delta_exts = (tuple(delta_params.extensions)
                  if delta_params.extensions is not None else base_exts)

    if any(e.oid == EXT_DELTA_CERTIFICATE_DESCRIPTOR for e in delta_exts):
        raise FieldConflict("delta certificate cannot itself carry a descriptor")
    if delta_exts != base_exts and not delta_exts:
        # an extension list can express one-or-more entries but never
        # "present and empty", so this difference has no encoding
        raise FieldConflict(
            "delta has no extensions while the base has some; the descriptor "
            "cannot express an empty extension list")

    delta_spki = algs.spki_for_key(delta_issuer_key)
    delta_alg = algs.signature_algorithm_for(delta_issuer_key.spec)
    delta_tbs = x509.build_tbs(delta_subject, delta_subject, delta_spki,
                               delta_validity, delta_alg, serial=delta_serial,
                               extensions=delta_exts,
                               add_default_extensions=False, rng=rng)
    delta_cert = x509.sign_certificate(delta_tbs, delta_issuer_key)

    base_alg = algs.signature_algorithm_for(base_issuer_key.spec)
    descriptor = DeltaCertificateDescriptor(
        serial=delta_serial,
        spki=delta_spki,
        signature_value=delta_cert.signature,
        signature_alg=delta_alg if delta_alg != base_alg else None,
        issuer=delta_subject if delta_subject != base_subject else None,
        validity=delta_validity if delta_validity != base_validity else None,
        subject=delta_subject if delta_subject != base_subject else None,
        extensions=delta_exts if delta_exts != base_exts else None,
    )
    dcd_ext = x509.ExtensionBlock(
        EXT_DELTA_CERTIFICATE_DESCRIPTOR, False, descriptor.der)

    base_spki = algs.spki_for_key(base_issuer_key)
    base_tbs = x509.build_tbs(base_subject, base_subject, base_spki,
                              base_validity, base_alg, serial=base_serial,
                              extensions=base_exts + (dcd_ext,),
                              add_default_extensions=False, rng=rng)
    base_cert = x509.sign_certificate(base_tbs, base_issuer_key)
    return base_cert, delta_cert


def descriptor_from_certificate(base: x509.CertificateDocument,
                                ) -> DeltaCertificateDescriptor:
    ext = base.tbs.find_extension(EXT_DELTA_CERTIFICATE_DESCRIPTOR)
    if ext is None:
        raise NoDescriptor("certificate carries no delta descriptor extension")
    try:
        return DeltaCertificateDescriptor.from_der(ext.value)
    except DerError as exc:
        raise ReconstructionMismatch(f"descriptor does not decode: {exc}") from exc


def reconstruct_delta(base: x509.CertificateDocument) -> x509.CertificateDocument:
    """Rebuild the delta certificate from the base: copy the base TBS,
    substitute every descriptor field, drop the descriptor extension, and
    attach the stored signature. Self-signed results are verified; one
    whose key algorithm is not recognized fails."""
    descriptor = descriptor_from_certificate(base)

    base_exts = tuple(e for e in base.tbs.extensions
                      if e.oid != EXT_DELTA_CERTIFICATE_DESCRIPTOR)
    extensions = (descriptor.extensions if descriptor.extensions is not None
                  else base_exts)
    signature_alg = descriptor.signature_alg or base.tbs.signature_alg
    validity = descriptor.validity or (base.tbs.not_before, base.tbs.not_after)
    tbs = x509.TbsCertificate(
        version=2,
        serial=descriptor.serial,
        signature_alg=signature_alg,
        issuer=descriptor.issuer or base.tbs.issuer,
        not_before=validity[0],
        not_after=validity[1],
        subject=descriptor.subject or base.tbs.subject,
        spki=descriptor.spki,
        extensions=extensions,
    )
    doc = x509.CertificateDocument(tbs, tbs.der, signature_alg,
                                   descriptor.signature_value)
    if doc.tbs.subject == doc.tbs.issuer:
        spec = algs.spec_from_spki(descriptor.spki)
        if spec is None or not algs.verify(
                spec, descriptor.spki.key_bits, doc.tbs_der, doc.signature):
            raise ReconstructionMismatch(
                "reconstructed delta certificate fails signature verification")
    return doc
