"""Paired certificates: a base certificate embedding a delta certificate
descriptor from which the second certificate is reconstructed byte-exactly.

This module issues the pair. The descriptor, reading it from a base and
rebuilding the delta live in x509, which reads every certificate shape;
they are re-exported here.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from . import algs, der, x509
from .errors import FieldConflict
from .names import DistinguishedName, parse_name
from .oids import EXT_DELTA_CERTIFICATE_DESCRIPTOR
from .x509 import (  # re-exported, so chameleon.X keeps working
    DeltaCertificateDescriptor,
    descriptor_from_certificate,
    reconstruct_delta,
)


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

