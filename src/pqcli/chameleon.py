"""Paired certificates: a base certificate embedding a delta certificate
descriptor from which the second certificate is reconstructed byte-exactly.

This module issues the pair: it fills in the defaults and signs twice.
Deriving the descriptor from the two certificates (describe_delta), reading
it from a base and rebuilding the delta live in x509, which reads every
certificate shape; the readers are re-exported here.
"""

from __future__ import annotations

import datetime
from dataclasses import replace
from typing import NamedTuple

from . import algs, x509
from .names import DistinguishedName, parse_name
from .oids import EXT_DELTA_CERTIFICATE_DESCRIPTOR
from .x509 import (  # re-exported, so chameleon.X keeps working
    DeltaCertificateDescriptor,
    descriptor_from_certificate,
    reconstruct_delta,
)


class CertParams(NamedTuple):
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
    the base's descriptor extension, which x509.describe_delta derives.

    Default extensions are suppressed on both certificates so that pairs
    differing only in algorithm produce a minimal descriptor; callers who
    want basicConstraints and the like pass them explicitly.
    """
    # both serials are drawn before any check, base first
    base_serial, delta_serial = (p.serial if p.serial is not None else x509.random_serial(rng)
                                 for p in (base_params, delta_params))
    base_subject = base_params.subject or parse_name(x509.DEFAULT_SUBJECT)
    base_validity = base_params.validity or x509.default_validity()
    base_exts = tuple(base_params.extensions or ())

    def self_signed(key, subject, validity, serial, extensions):
        return x509.build_tbs(subject, subject, algs.spki_for_key(key), validity,
                              algs.signature_algorithm_for(key.spec), serial=serial,
                              extensions=extensions, add_default_extensions=False)

    base_tbs = self_signed(base_issuer_key, base_subject, base_validity, base_serial, base_exts)
    delta_tbs = self_signed(
        delta_issuer_key, delta_params.subject or base_subject,
        delta_params.validity or base_validity, delta_serial,
        base_exts if delta_params.extensions is None else delta_params.extensions)
    delta_cert = x509.sign_certificate(delta_tbs, delta_issuer_key)
    descriptor = x509.describe_delta(base_tbs, delta_cert)
    dcd_ext = x509.ExtensionBlock(EXT_DELTA_CERTIFICATE_DESCRIPTOR, False, descriptor.der)
    base_tbs = replace(base_tbs, extensions=base_tbs.extensions + (dcd_ext,))
    return x509.sign_certificate(base_tbs, base_issuer_key), delta_cert
