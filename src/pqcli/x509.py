"""X.509 v3 certificates and PKCS#10 requests: build, sign, parse, verify.

The signed TBS bytes are authoritative: parse_certificate captures them
exactly as found and every verification runs over that captured slice,
never over a re-encoding. Documents the tool emits round-trip byte-exactly
through parse and emit.

This is the one module that reads certificates and checks every signature
path, Catalyst, composite and the delta inside a paired base included, and
the one that signs them: sign_certificate issues every shape, the Catalyst
two-pass being its alternative-key branch, and describe_delta derives the
descriptor that reconstruct_delta reads. catalyst, composite and chameleon
keep thin issuing entry points over it. read_document and verify_issued
make every decision pqcli view and verify need, for a certificate or a
request alike; every signature verdict, on every path, comes from one check
that also requires the declared algorithm to be the key's. Each field shape the TBS,
the delta descriptor and the request share (an extension list, an EXPLICIT
[n] wrapper) has one encoder and one decoder; a validity is kept as the
SEQUENCE read or built, and re-emitted as is. The Catalyst triple has one
reader, which render_text prints from.
One check allows each extension type once (RFC 5280 4.2): building a TBS
or a request raises DuplicateExtension, and reading a list, BadValue.
"""

from __future__ import annotations

import datetime
import hashlib
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import algs, der, pem
from .errors import (
    AlgorithmMismatch,
    BadTag,
    BadValue,
    DerError,
    DuplicateExtension,
    EmptyValue,
    FieldConflict,
    InvalidParameter,
    InvalidValidity,
    MalformedAltExtension,
    MalformedPem,
    NoDescriptor,
    NotACertificate,
    NotACsr,
    ReconstructionMismatch,
    TrailingBytes,
)
from .names import DistinguishedName
from .oids import (
    ATTR_EXTENSION_REQUEST,
    EXT_ALT_SIGNATURE_ALGORITHM,
    EXT_ALT_SIGNATURE_VALUE,
    EXT_BASIC_CONSTRAINTS,
    EXT_DELTA_CERTIFICATE_DESCRIPTOR,
    EXT_SUBJECT_ALT_PUBLIC_KEY_INFO,
    EXT_SUBJECT_KEY_ID,
    ObjectIdentifier,
    algorithm_name,
    extension_name,
)

VALID = "valid"
INVALID = "invalid"
UNSUPPORTED = "unsupported"

DEFAULT_SUBJECT = "CN=pqcli self-signed"
DEFAULT_DAYS = 365

# The Catalyst triple, in the order issuance appends it.
ALT_EXTENSION_OIDS = (
    EXT_SUBJECT_ALT_PUBLIC_KEY_INFO,
    EXT_ALT_SIGNATURE_ALGORITHM,
    EXT_ALT_SIGNATURE_VALUE,
)
# The OID TLV that opens an altSignatureValue extension: 06 03 55 1d 4a
_ALT_VALUE_OID_TLV = der.encode(der.oid_value(EXT_ALT_SIGNATURE_VALUE))


# -- field codecs shared by the TBS, the delta descriptor and the request --

def _decode_validity(value: der.DerValue, error_cls):
    """(not_before, not_after) of a validity SEQUENCE."""
    value.expect(der.SEQUENCE)
    if len(value.children) != 2:
        raise error_cls("validity needs two times")
    return der.decode_time(value.children[0]), der.decode_time(value.children[1])


def _encode_extensions(extensions) -> der.DerValue:
    return der.seq(*(e.to_der_value() for e in extensions))


def _decode_extensions(value: der.DerValue) -> tuple["ExtensionBlock", ...]:
    value.expect(der.SEQUENCE)
    return _one_per_type(tuple(map(ExtensionBlock.from_der_value, value.children)), BadValue)


def _one_per_type(extensions, error_cls=DuplicateExtension):
    """extensions, unless a type repeats: RFC 5280 4.2 allows one of each."""
    if len({e.oid for e in extensions}) != len(extensions):
        types = [e.oid for e in extensions]
        raise error_cls(f"duplicate extension {max(types, key=types.count)}")
    return extensions


def _read_explicit(children, index: int, tag: int, decode, error_cls, field: str):
    """(decode(inner), next index), where inner is the one child of the
    EXPLICIT [tag] wrapper at children[index]; (None, index) when that
    optional field is absent."""
    if index < len(children):
        wrapper = children[index]
        if wrapper.cls == der.CONTEXT and wrapper.tag == tag:
            if not wrapper.constructed or len(wrapper.children) != 1:
                raise error_cls(f"malformed {field}")
            return decode(wrapper.children[0]), index + 1
    return None, index


class ExtensionBlock(NamedTuple):
    oid: ObjectIdentifier
    critical: bool
    value: bytes  # the DER structure inside extnValue

    def to_der_value(self) -> der.DerValue:
        children = [der.oid_value(self.oid)]
        if self.critical:
            children.append(der.boolean(True))
        children.append(der.octet_string(self.value))
        return der.seq(*children)

    @classmethod
    def from_der_value(cls, value: der.DerValue) -> "ExtensionBlock":
        value.expect(der.SEQUENCE)
        children = list(value.children)
        if not 2 <= len(children) <= 3:
            raise BadValue("extension needs 2 or 3 fields")
        ext_oid = children[0].as_oid()
        critical = len(children) == 3
        if critical and not children[1].as_bool():
            raise BadValue("extension encodes the DEFAULT critical FALSE")
        return cls(ext_oid, critical, children[-1].as_octets())


@dataclass(frozen=True)  # not a NamedTuple: dataclasses.replace re-runs __post_init__
class TbsCertificate:
    """The to-be-signed part of a certificate (RFC 5280 4.1), validity kept as written."""

    version: int
    serial: int
    signature_alg: algs.AlgorithmIdentifier
    issuer: DistinguishedName
    validity: der.DerValue  # the SEQUENCE as read or built, emitted as is
    subject: DistinguishedName
    spki: algs.SubjectPublicKeyInfo
    extensions: tuple[ExtensionBlock, ...] = ()
    not_before: datetime.datetime = field(init=False, compare=False)
    not_after: datetime.datetime = field(init=False, compare=False)

    def __post_init__(self):
        _one_per_type(self.extensions)
        not_before, not_after = _decode_validity(self.validity, NotACertificate)
        object.__setattr__(self, "not_before", not_before)
        object.__setattr__(self, "not_after", not_after)

    def to_der_value(self) -> der.DerValue:
        children = [der.explicit(0, der.integer(self.version))] if self.version else []
        children += [
            der.integer(self.serial),
            self.signature_alg.to_der_value(),
            self.issuer.to_der_value(),
            self.validity,
            self.subject.to_der_value(),
            self.spki.to_der_value(),
        ]
        if self.extensions:
            children.append(der.explicit(3, _encode_extensions(self.extensions)))
        return der.seq(*children)

    @property
    def der(self) -> bytes:
        return der.encode(self.to_der_value())

    def find_extension(self, ext_oid: ObjectIdentifier) -> ExtensionBlock | None:
        for ext in self.extensions:
            if ext.oid == ext_oid:
                return ext
        return None

    @classmethod
    def from_der_value(cls, value: der.DerValue) -> "TbsCertificate":
        value.expect(der.SEQUENCE)
        children = list(value.children)
        if not children:
            raise NotACertificate("empty TBS")
        version, idx = _read_explicit(children, 0, 0, der.DerValue.as_int,
                                      NotACertificate, "version field")
        if version is None:
            version = 0  # v1 when the [0] tag is absent
        elif version == 0:  # DER never writes out a DEFAULT value (X.690 11.5)
            raise NotACertificate("version field encodes the DEFAULT v1")
        elif version not in (1, 2):
            raise NotACertificate(f"unsupported certificate version {version}")
        try:
            serial = children[idx].as_int()
            signature_alg = algs.AlgorithmIdentifier.from_der_value(children[idx + 1])
            issuer = DistinguishedName.from_der_value(children[idx + 2])
            validity = children[idx + 3]
            subject = DistinguishedName.from_der_value(children[idx + 4])
            spki = algs.SubjectPublicKeyInfo.from_der_value(children[idx + 5])
        except IndexError:
            raise NotACertificate("TBS is missing required fields") from None
        extensions, end = _read_explicit(children, idx + 6, 3, _decode_extensions,
                                         NotACertificate, "extensions field")
        if end < len(children):
            extra = children[end]
            if extra.cls != der.CONTEXT:
                raise NotACertificate("unexpected field after subjectPublicKeyInfo")
            if extra.tag in (1, 2):
                raise NotACertificate("issuerUniqueID/subjectUniqueID are not supported")
            raise NotACertificate("malformed extensions field")
        return cls(version, serial, signature_alg, issuer, validity, subject, spki,
                   extensions or ())


@dataclass(frozen=True)  # not a NamedTuple: callers copy it with dataclasses.replace
class CertificateDocument:
    """A signed certificate: its TBS, the TBS bytes that were signed, and the signature."""

    tbs: TbsCertificate
    tbs_der: bytes
    signature_alg: algs.AlgorithmIdentifier
    signature: bytes

    def emit(self) -> bytes:
        """Full certificate DER, reusing the signed TBS bytes verbatim."""
        return _write_signed(self.tbs_der, self.signature_alg, self.signature)

    def emit_pem(self) -> str:
        return pem.encode_pem(pem.LABEL_CERTIFICATE, self.emit())

    def has_alt_extensions(self) -> bool:
        return any(self.tbs.find_extension(o) is not None for o in ALT_EXTENSION_OIDS)


class VerificationReport(NamedTuple):
    native_sig: str
    alt_sig: str | None = None
    composite_components: tuple[str, ...] | None = None
    chain_notes: tuple[str, ...] = ()
    delta_sig: str | None = None  # set by verify_issued only
    composite_parts: tuple[algs.CompositeComponent, ...] = ()  # the issuer key's, as read

    @property
    def all_valid(self) -> bool:
        """Every signature path that is present verified. A composite
        native_sig is valid only when every component is."""
        return (self.native_sig == VALID
                and self.alt_sig in (None, VALID) and self.delta_sig in (None, VALID))


def random_serial(rng=None) -> int:
    """Positive 120-bit serial."""
    while True:
        value = int.from_bytes(rng.randbytes(15) if rng else os.urandom(15), "big")
        if value > 0:
            return value


def default_validity(days: int = DEFAULT_DAYS):
    """(not_before, not_after): now, to the second, and days later."""
    start = der.normalize_time(datetime.datetime.now(datetime.timezone.utc))
    try:
        return start, start + datetime.timedelta(days=days)
    except OverflowError:
        raise InvalidValidity(f"{days} days from now is outside the years 1 to 9999") from None


def basic_constraints_extension() -> ExtensionBlock:
    """Non-critical basicConstraints marking a CA."""
    return ExtensionBlock(EXT_BASIC_CONSTRAINTS, False,
                          der.encode(der.seq(der.boolean(True))))


def subject_key_id_extension(spki: algs.SubjectPublicKeyInfo) -> ExtensionBlock:
    digest = hashlib.sha1(spki.key_bits).digest()
    return ExtensionBlock(EXT_SUBJECT_KEY_ID, False,
                          der.encode(der.octet_string(digest)))


def build_tbs(subject: DistinguishedName,
              issuer: DistinguishedName,
              spki: algs.SubjectPublicKeyInfo,
              validity: tuple[datetime.datetime, datetime.datetime],
              signature_alg: algs.AlgorithmIdentifier,
              serial: int | None = None,
              extensions=(),
              add_default_extensions: bool = True,
              rng=None) -> TbsCertificate:
    """Assemble a v3 TBS. basicConstraints and subjectKeyIdentifier are
    added (non-critical) unless suppressed or already supplied."""
    if not issuer.attributes:
        raise EmptyValue("the issuer name must not be empty (RFC 5280 4.1.2.4)")
    not_before = der.normalize_time(validity[0])
    not_after = der.normalize_time(validity[1])
    if not_before >= not_after:
        raise InvalidValidity(f"not_before {not_before} must precede not_after {not_after}")
    if serial is None:
        serial = random_serial(rng)
    if serial <= 0 or serial.bit_length() > 159:  # INTEGER content of 20 octets at most
        raise InvalidParameter("serial must be positive and fit in 20 octets")

    supplied = tuple(extensions)
    supplied_oids = {e.oid for e in supplied}
    final: list[ExtensionBlock] = []
    if add_default_extensions:
        if EXT_BASIC_CONSTRAINTS not in supplied_oids:
            final.append(basic_constraints_extension())
        if EXT_SUBJECT_KEY_ID not in supplied_oids:
            final.append(subject_key_id_extension(spki))
    final.extend(supplied)

    return TbsCertificate(
        version=2, serial=serial, signature_alg=signature_alg, issuer=issuer,
        validity=der.seq(der.encode_time(not_before), der.encode_time(not_after)),
        subject=subject, spki=spki, extensions=tuple(final))


def _write_signed(signed_der: bytes, signature_alg: algs.AlgorithmIdentifier,
                  signature: bytes) -> bytes:
    """The outer SEQUENCE of certificates and requests alike."""
    return der.wrap_sequence(
        signed_der
        + der.encode(signature_alg.to_der_value())
        + der.encode(der.bit_string(signature)))


def _read_signed(data: bytes, label: str, error_cls, decode_signed):
    """Read what _write_signed makes, from DER or the first PEM block with
    this label: the signed bytes exactly as found, decode_signed of their
    value, the outer algorithm and the signature."""
    try:
        _, blob = pem.read_block(data, (label,))
    except MalformedPem as exc:
        raise error_cls(str(exc)) from exc
    try:
        outer = der.decode(blob)
    except DerError as exc:
        raise error_cls(f"not valid DER: {exc}") from exc
    if (outer.tag != der.SEQUENCE or outer.cls != der.UNIVERSAL
            or len(outer.children) != 3):
        raise error_cls(f"{label.lower()} must be a SEQUENCE of signed data, "
                        "algorithm, and signature")
    content_start, _ = der.tlv_bounds(blob, 0)
    _, signed_end = der.tlv_bounds(blob, content_start)
    return (blob[content_start:signed_end],
            decode_signed(outer.children[0]),
            algs.AlgorithmIdentifier.from_der_value(outer.children[1]),
            outer.children[2].as_bits())


def parse_certificate(data: bytes) -> CertificateDocument:
    """Parse DER or PEM certificate bytes, keeping the TBS slice exact."""
    tbs_der, tbs, signature_alg, signature = _read_signed(
        data, pem.LABEL_CERTIFICATE, NotACertificate, TbsCertificate.from_der_value)
    return CertificateDocument(tbs, tbs_der, signature_alg, signature)


# -- paired certificates: the delta certificate descriptor -----------------
#
# The descriptor (extension 2.16.840.1.114027.80.6.1, non-critical) stores
# the delta's serial, public key, and signature, plus any field whose value
# differs from the base. Absent optional fields mean "same as the base", so
# reconstruction is a copy-and-substitute over the base TBS. _DESCRIBED
# names those optional fields as TbsCertificate does; [n] holds _DESCRIBED[n].
_DESCRIBED = ("signature_alg", "issuer", "validity", "subject", "extensions")


class DeltaCertificateDescriptor(NamedTuple):
    """The delta certificate of a paired base; a field left None is the base's."""

    serial: int
    spki: algs.SubjectPublicKeyInfo
    signature_value: bytes
    signature_alg: algs.AlgorithmIdentifier | None = None
    issuer: DistinguishedName | None = None
    validity: der.DerValue | None = None  # the SEQUENCE as read or built
    subject: DistinguishedName | None = None
    extensions: tuple[ExtensionBlock, ...] | None = None

    def to_der_value(self) -> der.DerValue:
        children = [der.integer(self.serial)]
        if self.signature_alg is not None:
            children.append(der.explicit(0, self.signature_alg.to_der_value()))
        if self.issuer is not None:
            children.append(der.explicit(1, self.issuer.to_der_value()))
        if self.validity is not None:
            children.append(der.explicit(2, self.validity))
        if self.subject is not None:
            children.append(der.explicit(3, self.subject.to_der_value()))
        children.append(self.spki.to_der_value())
        if self.extensions is not None:
            children.append(der.explicit(4, _encode_extensions(self.extensions)))
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

        def take(index, tag, decode):
            return _read_explicit(children, index, tag, decode, BadValue,
                                  f"[{tag}] descriptor field")

        signature_alg, index = take(1, 0, algs.AlgorithmIdentifier.from_der_value)
        issuer, index = take(index, 1, DistinguishedName.from_der_value)
        validity, index = take(index, 2, lambda v: v)
        if validity is not None:
            _decode_validity(validity, BadValue)  # two times, as a TBS holds
        subject, index = take(index, 3, DistinguishedName.from_der_value)
        if index >= len(children):
            raise BadValue("descriptor is missing the public key")
        spki = algs.SubjectPublicKeyInfo.from_der_value(children[index])
        extensions, index = take(index + 1, 4, _decode_extensions)
        if index >= len(children):
            raise BadValue("descriptor is missing the signature value")
        signature_value = children[index].as_bits()
        if index + 1 != len(children):
            raise BadValue("trailing fields in descriptor")
        return cls(serial, spki, signature_value, signature_alg, issuer,
                   validity, subject, extensions)


def descriptor_from_certificate(base: CertificateDocument) -> DeltaCertificateDescriptor:
    ext = base.tbs.find_extension(EXT_DELTA_CERTIFICATE_DESCRIPTOR)
    if ext is None:
        raise NoDescriptor("certificate carries no delta descriptor extension")
    try:
        return DeltaCertificateDescriptor.from_der(ext.value)
    except DerError as exc:
        raise ReconstructionMismatch(f"descriptor does not decode: {exc}") from exc


def describe_delta(base_tbs: TbsCertificate,
                   delta: CertificateDocument) -> DeltaCertificateDescriptor:
    """The inverse of reconstruct_delta: the descriptor that rebuilds delta
    over a base whose TBS, the descriptor aside, is base_tbs. It holds the
    delta's serial, key and signature, and each field that differs."""
    d = delta.tbs
    if d.find_extension(EXT_DELTA_CERTIFICATE_DESCRIPTOR) is not None:
        raise FieldConflict("delta certificate cannot itself carry a descriptor")
    if d.extensions != base_tbs.extensions and not d.extensions:
        # an extension list can express one-or-more entries but never
        # "present and empty", so this difference has no encoding
        raise FieldConflict(
            "delta has no extensions while the base has some; the descriptor "
            "cannot express an empty extension list")
    differing = {name: getattr(d, name) for name in _DESCRIBED
                 if getattr(d, name) != getattr(base_tbs, name)}
    return DeltaCertificateDescriptor(d.serial, d.spki, delta.signature, **differing)


def reconstruct_delta(base: CertificateDocument) -> CertificateDocument:
    """Rebuild the delta certificate from the base: copy the base TBS,
    substitute every descriptor field, drop the descriptor extension, and
    attach the stored signature. Self-signed results are verified; one
    whose key algorithm is not recognized fails."""
    descriptor = descriptor_from_certificate(base)
    fields = {"extensions": tuple(e for e in base.tbs.extensions
                                  if e.oid != EXT_DELTA_CERTIFICATE_DESCRIPTOR)}
    fields.update((name, getattr(descriptor, name)) for name in _DESCRIBED
                  if getattr(descriptor, name) is not None)
    tbs = replace(base.tbs, version=2, serial=descriptor.serial, spki=descriptor.spki,
                  **fields)
    doc = CertificateDocument(tbs, tbs.der, tbs.signature_alg, descriptor.signature_value)
    if tbs.subject == tbs.issuer and _check_signature(
            tbs.spki, doc.signature_alg, doc.tbs_der, doc.signature)[0] != VALID:
        raise ReconstructionMismatch(
            "reconstructed delta certificate fails signature verification")
    return doc


# -- signing, and the Catalyst alternative-extension triple ----------------

class CatalystExtensionTriple(NamedTuple):
    alt_spki: algs.SubjectPublicKeyInfo
    alt_sig_alg: algs.AlgorithmIdentifier
    alt_sig_value: bytes

    @classmethod
    def from_certificate(cls, cert: CertificateDocument):
        """The decoded triple, None when absent entirely.

        A partial triple (one or two of the three extensions) raises
        MalformedAltExtension: it cannot be verified and was not produced
        by a correct issuer.
        """
        found = [cert.tbs.find_extension(oid) for oid in ALT_EXTENSION_OIDS]
        if all(e is None for e in found):
            return None
        missing = [extension_name(oid)
                   for oid, e in zip(ALT_EXTENSION_OIDS, found) if e is None]
        if missing:
            raise MalformedAltExtension(
                f"alternative extension triple incomplete: missing {', '.join(missing)}")
        spki_ext, alg_ext, value_ext = found
        try:
            alt_spki = algs.SubjectPublicKeyInfo.from_der(spki_ext.value)
            alt_sig_alg = algs.AlgorithmIdentifier.from_der_value(der.decode(alg_ext.value))
            alt_sig_value = der.decode(value_ext.value).as_bits()
        except DerError as exc:
            raise MalformedAltExtension(
                f"alternative extension contents malformed: {exc}") from exc
        return cls(alt_spki, alt_sig_alg, alt_sig_value)


def sign_certificate(tbs: TbsCertificate,
                     issuer_key: algs.KeyPairRecord,
                     alt_issuer_key: algs.KeyPairRecord | None = None,
                     alt_subject_spki: algs.SubjectPublicKeyInfo | None = None,
                     ) -> CertificateDocument:
    """Sign tbs with issuer_key. An alt_issuer_key makes it Catalyst: first
    append subjectAltPublicKeyInfo (alt_subject_spki, by default the alt
    issuer's own key) and altSignatureAlgorithm, alt-sign those bytes and
    append the signature as altSignatureValue; alt_preimage undoes this."""
    expected = algs.signature_algorithm_for(issuer_key.spec)
    if tbs.signature_alg != expected:
        raise AlgorithmMismatch(
            f"TBS says {tbs.signature_alg.oid}, key signs as {expected.oid}")
    if alt_issuer_key is not None:
        if issuer_key.spec.family == alt_issuer_key.spec.family:
            warnings.warn(
                "native and alternative keys share one algorithm family; the "
                "hybrid adds no migration value", stacklevel=2)
        alt_spki = alt_subject_spki or algs.spki_for_key(alt_issuer_key)
        alt_sig_alg = algs.signature_algorithm_for(alt_issuer_key.spec)
        tbs = replace(tbs, extensions=tbs.extensions + (
            ExtensionBlock(EXT_SUBJECT_ALT_PUBLIC_KEY_INFO, False, alt_spki.der),
            ExtensionBlock(EXT_ALT_SIGNATURE_ALGORITHM, False,
                           der.encode(alt_sig_alg.to_der_value()))))
        alt_signature = algs.sign(alt_issuer_key.spec, alt_issuer_key, tbs.der)
        tbs = replace(tbs, extensions=tbs.extensions + (
            ExtensionBlock(EXT_ALT_SIGNATURE_VALUE, False,
                           der.encode(der.bit_string(alt_signature))),))
    tbs_der = tbs.der
    signature = algs.sign(issuer_key.spec, issuer_key, tbs_der)
    return CertificateDocument(tbs, tbs_der, tbs.signature_alg, signature)


def alt_preimage(tbs_der: bytes) -> bytes:
    """The bytes the alternative signature covers: the TBS with every
    altSignatureValue extension cut out, the two enclosing lengths rebuilt,
    and [3] left out once no extension is left in it.

    Spliced from the TBS's own byte spans, so fields this tool does not
    model pass through byte-exactly; for strict DER this is the canonical
    re-encoding of the remaining tree.
    """
    pos, end = der.tlv_bounds(tbs_der, 0)
    if tbs_der[0] != 0x30 or end != len(tbs_der):
        raise BadTag("TBS must be exactly one SEQUENCE")
    fields, removed = [], False
    while pos < end:
        content, field_end = der.tlv_bounds(tbs_der, pos, end)
        if tbs_der[pos] != 0xA3:  # anything but the [3] extensions wrapper
            fields.append(tbs_der[pos:field_end])
        else:
            ext, exts_end = der.tlv_bounds(tbs_der, content, field_end)
            if exts_end != field_end:
                raise TrailingBytes("[3] holds more than the extension list")
            kept = []
            while ext < exts_end:
                ext_content, ext_end = der.tlv_bounds(tbs_der, ext, exts_end)
                if tbs_der.startswith(_ALT_VALUE_OID_TLV, ext_content, ext_end):
                    removed = True
                else:
                    kept.append(tbs_der[ext:ext_end])
                ext = ext_end
            if kept:  # an empty extension list is encoded as absent
                fields.append(der.wrap_sequence(der.wrap_sequence(b"".join(kept)), 0xA3))
        pos = field_end
    if not removed:
        raise MalformedAltExtension("TBS carries no altSignatureValue extension")
    return der.wrap_sequence(b"".join(fields))


def alt_verdict(cert: CertificateDocument,
                alt_issuer_spki: algs.SubjectPublicKeyInfo | None = None) -> str:
    """Verdict string for the alternative signature path alone."""
    triple = CatalystExtensionTriple.from_certificate(cert)
    if triple is None:
        raise MalformedAltExtension("certificate carries no alternative extensions")
    spki = alt_issuer_spki if alt_issuer_spki is not None else triple.alt_spki
    return _check_signature(spki, triple.alt_sig_alg, alt_preimage(cert.tbs_der),
                            triple.alt_sig_value)[0]


# -- composite: one signature value, a verdict per component ---------------

class CompositeVerification(NamedTuple):
    """Per-component verdicts plus the AND over them. A structural problem
    (count mismatch, undecodable key or signature) leaves components empty
    and carries an explanatory note. parts are the key's components, as
    algs.read_spki returned them."""

    components: tuple[str, ...]
    overall: bool
    note: str | None = None
    parts: tuple[algs.CompositeComponent, ...] = ()


def composite_verify(key: algs.CompositeKeyMaterial, message: bytes,
                     sig: algs.CompositeSignatureValue) -> CompositeVerification:
    verdicts = algs.component_verdicts(key, message, sig)
    if verdicts is None:
        return CompositeVerification(
            (), False,
            f"signature has {len(sig.parts)} parts for {len(key.components)} components",
            key.components)
    return CompositeVerification(
        tuple(VALID if ok else INVALID for ok in verdicts), all(verdicts), None, key.components)


def _check_signature(spki: algs.SubjectPublicKeyInfo,
                     declared_alg: algs.AlgorithmIdentifier | None,
                     message: bytes, signature: bytes,
                     ) -> tuple[str, CompositeVerification | None]:
    """The one signature check behind every verdict: UNSUPPORTED for a key
    algorithm not recognized, else INVALID unless declared_alg is the key's
    and the signature verifies; plus a composite key's per-component
    outcome. No declared_alg (see _outer_alg) matches no key."""
    key = algs.read_spki(spki)
    if key is None:
        return UNSUPPORTED, None
    declared_ok = declared_alg is not None and declared_alg.oid == algs.oid_for(key.spec)
    if key.spec.family != algs.FAMILY_COMPOSITE:
        ok = declared_ok and algs.verify(key.spec, spki.key_bits, message, signature)
        return (VALID if ok else INVALID), None
    if not declared_ok:
        return INVALID, CompositeVerification(
            (), False, declared_alg and "signature algorithm does not match the composite key",
            key.components)
    try:
        sig = algs.CompositeSignatureValue.from_der(signature)
    except DerError:
        return INVALID, CompositeVerification(
            (), False, "signature is not a sequence of bit strings", key.components)
    outcome = composite_verify(key, message, sig)
    return (VALID if outcome.overall else INVALID), outcome


def _outer_alg(cert: CertificateDocument) -> algs.AlgorithmIdentifier | None:
    """The outer signatureAlgorithm, or None when the TBS signature field
    differs from it, which RFC 5280 §4.1.1.2 forbids."""
    return cert.signature_alg if cert.tbs.signature_alg == cert.signature_alg else None


def verify_certificate_signature(
        cert, issuer_spki: algs.SubjectPublicKeyInfo) -> CompositeVerification:
    """Composite check of a certificate's outer signature over tbs_der."""
    _, outcome = _check_signature(issuer_spki, _outer_alg(cert), cert.tbs_der, cert.signature)
    return outcome or CompositeVerification((), False, "issuer key is not a usable composite key")


def _signature_report(spki: algs.SubjectPublicKeyInfo, declared_alg, message: bytes,
                      signature: bytes, notes=(), key="issuer key") -> VerificationReport:
    """_check_signature's verdict as the report of a certificate or request:
    after notes, why the key (so named) or a composite signature went unchecked."""
    native, outcome = _check_signature(spki, declared_alg, message, signature)
    if native == UNSUPPORTED:
        notes += (f"{key} algorithm not recognized",)
    if outcome is None:
        return VerificationReport(native, None, None, notes)
    notes += (outcome.note,) if outcome.note else ()
    return VerificationReport(native, None, outcome.components, notes,
                              composite_parts=outcome.parts)


def verify_certificate(cert: CertificateDocument,
                       issuer_spki: algs.SubjectPublicKeyInfo,
                       at_time: datetime.datetime | None = None,
                       alt_issuer_spki: algs.SubjectPublicKeyInfo | None = None,
                       ) -> VerificationReport:
    """Check every signature path present and report each verdict.

    Never raises: structural problems become report entries. For Catalyst
    certificates with no alt_issuer_spki given, the certificate's own alt
    key is used only when issuer_spki is the certificate's own key (the
    self-signed reading); any other issuer leaves the alternative path
    unsupported."""
    notes: list[str] = []
    now = der.normalize_time(at_time or datetime.datetime.now(datetime.timezone.utc))
    if now < cert.tbs.not_before:
        notes.append("not yet valid")
    if now > cert.tbs.not_after:
        notes.append("expired")
    if cert.tbs.subject == cert.tbs.issuer:
        notes.append("self-signed (subject equals issuer)")
    if cert.tbs.signature_alg != cert.signature_alg:
        notes.append("signature algorithm differs between TBS and certificate")
    report = _signature_report(issuer_spki, _outer_alg(cert), cert.tbs_der, cert.signature,
                               tuple(notes))
    if not cert.has_alt_extensions():
        return report
    alt, note = UNSUPPORTED, "issuer has no alternative key; alternative signature not checked"
    if alt_issuer_spki is not None or issuer_spki == cert.tbs.spki:
        try:
            alt, note = alt_verdict(cert, alt_issuer_spki), None
        except MalformedAltExtension as exc:
            alt, note = INVALID, str(exc)
    chain_notes = report.chain_notes + ((note,) if note else ())
    return report._replace(alt_sig=alt, chain_notes=chain_notes)


def verify_issued(doc: CertificateDocument | CsrDocument,
                  issuer: CertificateDocument | CsrDocument) -> VerificationReport:
    """verify_certificate under the issuer certificate (doc itself for the
    self-signed reading) and its alternative key, if its triple is complete,
    plus delta_sig for a paired base. Never raises for a certificate. A delta
    that fails to rebuild is invalid, one not self-signed goes unchecked; a
    first note says which. A request is checked under its own key alone: its
    issuer must be itself (InvalidParameter otherwise)."""
    if isinstance(doc, CsrDocument):
        if issuer != doc:
            raise InvalidParameter("a request is checked under its own key, not an issuer's")
        return _signature_report(doc.spki, doc.signature_alg, doc.cri_der, doc.signature,
                                 key="key")
    try:
        triple = CatalystExtensionTriple.from_certificate(issuer)
    except MalformedAltExtension:
        triple = None
    report = verify_certificate(doc, issuer.tbs.spki,
                                alt_issuer_spki=triple.alt_spki if triple else None)
    try:
        delta = reconstruct_delta(doc)
    except NoDescriptor:
        return report
    except ReconstructionMismatch as exc:
        verdict, note = INVALID, f"delta certificate: {exc}"
    else:
        if delta.tbs.subject == delta.tbs.issuer:
            return report._replace(delta_sig=VALID)
        verdict, note = None, ("delta certificate is not self-signed; "
                               "its signature was not checked")
    return report._replace(delta_sig=verdict, chain_notes=(note,) + report.chain_notes)


# -- certificate signing requests ---------------------------------------

class CsrDocument(NamedTuple):
    subject: DistinguishedName
    spki: algs.SubjectPublicKeyInfo
    extensions: tuple[ExtensionBlock, ...]
    cri_der: bytes
    signature_alg: algs.AlgorithmIdentifier
    signature: bytes

    def emit(self) -> bytes:
        return _write_signed(self.cri_der, self.signature_alg, self.signature)

    def emit_pem(self) -> str:
        return pem.encode_pem(pem.LABEL_CSR, self.emit())


def _encode_cri(subject: DistinguishedName, spki: algs.SubjectPublicKeyInfo,
                extensions: tuple[ExtensionBlock, ...]) -> bytes:
    attrs = []
    if extensions:
        attrs.append(der.seq(der.oid_value(ATTR_EXTENSION_REQUEST),
                             der.set_of(_encode_extensions(extensions))))
    # attributes ride in an IMPLICIT [0] wrapper, present even when empty
    attributes = der.DerValue(0, cls=der.CONTEXT, constructed=True,
                              children=tuple(attrs))
    return der.encode(der.seq(
        der.integer(0),
        subject.to_der_value(),
        spki.to_der_value(),
        attributes,
    ))


def build_csr(subject: DistinguishedName, keypair: algs.KeyPairRecord,
              extensions=()) -> CsrDocument:
    """PKCS#10 request self-signed with the subject key; verified on build."""
    spki = algs.spki_for_key(keypair)
    extensions = _one_per_type(tuple(extensions))
    cri_der = _encode_cri(subject, spki, extensions)
    signature_alg = algs.signature_algorithm_for(keypair.spec)
    signature = algs.sign(keypair.spec, keypair, cri_der)
    doc = CsrDocument(subject, spki, extensions, cri_der, signature_alg, signature)
    if not verify_csr(doc):
        raise AlgorithmMismatch("freshly built CSR failed self-verification")
    return doc


def _decode_cri(info: der.DerValue):
    """(subject, spki, extensions): the inverse of _encode_cri."""
    info.expect(der.SEQUENCE)
    if len(info.children) < 3:
        raise NotACsr("request info is missing required fields")
    if info.children[0].as_int() != 0:
        raise NotACsr("unsupported request version")
    subject = DistinguishedName.from_der_value(info.children[1])
    spki = algs.SubjectPublicKeyInfo.from_der_value(info.children[2])
    extensions: tuple[ExtensionBlock, ...] = ()
    if len(info.children) > 3:
        attributes = info.children[3]
        if attributes.cls != der.CONTEXT or attributes.tag != 0:
            raise NotACsr("malformed attributes field")
        for attr in attributes.children:
            attr.expect(der.SEQUENCE)
            if len(attr.children) != 2:
                raise NotACsr("request attribute must be a type and a SET of values")
            values = attr.children[1].expect(der.SET)
            if attr.children[0].as_oid() == ATTR_EXTENSION_REQUEST:
                if len(values.children) != 1:
                    raise NotACsr("extensionRequest attribute must hold exactly one value")
                extensions = _decode_extensions(values.children[0])
    return subject, spki, extensions


def parse_csr(data: bytes) -> CsrDocument:
    cri_der, (subject, spki, extensions), signature_alg, signature = _read_signed(
        data, pem.LABEL_CSR, NotACsr, _decode_cri)
    return CsrDocument(subject, spki, extensions, cri_der, signature_alg, signature)


def read_document(data: bytes) -> CertificateDocument | CsrDocument:
    """The certificate in DER or PEM data or, failing that, the request:
    from PEM the first CERTIFICATE block, else the first CERTIFICATE REQUEST
    block; DER that parse_certificate rejects is read as a request, and if
    that fails too, the error of the document whose shape it has stands."""
    label, blob = pem.read_block(data, (pem.LABEL_CERTIFICATE, pem.LABEL_CSR))
    if label == pem.LABEL_CSR:
        return parse_csr(blob)
    try:
        return parse_certificate(blob)
    except (NotACertificate, DerError) as exc:
        if label is not None:
            raise
        error = exc
    try:
        return parse_csr(blob)
    except (NotACsr, DerError) as exc:
        try:  # a request's info: version, then a Name of SETs; a v1 TBS: serial, then algorithm
            version, name = der.decode(blob).children[0].children[:2]
            request_shaped = version.tag == der.INTEGER and all(rdn.tag == der.SET
                                                                for rdn in name.children)
        except (DerError, IndexError, ValueError):
            request_shaped = False
        raise (exc if request_shaped else error) from None


def verify_csr(doc: CsrDocument) -> bool:
    """Whether verify_issued finds the request's self-signature valid."""
    return verify_issued(doc, doc).all_valid


# -- rendering ----------------------------------------------------------

def _format_time(moment: datetime.datetime) -> str:
    return moment.strftime("%b %e %H:%M:%S %Y GMT")


def _describe_spki(spki: algs.SubjectPublicKeyInfo, indent: str) -> list[str]:
    lines = [f"{indent}Algorithm: {algorithm_name(spki.algorithm.oid)}"]
    key = algs.read_spki(spki)
    if key is None:
        lines.append(f"{indent}    (unknown algorithm - view only)")
        lines.append(f"{indent}    Key: {len(spki.key_bits)} bytes")
        return lines
    if key.spec.family == algs.FAMILY_RSA:
        lines[0] += f" ({key.spec.parameter} bit)"
    elif key.spec.family == algs.FAMILY_ECDSA:
        lines[0] += f" (curve {key.spec.parameter})"
    elif key.spec.family == algs.FAMILY_COMPOSITE:
        for i, part in enumerate(key.components, start=1):
            lines.append(f"{indent}    Component {i}: "
                         f"{algorithm_name(part.spki.algorithm.oid)}")
    else:
        lines.append(f"{indent}    Key: {len(spki.key_bits)} bytes")
    return lines


def render_text(cert: CertificateDocument) -> str:
    t = cert.tbs
    lines = [
        "Certificate:",
        "    Data:",
        f"        Version: {t.version + 1} (0x{t.version:x})",
        f"        Serial Number: {t.serial:x}",
        f"        Signature Algorithm: {algorithm_name(t.signature_alg.oid)}",
        f"        Issuer: {t.issuer}",
        "        Validity:",
        f"            Not Before: {_format_time(t.not_before)}",
        f"            Not After : {_format_time(t.not_after)}",
        f"        Subject: {t.subject}",
        "        Subject Public Key Info:",
    ]
    lines.extend(_describe_spki(t.spki, "            "))
    if t.extensions:
        lines.append("        X509v3 Extensions:")
        for ext in t.extensions:
            flag = " critical" if ext.critical else ""
            lines.append(f"            {extension_name(ext.oid)}:{flag}")
            lines.append(f"                ({len(ext.value)} bytes)")

    try:
        triple = CatalystExtensionTriple.from_certificate(cert)
    except MalformedAltExtension as exc:  # the reason pqcli verify gives
        lines.append(f"    Alt Public Key Info: ({exc})")
    else:
        if triple is not None:
            lines.append("    Alt Public Key Info:")
            lines.extend(_describe_spki(triple.alt_spki, "        "))
            lines += ["    Alt Signature:",
                      f"        Algorithm: {algorithm_name(triple.alt_sig_alg.oid)}",
                      f"        Value: {len(triple.alt_sig_value)} bytes"]

    if t.find_extension(EXT_DELTA_CERTIFICATE_DESCRIPTOR):
        lines.append("    Delta Certificate Descriptor: present")

    lines.append(f"    Signature Algorithm: {algorithm_name(cert.signature_alg.oid)}")
    lines.append(f"    Signature: {len(cert.signature)} bytes, "
                 f"{cert.signature[:16].hex()}...")
    return "\n".join(lines) + "\n"


def render_csr_text(doc: CsrDocument) -> str:
    lines = [
        "Certificate Request:",
        f"    Subject: {doc.subject}",
        "    Subject Public Key Info:",
    ]
    lines.extend(_describe_spki(doc.spki, "        "))
    if doc.extensions:
        lines.append("    Requested Extensions:")
        for ext in doc.extensions:
            flag = " critical" if ext.critical else ""
            lines.append(f"        {extension_name(ext.oid)}:{flag}")
    lines.append(f"    Signature Algorithm: {algorithm_name(doc.signature_alg.oid)}")
    lines.append(f"    Signature: {len(doc.signature)} bytes")
    return "\n".join(lines) + "\n"
