"""Composite keys and signatures: several algorithms fused into one SPKI
and one signature value under a single umbrella OID.

A composite public key is a DER SEQUENCE of component SubjectPublicKeyInfo
structures riding in the outer SPKI's BIT STRING; a composite signature is
a DER SEQUENCE of BIT STRINGs in matching order. Every component signs the
identical message bytes and verification is a strict AND over components.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import algs, der, x509
from .errors import (
    DerError,
    KeyMismatch,
    MissingPrivateKey,
    NestedComposite,
    TooFewComponents,
    TooManyComponents,
)


@dataclass(frozen=True)
class CompositeComponent:
    """One component key; key is its loaded signing key, as in
    algs.KeyPairRecord."""

    spec: algs.AlgorithmSpec
    spki: algs.SubjectPublicKeyInfo
    private: bytes | None = field(default=None, repr=False)
    key: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CompositeKeyMaterial:
    """Ordered component keys treated as one key. Order is fixed at
    generation and preserved byte-exactly through encode/decode."""

    components: tuple[CompositeComponent, ...]

    def __post_init__(self):
        _check_component_count(len(self.components))
        if any(c.spec.family == algs.FAMILY_COMPOSITE for c in self.components):
            raise NestedComposite("composite components must not be composite")

    @property
    def spec(self) -> algs.AlgorithmSpec:
        return algs.AlgorithmSpec(
            algs.FAMILY_COMPOSITE,
            components=tuple(c.spec for c in self.components))

    def public_der(self) -> bytes:
        """The outer SPKI's subject_public_key content."""
        return der.encode(der.seq(*(c.spki.to_der_value() for c in self.components)))

    def private_der(self) -> bytes:
        parts = []
        for i, comp in enumerate(self.components):
            if comp.private is None:
                raise MissingPrivateKey(f"component {i} ({comp.spec}) has no private key")
            parts.append(comp.private)
        return der.wrap_sequence(b"".join(parts))

    def outer_spki(self, registry: algs.Registry | None = None) -> algs.SubjectPublicKeyInfo:
        return algs.spki_for_key(self.spec, self.public_der(), registry)

    def to_record(self) -> algs.KeyPairRecord:
        return algs.KeyPairRecord(self.spec, self.public_der(), self.private_der(),
                                  key=self)


@dataclass(frozen=True)
class CompositeSignatureValue:
    parts: tuple[bytes, ...]

    @property
    def der(self) -> bytes:
        return der.encode(der.seq(*(der.bit_string(p) for p in self.parts)))

    @classmethod
    def from_der(cls, data: bytes) -> "CompositeSignatureValue":
        value = der.decode(data)
        value.expect(der.SEQUENCE)
        return cls(tuple(child.as_bits() for child in value.children))


@dataclass(frozen=True)
class CompositeVerification:
    """Per-component verdicts plus the AND over them. A structural problem
    (count mismatch, undecodable key or signature) leaves components empty
    and carries an explanatory note."""

    components: tuple[str, ...]
    overall: bool
    note: str | None = None


def _check_component_count(count: int) -> None:
    if count < 2:
        raise TooFewComponents("composite needs at least two components")
    if count > algs.MAX_COMPOSITE_COMPONENTS:
        raise TooManyComponents(
            f"composite supports at most {algs.MAX_COMPOSITE_COMPONENTS} components")


def composite_keygen(specs, rng=None,
                     registry: algs.Registry | None = None) -> CompositeKeyMaterial:
    specs = tuple(specs)
    _check_component_count(len(specs))
    if any(s.family == algs.FAMILY_COMPOSITE for s in specs):
        raise NestedComposite("composite components must not be composite")
    components = []
    for spec in specs:
        record = algs.generate_keypair(spec, rng, registry)
        components.append(CompositeComponent(
            spec, algs.spki_for_key(record, registry=registry), record.private,
            record.key))
    return CompositeKeyMaterial(tuple(components))


def material_from_public(spec: algs.AlgorithmSpec, public: bytes,
                         registry: algs.Registry | None = None) -> CompositeKeyMaterial:
    """Decode the component-SPKI sequence; verification-only material."""
    value = der.decode(public)
    value.expect(der.SEQUENCE)
    if len(value.children) != len(spec.components):
        raise KeyMismatch(
            f"public key has {len(value.children)} components, spec has "
            f"{len(spec.components)}")
    components = []
    for comp_spec, child in zip(spec.components, value.children):
        spki = algs.SubjectPublicKeyInfo.from_der_value(child)
        components.append(CompositeComponent(comp_spec, spki, None))
    return CompositeKeyMaterial(tuple(components))


def material_from_private(spec: algs.AlgorithmSpec, private: bytes,
                          registry: algs.Registry | None = None) -> CompositeKeyMaterial:
    """Decode the private container, loading each component key once and
    recomputing its public key."""
    value = der.decode(private)
    value.expect(der.SEQUENCE)
    if len(value.children) != len(spec.components):
        raise KeyMismatch(
            f"private container has {len(value.children)} components, spec has "
            f"{len(spec.components)}")
    components = []
    for comp_spec, child in zip(spec.components, value.children):
        child.expect(der.SEQUENCE)
        record = algs.keypair_from_private(comp_spec, der.encode(child))
        components.append(CompositeComponent(
            comp_spec, algs.spki_for_key(record, registry=registry),
            record.private, record.key))
    return CompositeKeyMaterial(tuple(components))


def composite_sign(key: CompositeKeyMaterial, message: bytes) -> CompositeSignatureValue:
    """Each component signs the identical message bytes, in order."""
    parts = []
    for i, comp in enumerate(key.components):
        if comp.private is None:
            raise MissingPrivateKey(f"component {i} ({comp.spec}) has no private key")
        parts.append(algs.sign(comp.spec, comp, message))
    return CompositeSignatureValue(tuple(parts))


def composite_verify(key: CompositeKeyMaterial, message: bytes,
                     sig: CompositeSignatureValue) -> CompositeVerification:
    if len(sig.parts) != len(key.components):
        return CompositeVerification(
            (), False,
            f"signature has {len(sig.parts)} parts for {len(key.components)} components")
    verdicts = tuple(
        x509.VALID if algs.verify(comp.spec, comp.spki.key_bits, message, part)
        else x509.INVALID
        for comp, part in zip(key.components, sig.parts))
    return CompositeVerification(verdicts, all(v == x509.VALID for v in verdicts))


def verify_raw(spec: algs.AlgorithmSpec, public: bytes, message: bytes,
               signature: bytes) -> bool:
    """Boolean composite verification over encoded key and signature."""
    try:
        material = material_from_public(spec, public)
        sig = CompositeSignatureValue.from_der(signature)
    except (DerError, KeyMismatch):
        return False
    return composite_verify(material, message, sig).overall


def verify_certificate_signature(cert, issuer_spki: algs.SubjectPublicKeyInfo,
                                 registry: algs.Registry | None = None,
                                 ) -> CompositeVerification:
    """Composite check of a certificate's outer signature over tbs_der."""
    spec = algs.spec_from_spki(issuer_spki, registry)
    if spec is None or spec.family != algs.FAMILY_COMPOSITE:
        return CompositeVerification((), False, "issuer key is not a usable composite key")
    try:
        material = material_from_public(spec, issuer_spki.key_bits, registry)
    except (DerError, KeyMismatch) as exc:
        return CompositeVerification((), False, f"malformed composite public key: {exc}")
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
