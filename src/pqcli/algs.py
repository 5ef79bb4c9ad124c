"""Algorithm registry: spec grammar, OID mapping, keygen, sign, verify.

The textual spec grammar drives everything: "rsa:2048", "ml-dsa:3",
"slh-dsa:192f", "ecdsa:P-384", and underscore-joined composites like
"ml-dsa_rsa". Each spec resolves through a Registry to a signature
algorithm OID; the registry table can be replaced at runtime from a text
file so interim OIDs can be swapped for standardized ones without a
rebuild.

RSA, ECDSA, and ML-DSA primitives are backed by the cryptography package;
SLH-DSA is the in-package implementation. All four are reachable through
the same generate_keypair/sign/verify functions, keyed by spec.
"""

from __future__ import annotations

import datetime
import math
import os
import re
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, mldsa, padding, rsa

from . import der, oids, slhdsa
from .errors import (
    BadValue,
    DerError,
    InvalidParameter,
    KeyMismatch,
    MalformedSpec,
    NestedComposite,
    TooFewComponents,
    TooManyComponents,
    UnknownAlgorithm,
    UnsupportedAlgorithm,
)
from .oids import ObjectIdentifier

FAMILY_RSA = "rsa"
FAMILY_ECDSA = "ecdsa"
FAMILY_ML_DSA = "ml-dsa"
FAMILY_SLH_DSA = "slh-dsa"
FAMILY_COMPOSITE = "composite"

# The umbrella OID covers every composite combination; keep certificates
# from ballooning past what any verifier would accept.
MAX_COMPOSITE_COMPONENTS = 4

_CURVES = {
    "P-256": ec.SECP256R1(),
    "P-384": ec.SECP384R1(),
    "P-521": ec.SECP521R1(),
}
_CURVE_OIDS = {
    "P-256": oids.CURVE_P256,
    "P-384": oids.CURVE_P384,
    "P-521": oids.CURVE_P521,
}
_CURVE_BY_OID = {v: k for k, v in _CURVE_OIDS.items()}

_ML_DSA_PRIVATE = {2: mldsa.MLDSA44PrivateKey, 3: mldsa.MLDSA65PrivateKey, 5: mldsa.MLDSA87PrivateKey}
_ML_DSA_PUBLIC = {2: mldsa.MLDSA44PublicKey, 3: mldsa.MLDSA65PublicKey, 5: mldsa.MLDSA87PublicKey}


@dataclass(frozen=True)
class AlgorithmSpec:
    """A parsed algorithm selection: family plus family-specific parameter."""

    family: str
    parameter: int | str | None = None
    components: tuple["AlgorithmSpec", ...] = ()

    def __post_init__(self):
        if self.family == FAMILY_COMPOSITE:
            if len(self.components) < 2:
                raise TooFewComponents("composite needs at least two components")
            if len(self.components) > MAX_COMPOSITE_COMPONENTS:
                raise TooManyComponents(
                    f"composite supports at most {MAX_COMPOSITE_COMPONENTS} components")
            if any(c.family == FAMILY_COMPOSITE for c in self.components):
                raise NestedComposite("composite components must not be composite")
        elif self.components:
            raise MalformedSpec("only composite specs carry components")

    def render(self) -> str:
        if self.family == FAMILY_COMPOSITE:
            return "_".join(c.render() for c in self.components)
        if self.parameter is None:
            return self.family
        return f"{self.family}:{self.parameter}"

    def oid_name(self) -> str:
        """The registry table key for this spec's signature algorithm."""
        if self.family == FAMILY_COMPOSITE:
            return "composite"
        if self.family in (FAMILY_RSA, FAMILY_ECDSA):
            # One signature OID per family: the digest is fixed (SHA-256)
            # and key size / curve live in the key, not the algorithm.
            return self.family
        return f"{self.family}:{self.parameter}"

    def __str__(self) -> str:
        return self.render()


def parse_alg_spec(text: str) -> AlgorithmSpec:
    """Parse "NAME[:PARAM]" or underscore-joined composite spec text."""
    if not text or not text.strip():
        raise MalformedSpec("empty algorithm spec")
    parts = text.split("_")
    if len(parts) > 1:
        if any(not p.strip() for p in parts):
            raise MalformedSpec(f"empty component in composite spec {text!r}")
        return AlgorithmSpec(FAMILY_COMPOSITE,
                             components=tuple(_parse_single(p) for p in parts))
    return _parse_single(text)


def _parse_single(text: str) -> AlgorithmSpec:
    name, sep, param = text.strip().partition(":")
    name = name.strip().lower()
    param = param.strip()
    if sep and not param:
        raise MalformedSpec(f"trailing ':' in spec {text!r}")

    if name == "rsa":
        if not param:
            return AlgorithmSpec(FAMILY_RSA, 2048)
        try:
            bits = int(param)
        except ValueError:
            raise InvalidParameter(f"RSA modulus size must be an integer: {param!r}") from None
        if not 512 <= bits <= 16384:
            raise InvalidParameter(f"RSA modulus size out of range: {bits}")
        return AlgorithmSpec(FAMILY_RSA, bits)

    if name in ("ec", "ecdsa"):
        if not param:
            return AlgorithmSpec(FAMILY_ECDSA, "P-256")
        curve = param.upper()
        if re.fullmatch(r"P\d+", curve):
            curve = f"P-{curve[1:]}"
        if curve not in _CURVES:
            raise InvalidParameter(f"unsupported curve {param!r}")
        return AlgorithmSpec(FAMILY_ECDSA, curve)

    if name in ("ml-dsa", "mldsa"):
        if not param:
            return AlgorithmSpec(FAMILY_ML_DSA, 2)
        try:
            level = int(param)
        except ValueError:
            raise InvalidParameter(f"ML-DSA level must be an integer: {param!r}") from None
        if level not in (2, 3, 5):
            raise InvalidParameter(f"ML-DSA security level must be 2, 3, or 5: {level}")
        return AlgorithmSpec(FAMILY_ML_DSA, level)

    if name in ("slh-dsa", "slhdsa"):
        if not param:
            raise InvalidParameter("SLH-DSA requires an explicit parameter set")
        ps_name = param.lower()
        if ps_name not in slhdsa.PARAMETER_SETS:
            raise InvalidParameter(f"unknown SLH-DSA parameter set {param!r}")
        return AlgorithmSpec(FAMILY_SLH_DSA, ps_name)

    raise UnknownAlgorithm(f"unknown algorithm {name!r}")


# -- registry -----------------------------------------------------------

_DEFAULT_TABLE: dict[str, ObjectIdentifier] = {
    "rsa": oids.SHA256_WITH_RSA,
    "ecdsa": oids.ECDSA_WITH_SHA256,
    "ml-dsa:2": oids.ML_DSA_44,
    "ml-dsa:3": oids.ML_DSA_65,
    "ml-dsa:5": oids.ML_DSA_87,
    "slh-dsa:128s": oids.SLH_DSA_SHAKE_128S,
    "slh-dsa:128f": oids.SLH_DSA_SHAKE_128F,
    "slh-dsa:192s": oids.SLH_DSA_SHAKE_192S,
    "slh-dsa:192f": oids.SLH_DSA_SHAKE_192F,
    "slh-dsa:256s": oids.SLH_DSA_SHAKE_256S,
    "slh-dsa:256f": oids.SLH_DSA_SHAKE_256F,
    "composite": oids.COMPOSITE_INTERIM,
}

OID_TABLE_ENV = "PQCLI_OID_TABLE"


class Registry:
    """Injective name-to-OID table for signature algorithms.

    Immutable once built; overrides produce a new instance. The reverse
    mapping drives algorithm recognition when parsing certificates.
    """

    def __init__(self, table: dict[str, ObjectIdentifier]):
        self._by_name = dict(table)
        self._by_oid: dict[ObjectIdentifier, str] = {}
        for name, value in self._by_name.items():
            if value in self._by_oid:
                raise InvalidParameter(
                    f"OID {value} mapped by both {self._by_oid[value]!r} and {name!r}")
            self._by_oid[value] = name

    @classmethod
    def default(cls) -> "Registry":
        return cls(_DEFAULT_TABLE)

    def with_overrides(self, text: str) -> "Registry":
        """Apply `name = dotted.oid` lines on top of this table."""
        table = dict(self._by_name)
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, sep, value = line.partition("=")
            if not sep:
                raise InvalidParameter(f"OID table line {lineno}: expected name = oid")
            table[name.strip().lower()] = ObjectIdentifier(value.strip())
        return Registry(table)

    @classmethod
    def from_environment(cls, environ=None) -> "Registry":
        """Default table, plus the override file named by PQCLI_OID_TABLE."""
        environ = os.environ if environ is None else environ
        registry = cls.default()
        path = environ.get(OID_TABLE_ENV)
        if path:
            with open(path, "r", encoding="utf-8") as handle:
                registry = registry.with_overrides(handle.read())
        return registry

    def oid_for_name(self, name: str) -> ObjectIdentifier:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAlgorithm(f"no OID registered for {name!r}") from None

    def name_for_oid(self, value: ObjectIdentifier) -> str | None:
        return self._by_oid.get(value)

    def names(self) -> tuple[str, ...]:
        return tuple(self._by_name)


_default_registry = Registry.default()


def default_registry() -> Registry:
    return _default_registry


def oid_for(spec: AlgorithmSpec, registry: Registry | None = None) -> ObjectIdentifier:
    """Signature algorithm OID for a spec."""
    registry = registry or _default_registry
    return registry.oid_for_name(spec.oid_name())


# -- algorithm identifiers and SPKI -------------------------------------

@dataclass(frozen=True)
class AlgorithmIdentifier:
    oid: ObjectIdentifier
    parameters: der.DerValue | None = None

    def to_der_value(self) -> der.DerValue:
        children = [der.oid_value(self.oid)]
        if self.parameters is not None:
            children.append(self.parameters)
        return der.seq(*children)

    @classmethod
    def from_der_value(cls, value: der.DerValue) -> "AlgorithmIdentifier":
        value.expect(der.SEQUENCE)
        if not 1 <= len(value.children) <= 2:
            raise BadValue("AlgorithmIdentifier needs 1 or 2 fields")
        params = value.children[1] if len(value.children) == 2 else None
        return cls(value.children[0].as_oid(), params)


@dataclass(frozen=True)
class SubjectPublicKeyInfo:
    algorithm: AlgorithmIdentifier
    key_bits: bytes

    def to_der_value(self) -> der.DerValue:
        return der.seq(self.algorithm.to_der_value(), der.bit_string(self.key_bits))

    @property
    def der(self) -> bytes:
        return der.encode(self.to_der_value())

    @classmethod
    def from_der_value(cls, value: der.DerValue) -> "SubjectPublicKeyInfo":
        value.expect(der.SEQUENCE)
        if len(value.children) != 2:
            raise BadValue("SubjectPublicKeyInfo needs algorithm and key")
        return cls(AlgorithmIdentifier.from_der_value(value.children[0]),
                   value.children[1].as_bits())

    @classmethod
    def from_der(cls, data: bytes) -> "SubjectPublicKeyInfo":
        return cls.from_der_value(der.decode(data))


def signature_algorithm_for(spec: AlgorithmSpec,
                            registry: Registry | None = None) -> AlgorithmIdentifier:
    """Certificate signature AlgorithmIdentifier for a signing key spec."""
    value = oid_for(spec, registry)
    # Only the RSA PKCS#1 algorithms carry the legacy explicit NULL.
    params = der.null() if spec.family == FAMILY_RSA else None
    return AlgorithmIdentifier(value, params)


@dataclass(frozen=True)
class KeyPairRecord:
    """Generated key material in transportable encodings.

    public holds the algorithm's subjectPublicKey content (PKCS#1 for RSA,
    uncompressed point for ECDSA, raw bytes for the PQC schemes, encoded
    component sequence for composite); private holds a one-asymmetric-key
    structure (or the composite container). key is the signing key that
    private was parsed and checked into once: the cryptography object for
    RSA, ECDSA and ML-DSA, the raw secret for SLH-DSA, the component
    material for composite. A record built without it loads private on
    every signature.
    """

    spec: AlgorithmSpec
    public: bytes
    private: bytes = field(repr=False)
    created_at: datetime.datetime = field(
        default_factory=lambda: datetime.datetime.now(datetime.timezone.utc),
        compare=False)
    key: object = field(default=None, compare=False, repr=False)


def spki_for_key(record_or_spec, public: bytes | None = None,
                 registry: Registry | None = None) -> SubjectPublicKeyInfo:
    """SubjectPublicKeyInfo for a keypair (or bare spec + public bytes)."""
    if isinstance(record_or_spec, KeyPairRecord):
        spec, public = record_or_spec.spec, record_or_spec.public
    else:
        spec = record_or_spec
        if public is None:
            raise InvalidParameter("public bytes required with a bare spec")
    registry = registry or _default_registry

    if spec.family == FAMILY_RSA:
        alg = AlgorithmIdentifier(oids.RSA_ENCRYPTION, der.null())
    elif spec.family == FAMILY_ECDSA:
        alg = AlgorithmIdentifier(oids.EC_PUBLIC_KEY,
                                  der.oid_value(_CURVE_OIDS[spec.parameter]))
    elif spec.family in (FAMILY_ML_DSA, FAMILY_SLH_DSA, FAMILY_COMPOSITE):
        alg = AlgorithmIdentifier(oid_for(spec, registry))
    else:
        raise UnsupportedAlgorithm(spec.family)
    return SubjectPublicKeyInfo(alg, public)


def spec_from_spki(spki: SubjectPublicKeyInfo,
                   registry: Registry | None = None) -> AlgorithmSpec | None:
    """Infer the algorithm spec a public key belongs to; None if unknown."""
    registry = registry or _default_registry
    alg_oid = spki.algorithm.oid

    if alg_oid == oids.RSA_ENCRYPTION:
        try:
            numbers = _decode_pkcs1_public(spki.key_bits)
        except DerError:
            return None
        return AlgorithmSpec(FAMILY_RSA, numbers.n.bit_length())
    if alg_oid == oids.EC_PUBLIC_KEY:
        params = spki.algorithm.parameters
        if params is None or params.tag != der.OID:
            return None
        curve = _CURVE_BY_OID.get(params.as_oid())
        return AlgorithmSpec(FAMILY_ECDSA, curve) if curve else None

    name = registry.name_for_oid(alg_oid)
    if name is None:
        return None
    if name == "composite":
        try:
            inner = der.decode(spki.key_bits)
            inner.expect(der.SEQUENCE)
            children = [spec_from_spki(SubjectPublicKeyInfo.from_der_value(c), registry)
                        for c in inner.children]
        except DerError:
            return None
        if any(c is None for c in children):
            return None
        try:
            return AlgorithmSpec(FAMILY_COMPOSITE, components=tuple(children))
        except (TooFewComponents, TooManyComponents, NestedComposite):
            return None
    family, _, param = name.partition(":")
    if family == FAMILY_ML_DSA:
        return AlgorithmSpec(FAMILY_ML_DSA, int(param))
    if family == FAMILY_SLH_DSA:
        return AlgorithmSpec(FAMILY_SLH_DSA, param)
    if family == FAMILY_RSA:
        # Overridden table entry pointing the RSA signature OID elsewhere.
        return AlgorithmSpec(FAMILY_RSA, 2048)
    if family == FAMILY_ECDSA:
        return AlgorithmSpec(FAMILY_ECDSA, "P-256")
    return None


# -- key generation -----------------------------------------------------

class _SystemRng:
    """Minimal random-source interface over the OS entropy pool."""

    @staticmethod
    def randbytes(n: int) -> bytes:
        return os.urandom(n)


def generate_keypair(spec: AlgorithmSpec, rng=None,
                     registry: Registry | None = None) -> KeyPairRecord:
    """Generate a keypair; a seeded rng (randbytes interface) makes it
    deterministic for tests."""
    if spec.family == FAMILY_COMPOSITE:
        from . import composite
        material = composite.composite_keygen(list(spec.components), rng, registry)
        return material.to_record()

    if spec.family == FAMILY_SLH_DSA:
        ps = slhdsa.PARAMETER_SETS[spec.parameter]
        seed = (rng or _SystemRng).randbytes(ps.seed_size)
        sk, public = slhdsa.keygen(ps, seed)
        private = _encode_one_asymmetric_key(oid_for(spec, registry), sk)
        return KeyPairRecord(spec, public, private, key=sk)
    if spec.family == FAMILY_RSA:
        if rng is None:
            key = rsa.generate_private_key(public_exponent=65537, key_size=spec.parameter)
        else:
            key = _deterministic_rsa(spec.parameter, rng)
    elif spec.family == FAMILY_ECDSA:
        curve = _CURVES[spec.parameter]
        key = ec.generate_private_key(curve) if rng is None else _deterministic_ec(curve, rng)
    elif spec.family == FAMILY_ML_DSA:
        cls = _ML_DSA_PRIVATE[spec.parameter]
        key = cls.generate() if rng is None else cls.from_seed_bytes(rng.randbytes(32))
    else:
        raise UnsupportedAlgorithm(spec.family)
    return KeyPairRecord(spec, _public_bytes(key), _pkcs8(key), key=key)


def _pkcs8(key) -> bytes:
    return key.private_bytes(serialization.Encoding.DER,
                             serialization.PrivateFormat.PKCS8,
                             serialization.NoEncryption())


def _encode_one_asymmetric_key(alg_oid: ObjectIdentifier, key_bytes: bytes) -> bytes:
    return der.encode(der.seq(
        der.integer(0),
        AlgorithmIdentifier(alg_oid).to_der_value(),
        der.octet_string(key_bytes),
    ))


def _decode_one_asymmetric_key(data: bytes) -> tuple[ObjectIdentifier, bytes]:
    value = der.decode(data)
    value.expect(der.SEQUENCE)
    if len(value.children) < 3:
        raise BadValue("one-asymmetric-key needs version, algorithm, key")
    alg = AlgorithmIdentifier.from_der_value(value.children[1])
    return alg.oid, value.children[2].as_octets()


def _deterministic_ec(curve, rng) -> ec.EllipticCurvePrivateKey:
    # Uniform-enough scalar: 8 surplus bytes make the mod bias negligible.
    order = _EC_ORDERS[curve.name]
    raw = int.from_bytes(rng.randbytes((order.bit_length() + 7) // 8 + 8), "big")
    return ec.derive_private_key(raw % (order - 1) + 1, curve)


_EC_ORDERS = {
    "secp256r1": 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
    "secp384r1": 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFC7634D81F4372DDF581A0DB248B0A77AECEC196ACCC52973,
    "secp521r1": 0x1FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFA51868783BF2F966B7FCC0148F709A5D03BB5C9B8899C47AEBB6FB71E91386409,
}

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _deterministic_prime(bits: int, rng) -> int:
    while True:
        candidate = int.from_bytes(rng.randbytes((bits + 7) // 8), "big")
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        candidate &= (1 << bits) - 1
        if math.gcd(candidate - 1, 65537) != 1:
            continue
        if _is_probable_prime(candidate):
            return candidate


def _deterministic_rsa(bits: int, rng) -> rsa.RSAPrivateKey:
    e = 65537
    p = _deterministic_prime(bits // 2, rng)
    q = _deterministic_prime(bits - bits // 2, rng)
    while q == p:
        q = _deterministic_prime(bits - bits // 2, rng)
    if p < q:
        p, q = q, p
    n = p * q
    d = pow(e, -1, (p - 1) * (q - 1))
    numbers = rsa.RSAPrivateNumbers(
        p=p, q=q, d=d,
        dmp1=rsa.rsa_crt_dmp1(d, p),
        dmq1=rsa.rsa_crt_dmq1(d, q),
        iqmp=rsa.rsa_crt_iqmp(p, q),
        public_numbers=rsa.RSAPublicNumbers(e=e, n=n),
    )
    return numbers.private_key()


def _public_bytes(key) -> bytes:
    """subjectPublicKey content of a cryptography private key object."""
    if isinstance(key, rsa.RSAPrivateKey):
        return key.public_key().public_bytes(
            serialization.Encoding.DER, serialization.PublicFormat.PKCS1)
    if isinstance(key, ec.EllipticCurvePrivateKey):
        return key.public_key().public_bytes(
            serialization.Encoding.X962, serialization.PublicFormat.UncompressedPoint)
    return key.public_key().public_bytes_raw()


def keypair_from_private(spec: AlgorithmSpec, private: bytes,
                         registry: Registry | None = None) -> KeyPairRecord:
    """Parse and check an encoded private key of a known spec, once: the
    record holds the loaded key and the public key recomputed from it."""
    if spec.family == FAMILY_COMPOSITE:
        from . import composite
        return composite.material_from_private(spec, private, registry).to_record()
    if spec.family == FAMILY_SLH_DSA:
        ps = slhdsa.PARAMETER_SETS[spec.parameter]
        _, sk = _slh_private(private, ps)
        # trailing half of the secret is the public key
        return KeyPairRecord(spec, sk[2 * ps.n:], private, key=sk)
    if spec.family == FAMILY_RSA:
        key = _load_private(private, rsa.RSAPrivateKey, spec)
    elif spec.family == FAMILY_ECDSA:
        key = _load_private(private, ec.EllipticCurvePrivateKey, spec)
    elif spec.family == FAMILY_ML_DSA:
        key = _load_private(private, _ML_DSA_PRIVATE[spec.parameter], spec)
    else:
        raise UnsupportedAlgorithm(spec.family)
    return KeyPairRecord(spec, _public_bytes(key), private, key=key)


def _spec_from_one_asymmetric_key(value: der.DerValue,
                                  registry: Registry) -> AlgorithmSpec:
    if len(value.children) < 3 or value.children[0].tag != der.INTEGER:
        raise KeyMismatch("not a one-asymmetric-key structure")
    alg = AlgorithmIdentifier.from_der_value(value.children[1])
    if alg.oid == oids.RSA_ENCRYPTION:
        inner = der.decode(value.children[2].as_octets())
        inner.expect(der.SEQUENCE)
        if len(inner.children) < 2:
            raise KeyMismatch("RSA private key is missing the modulus")
        return AlgorithmSpec(FAMILY_RSA, inner.children[1].as_int().bit_length())
    if alg.oid == oids.EC_PUBLIC_KEY:
        params = alg.parameters
        if params is None or params.tag != der.OID:
            raise KeyMismatch("EC private key without a named curve")
        curve = _CURVE_BY_OID.get(params.as_oid())
        if curve is None:
            raise KeyMismatch(f"unsupported curve {params.as_oid()}")
        return AlgorithmSpec(FAMILY_ECDSA, curve)
    name = registry.name_for_oid(alg.oid)
    if name:
        family, _, param = name.partition(":")
        if family == FAMILY_ML_DSA:
            return AlgorithmSpec(family, int(param))
        if family == FAMILY_SLH_DSA:
            return AlgorithmSpec(family, param)
    raise KeyMismatch(f"unrecognized private key algorithm {alg.oid}")


def load_private_key(data: bytes,
                     registry: Registry | None = None) -> KeyPairRecord:
    """Rebuild a KeyPairRecord from an encoded private key, inferring the
    spec from the structure. Composite containers are recognized by their
    leading component (a nested SEQUENCE instead of a version INTEGER)."""
    registry = registry or _default_registry
    try:
        value = der.decode(data)
        value.expect(der.SEQUENCE)
        if (value.children and value.children[0].cls == der.UNIVERSAL
                and value.children[0].tag == der.SEQUENCE):
            comps = tuple(_spec_from_one_asymmetric_key(child, registry)
                          for child in value.children)
            spec = AlgorithmSpec(FAMILY_COMPOSITE, components=comps)
        else:
            spec = _spec_from_one_asymmetric_key(value, registry)
        return keypair_from_private(spec, data, registry)
    except DerError as exc:
        raise KeyMismatch(f"cannot decode private key: {exc}") from exc


# -- signing and verification ------------------------------------------

def sign(spec: AlgorithmSpec, private: bytes | KeyPairRecord, message: bytes) -> bytes:
    """Signature over message. private is an encoded private key, loaded
    and checked first, or a KeyPairRecord (or composite component) of this
    spec, whose loaded key signs without any parsing."""
    if isinstance(private, (bytes, bytearray)):
        key = keypair_from_private(spec, bytes(private)).key
    elif private.key is None or private.spec != spec:
        key = keypair_from_private(spec, private.private).key
    else:
        key = private.key
    if spec.family == FAMILY_COMPOSITE:
        from . import composite
        return composite.composite_sign(key, message).der
    if spec.family == FAMILY_RSA:
        return key.sign(message, padding.PKCS1v15(), hashes.SHA256())
    if spec.family == FAMILY_ECDSA:
        return key.sign(message, ec.ECDSA(hashes.SHA256()))
    if spec.family == FAMILY_ML_DSA:
        return key.sign(message)
    if spec.family == FAMILY_SLH_DSA:
        return slhdsa.sign(slhdsa.PARAMETER_SETS[spec.parameter], message, key)
    raise UnsupportedAlgorithm(spec.family)


def _load_private(data: bytes, expected_type, spec: AlgorithmSpec):
    try:
        key = serialization.load_der_private_key(data, password=None)
    except Exception as exc:
        raise KeyMismatch(f"cannot load private key for {spec}: {exc}") from None
    if not isinstance(key, expected_type):
        raise KeyMismatch(f"private key does not match spec {spec}")
    return key


def _slh_private(data: bytes, ps: slhdsa.ParameterSet) -> tuple[ObjectIdentifier, bytes]:
    try:
        alg_oid, sk = _decode_one_asymmetric_key(data)
    except DerError as exc:
        raise KeyMismatch(f"cannot load SLH-DSA private key: {exc}") from None
    if len(sk) != ps.sk_size:
        raise KeyMismatch(
            f"SLH-DSA-{ps.name} private key must be {ps.sk_size} bytes, got {len(sk)}")
    return alg_oid, sk


def verify(spec: AlgorithmSpec, public: bytes, message: bytes,
           signature: bytes) -> bool:
    """True iff signature is valid; malformed inputs give False, not errors."""
    try:
        if spec.family == FAMILY_COMPOSITE:
            from . import composite
            return composite.verify_raw(spec, public, message, signature)
        if spec.family == FAMILY_RSA:
            numbers = _decode_pkcs1_public(public)
            numbers.public_key().verify(signature, message,
                                        padding.PKCS1v15(), hashes.SHA256())
            return True
        if spec.family == FAMILY_ECDSA:
            key = ec.EllipticCurvePublicKey.from_encoded_point(
                _CURVES[spec.parameter], public)
            key.verify(signature, message, ec.ECDSA(hashes.SHA256()))
            return True
        if spec.family == FAMILY_ML_DSA:
            key = _ML_DSA_PUBLIC[spec.parameter].from_public_bytes(public)
            key.verify(signature, message)
            return True
        if spec.family == FAMILY_SLH_DSA:
            return slhdsa.verify(slhdsa.PARAMETER_SETS[spec.parameter],
                                 message, signature, public)
    except (InvalidSignature, ValueError, DerError):
        return False
    raise UnsupportedAlgorithm(spec.family)


def _decode_pkcs1_public(data: bytes) -> rsa.RSAPublicNumbers:
    value = der.decode(data)
    value.expect(der.SEQUENCE)
    if len(value.children) != 2:
        raise BadValue("RSAPublicKey needs modulus and exponent")
    n = value.children[0].as_int()
    e = value.children[1].as_int()
    if n <= 0 or e <= 0:
        raise BadValue("RSA modulus and exponent must be positive")
    return rsa.RSAPublicNumbers(e=e, n=n)
