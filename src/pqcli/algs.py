"""Algorithm registry: spec grammar, OID mapping, keygen, sign, verify.

The textual spec grammar drives everything: "rsa:2048", "ml-dsa:3",
"slh-dsa:192f", "ecdsa:P-384", and underscore-joined composites like
"ml-dsa_rsa". Each spec resolves through the process's Registry to a
signature algorithm OID; use_registry swaps in a table with overrides read
from a text file, so interim OIDs can be replaced by standardized ones
without a rebuild.

Each algorithm family is one backend in the _FAMILIES table: RSA, ECDSA
and ML-DSA are backed by the cryptography package, SLH-DSA by the
in-package implementation, and composite keys and signatures delegate to
their components' backends; a family's class also holds its spec names
and parameter rule. generate_keypair, sign, verify and the key encodings
dispatch through that table, keyed by the spec's family. The package's own
DER reads and writes every key file, so no process imports cryptography's
serialization package.

Two readers decode a key once and take its spec from it: load_private_key
for a key file and read_spki for a public key, composite keys included. A
caller's spec (keypair_from_private, material_from_public) is only checked.
load_private_key holds every family to one rule (PKCS#8 v1, RFC 5208):
version 0, the privateKeyAlgorithm pqcli writes for that spec, the
privateKey octets and at most a [0] attributes field. A composite container
is a SEQUENCE of such files. Version 1 (RFC 5958) is refused, as
cryptography refuses it; OpenSSL reads it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import os
import types
from dataclasses import dataclass, field
from typing import NamedTuple

from cryptography.exceptions import InvalidSignature, UnsupportedAlgorithm as UnsupportedKeyType
from cryptography.hazmat.bindings._rust import openssl as rust_openssl
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec, padding, rsa

from . import der, oids, slhdsa
from .errors import (
    BadValue,
    DerError,
    InvalidParameter,
    KeyMismatch,
    MalformedSpec,
    MissingPrivateKey,
    NestedComposite,
    PqcliError,
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

# Named curves: the cryptography curve, its OID, and its group order, which
# seeded key generation reduces into.
_CURVES = {
    "P-256": (ec.SECP256R1(), oids.CURVE_P256, 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551),
    "P-384": (ec.SECP384R1(), oids.CURVE_P384, 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFC7634D81F4372DDF581A0DB248B0A77AECEC196ACCC52973),
    "P-521": (ec.SECP521R1(), oids.CURVE_P521, 0x1FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFA51868783BF2F966B7FCC0148F709A5D03BB5C9B8899C47AEBB6FB71E91386409),
}
_CURVE_BY_OID = {oid: name for name, (_, oid, _) in _CURVES.items()}
_CURVE_SPELLINGS = {text: name for name in _CURVES for text in (name, name.replace("-", ""))}

# ML-DSA level -> its name in cryptography's Rust ML-DSA functions, and its
# expanded key size. The Python ML-DSA classes import cryptography's OpenSSL
# backend (7 ms) only to ask if ML-DSA is built in, as the Rust module shows.
_ML_DSA_PRIVATE = {2: ("mldsa44", 2560), 3: ("mldsa65", 4032), 5: ("mldsa87", 4896)}
_ML_DSA_RUST = getattr(rust_openssl, "mldsa", None)

# a stand-in that perfbench/bench_trace.py wraps to count key loads (ROADMAP item 1)
serialization = types.ModuleType("serialization")


@dataclass(frozen=True)  # not a NamedTuple: dataclasses.replace re-runs __post_init__
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
    family = _SPEC_NAMES.get(name)
    if family is None:
        raise UnknownAlgorithm(f"unknown algorithm {name!r}")
    return AlgorithmSpec(family.names[0], family.parameter(param))


# -- registry -----------------------------------------------------------

_DEFAULT_TABLE = {name: value for name, (value, _) in oids.SIGNATURE_ALGORITHMS.items()}

OID_TABLE_ENV = "PQCLI_OID_TABLE"


class Registry:
    """Injective name-to-OID table for signature algorithms.

    Immutable once built; overrides produce a new instance. The reverse
    mapping drives algorithm recognition when parsing certificates, so
    every name is a row of oids.SIGNATURE_ALGORITHMS.
    """

    def __init__(self, table: dict[str, ObjectIdentifier]):
        self._by_name = dict(table)
        self._by_oid: dict[ObjectIdentifier, str] = {}
        for name, value in self._by_name.items():
            if name not in oids.SIGNATURE_ALGORITHMS:
                raise InvalidParameter(
                    f"OID table name {name!r} is not a registry key such as 'ml-dsa:3'")
            if value in self._by_oid:
                raise InvalidParameter(
                    f"OID {value} mapped by both {self._by_oid[value]!r} and {name!r}")
            if value in _KEY_OID_FAMILIES:  # a key under it is read as RSA or ECDSA
                raise InvalidParameter(f"OID {value} mapped by {name!r} is the "
                                       f"{oids.algorithm_name(value)} key algorithm")
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
            try:
                table[name.strip().lower()] = ObjectIdentifier(value.strip())
            except BadValue as exc:
                raise InvalidParameter(f"OID table line {lineno}: {exc}") from None
        return Registry(table)

    @classmethod
    def from_environment(cls, environ=None) -> "Registry":
        """Default table, plus the override file named by PQCLI_OID_TABLE."""
        environ = os.environ if environ is None else environ
        registry = cls.default()
        path = environ.get(OID_TABLE_ENV)
        if path:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except UnicodeDecodeError as exc:
                raise InvalidParameter(f"OID table {path} is not UTF-8 text: {exc}") from None
            registry = registry.with_overrides(text)
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


# The OID table is a deployment setting, one per process: every lookup
# reads it at call time, and use_registry is the one way to replace it.
# Threads share it, so threads must not install different tables at once.
# Key files carry the standard OIDs, as cryptography writes them, from the
# built-in table, _BUILTIN_REGISTRY, built below _KEY_OID_FAMILIES.


def default_registry() -> Registry:
    """The OID table in force: the built-in one unless use_registry
    replaced it."""
    return _registry


@contextlib.contextmanager
def use_registry(table: Registry):
    """Make table the process's OID table inside the with block, then
    restore the previous one."""
    global _registry
    previous, _registry = _registry, table
    try:
        yield
    finally:
        _registry = previous


def oid_for(spec: AlgorithmSpec) -> ObjectIdentifier:
    """Signature algorithm OID for a spec."""
    return _registry.oid_for_name(spec.oid_name())


# -- algorithm identifiers and SPKI -------------------------------------

class AlgorithmIdentifier(NamedTuple):
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


class SubjectPublicKeyInfo(NamedTuple):
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


def signature_algorithm_for(spec: AlgorithmSpec) -> AlgorithmIdentifier:
    """Certificate signature AlgorithmIdentifier for a signing key spec."""
    value = oid_for(spec)
    # Only the RSA PKCS#1 algorithms carry the legacy explicit NULL.
    params = der.null() if spec.family == FAMILY_RSA else None
    return AlgorithmIdentifier(value, params)


@dataclass(frozen=True)  # not a NamedTuple: key stays out of equality
class KeyPairRecord:
    """A key in its encodings, and loaded.

    public holds the algorithm's subjectPublicKey content (PKCS#1 for RSA,
    uncompressed point for ECDSA, raw bytes for the PQC schemes, encoded
    component sequence for composite); private holds the key file. key is
    the signing key private was checked into once: the cryptography object
    for RSA, ECDSA and ML-DSA, the raw secret for SLH-DSA, the component
    material for composite.
    """

    spec: AlgorithmSpec
    public: bytes
    private: bytes = field(repr=False)
    key: object = field(compare=False, repr=False)


def _family(spec: AlgorithmSpec) -> "_Family":
    try:
        return _FAMILIES[spec.family]
    except KeyError:
        raise UnsupportedAlgorithm(spec.family) from None


def spki_for_key(record: KeyPairRecord) -> SubjectPublicKeyInfo:
    """SubjectPublicKeyInfo for a keypair."""
    algorithm = _family(record.spec).spki_algorithm(record.spec)
    return SubjectPublicKeyInfo(algorithm, record.public)


def read_spki(spki: SubjectPublicKeyInfo) -> CompositeComponent | CompositeKeyMaterial | None:
    """The key an SPKI carries, decoded once, with its spec read from it: a
    CompositeComponent for a single key, the CompositeKeyMaterial for a
    composite one. None when the algorithm is unknown, the key is malformed
    or the composite is impossible."""
    def single(s: SubjectPublicKeyInfo) -> CompositeComponent:
        return CompositeComponent(_spec_from_key(s.algorithm, s.key_bits, private=False), s)
    try:
        if _registry.name_for_oid(spki.algorithm.oid) != "composite":
            return single(spki)
        return CompositeKeyMaterial(tuple(
            single(SubjectPublicKeyInfo.from_der_value(c)) for c in _components(spki.key_bits)))
    except PqcliError:
        return None


def _spec_from_key(alg: AlgorithmIdentifier, key: bytes, private: bool) -> AlgorithmSpec:
    """Spec of a single public key (SPKI key bits) or private key (PKCS#8
    privateKey octets). RSA and ECDSA keys carry their own key OID; every
    other key carries its signature OID, a name in the table in force for
    a public key and in the built-in table for a private key."""
    family = _KEY_OID_FAMILIES.get(alg.oid)
    if family is not None:
        return family.spec_from_key(alg, key, private)
    name = (_BUILTIN_REGISTRY if private else _registry).name_for_oid(alg.oid)
    if name is None or name == "composite":
        raise KeyMismatch(f"unrecognized key algorithm {alg.oid}")
    return _parse_single(name)


def generate_keypair(spec: AlgorithmSpec, rng=None) -> KeyPairRecord:
    """Generate a keypair; a seeded rng (randbytes interface) makes it
    deterministic for tests."""
    return _family(spec).keygen(spec, rng)


def load_private_key(data: bytes) -> KeyPairRecord:
    """The record of a key file, with the key loaded and the public key
    recomputed from it. A composite container leads with a SEQUENCE where a
    key file has its version INTEGER."""
    try:
        value = der.decode(data)
        if value.children[:1] and value.children[0][:2] == (der.SEQUENCE, der.UNIVERSAL):
            return CompositeKeyMaterial(tuple(CompositeComponent.of(_read_key(c, der.encode(c)))
                                              for c in value.children)).to_record()
        return _read_key(value, data)
    except (DerError, TooFewComponents, TooManyComponents) as exc:
        raise KeyMismatch(f"cannot decode private key: {exc}") from exc


def _read_key(value: der.DerValue, private: bytes) -> KeyPairRecord:
    """The one check of a decoded key file, the same for every family (see
    the module docstring), then the family's load of the privateKey octets."""
    value.expect(der.SEQUENCE)
    if len(value.children) < 3 or value.children[0][:2] != (der.INTEGER, der.UNIVERSAL):
        raise KeyMismatch("not a one-asymmetric-key structure")
    version, algorithm, octets, *attributes = value.children
    alg = AlgorithmIdentifier.from_der_value(algorithm)
    inner = octets.as_octets()
    if alg.oid in _KEY_OID_FAMILIES:
        inner = _KEY_OID_FAMILIES[alg.oid].read_private(inner)
    spec = _spec_from_key(alg, inner, private=True)
    family = _family(spec)
    try:
        if (version.as_int() != 0 or attributes[1:]
                or attributes and attributes[0][:3] != (0, der.CONTEXT, True)):
            raise ValueError("not a PKCS#8 v1 key")
        if alg != family.private_algorithm(spec):
            raise ValueError("its privateKeyAlgorithm is another key's")
        key = family.load(spec, inner)
    except (DerError, ValueError, UnsupportedKeyType) as exc:
        raise KeyMismatch(f"cannot load private key for {spec}: {exc}") from None
    return KeyPairRecord(spec, family.public_bytes(key), private, key=key)


def keypair_from_private(spec: AlgorithmSpec, private: bytes) -> KeyPairRecord:
    """load_private_key, for a file that must hold a key of spec: the
    caller's spec checks the file and never decides how it is read."""
    record = load_private_key(private)
    if record.spec != spec:
        raise KeyMismatch(f"the private key is {record.spec}, not {spec}")
    return record


def sign(spec: AlgorithmSpec, record: KeyPairRecord | CompositeComponent,
         message: bytes) -> bytes:
    """Signature over message with the key record carries, loaded once
    when the record (or its composite record) was made."""
    if record.spec != spec:
        raise KeyMismatch(f"a {record.spec} key cannot sign as {spec}")
    if record.key is None:
        raise MissingPrivateKey(f"the {spec} record carries no loaded key")
    return _family(spec).sign(spec, record.key, message)


def verify(spec: AlgorithmSpec, public: bytes, message: bytes,
           signature: bytes) -> bool:
    """True iff signature is valid; malformed inputs give False, not errors."""
    family = _family(spec)
    try:
        return family.verify(spec, public, message, signature)
    except (InvalidSignature, ValueError, DerError, KeyMismatch):
        return False


# -- one backend per family ---------------------------------------------

class _Family:
    """One algorithm family: keygen gives a KeyPairRecord, sign uses its
    key, verify may raise on malformed input. A single-key family gives
    its spec names, canonical first, and parameter(text), the canonical
    parameter of the text after the colon, or its default for no text;
    generate(parameter, rng), private_key(key) and load(spec, octets), to
    and from the privateKey octets, and public_bytes(key). A family whose
    keys carry their own key OID sets key_oid and infers specs in spec_from_key."""

    names: tuple[str, ...] = ()
    key_oid: ObjectIdentifier | None = None

    def read_private(self, octets: bytes):
        """The privateKey octets as spec_from_key and load take them."""
        return octets

    def spki_algorithm(self, spec: AlgorithmSpec) -> AlgorithmIdentifier:
        return AlgorithmIdentifier(oid_for(spec))

    def private_algorithm(self, spec: AlgorithmSpec) -> AlgorithmIdentifier:
        """The key OID, or the built-in table's: a table changes no key file."""
        if self.key_oid is not None:
            return self.spki_algorithm(spec)
        return AlgorithmIdentifier(_BUILTIN_REGISTRY.oid_for_name(spec.oid_name()))

    def keygen(self, spec: AlgorithmSpec, rng) -> KeyPairRecord:
        key = self.generate(spec.parameter, rng)
        private = der.seq(der.integer(0), self.private_algorithm(spec).to_der_value(),
                          der.octet_string(self.private_key(key)))
        return KeyPairRecord(spec, self.public_bytes(key), der.encode(private), key=key)


class _CryptographyFamily(_Family):
    """RSA, ECDSA and ML-DSA: the key is a cryptography object, which checks
    it as load_der_private_key would; the key file is the package's DER, as
    cryptography's private_bytes(DER, PKCS8, NoEncryption()) writes it.
    Subclasses also give public_key(spec, public)."""

    sign_args: tuple = ()

    def sign(self, spec, key, message):
        return key.sign(message, *self.sign_args)

    def verify(self, spec, public, message, signature):
        self.public_key(spec, public).verify(signature, message, *self.sign_args)
        return True


class _Rsa(_CryptographyFamily):
    names = (FAMILY_RSA,)
    key_oid = oids.RSA_ENCRYPTION
    sign_args = (padding.PKCS1v15(), hashes.SHA256())

    def parameter(self, text):
        """The modulus size in bits, 1024 to 16384; 2048 by default."""
        try:
            bits = int(text or 2048)
        except ValueError:
            raise InvalidParameter(f"RSA modulus size must be an integer: {text!r}") from None
        if not 1024 <= bits <= 16384:
            raise InvalidParameter(f"RSA modulus size out of range: {bits}")
        return bits

    def generate(self, bits, rng):
        e = 65537
        if rng is None:
            return rsa.generate_private_key(public_exponent=e, key_size=bits)
        p = _deterministic_prime(bits // 2, rng)
        q = _deterministic_prime(bits - bits // 2, rng)
        while q == p:
            q = _deterministic_prime(bits - bits // 2, rng)
        if p < q:
            p, q = q, p
        d = pow(e, -1, (p - 1) * (q - 1))
        return rsa.RSAPrivateNumbers(
            p=p, q=q, d=d,
            dmp1=rsa.rsa_crt_dmp1(d, p),
            dmq1=rsa.rsa_crt_dmq1(d, q),
            iqmp=rsa.rsa_crt_iqmp(p, q),
            public_numbers=rsa.RSAPublicNumbers(e=e, n=p * q),
        ).private_key()

    def private_key(self, key):
        """A two-prime RSAPrivateKey (RFC 8017 A.1.2)."""
        k = key.private_numbers()
        return der.encode(der.seq(*map(der.integer, (
            0, k.public_numbers.n, k.public_numbers.e, k.d, k.p, k.q, k.dmp1, k.dmq1, k.iqmp))))

    def read_private(self, octets):
        """The RSAPrivateKey's fields, decoded once for the spec and the key."""
        return der.decode(octets).expect(der.SEQUENCE).children

    def load(self, spec, fields):
        numbers = [v.as_int() for v in fields]
        if len(numbers) != 9 or numbers[0] != 0 or min(numbers) < 0:
            raise ValueError(f"not a two-prime RSA-{spec.parameter} key")
        _, n, e, d, p, q, dmp1, dmq1, iqmp = numbers
        return rsa.RSAPrivateNumbers(p, q, d, dmp1, dmq1, iqmp,
                                     rsa.RSAPublicNumbers(e, n)).private_key()

    def public_bytes(self, key):
        """The PKCS#1 RSAPublicKey."""
        numbers = key.public_key().public_numbers()
        return der.encode(der.seq(der.integer(numbers.n), der.integer(numbers.e)))

    def public_key(self, spec, public):
        return _decode_pkcs1_public(public).public_key()

    def spki_algorithm(self, spec):
        return AlgorithmIdentifier(self.key_oid, der.null())

    def spec_from_key(self, alg, key, private):
        """The modulus size, from an RSAPrivateKey's fields or an RSAPublicKey."""
        if private:
            if len(key) < 2:
                raise KeyMismatch("RSA private key is missing the modulus")
            modulus = key[1].as_int()
        else:
            modulus = _decode_pkcs1_public(key).n
        return AlgorithmSpec(FAMILY_RSA, modulus.bit_length())


class _Sha256Ecdsa(ec.ECDSA):
    """ec.ECDSA(hashes.SHA256()) as a value: ec.ECDSA.__init__ imports
    cryptography's OpenSSL backend only to vet deterministic signing."""

    algorithm = hashes.SHA256()
    deterministic_signing = False

    def __init__(self) -> None:
        pass


class _Ecdsa(_CryptographyFamily):
    names = (FAMILY_ECDSA, "ec")
    key_oid = oids.EC_PUBLIC_KEY
    sign_args = (_Sha256Ecdsa(),)

    def parameter(self, text):
        """A curve of _CURVES in any case, its dash optional; P-256 by default."""
        curve = _CURVE_SPELLINGS.get(text.upper() or "P-256")
        if curve is None:
            raise InvalidParameter(f"unsupported curve {text!r}")
        return curve

    def generate(self, curve_name, rng):
        curve, _, order = _CURVES[curve_name]
        if rng is None:
            return ec.generate_private_key(curve)
        # Uniform-enough scalar: 8 surplus bytes make the mod bias negligible.
        raw = int.from_bytes(rng.randbytes((order.bit_length() + 7) // 8 + 8), "big")
        return ec.derive_private_key(raw % (order - 1) + 1, curve)

    def private_key(self, key):
        """An ECPrivateKey v1 (RFC 5915): the scalar at the curve's length
        and [1], the point; the curve is the privateKeyAlgorithm's."""
        scalar = key.private_numbers().private_value.to_bytes((key.curve.key_size + 7) // 8, "big")
        return der.encode(der.seq(der.integer(1), der.octet_string(scalar),
                                  der.explicit(1, der.bit_string(self.public_bytes(key)))))

    def load(self, spec, octets):
        """ec.derive_private_key refuses a scalar outside [1, n-1]; a [0]
        must name the spec's curve and a [1] hold the scalar's point."""
        curve, curve_oid, _ = _CURVES[spec.parameter]
        version, scalar, *tagged = der.decode(octets).expect(der.SEQUENCE).children
        if tagged[:1] == [der.explicit(0, der.oid_value(curve_oid))]:
            del tagged[0]
        if (version.as_int() != 1 or len(scalar.as_octets()) != (curve.key_size + 7) // 8
                or len(tagged) > 1 or tagged and tagged[0][:3] != (1, der.CONTEXT, True)):
            raise ValueError(f"not an ECPrivateKey on {spec.parameter}")
        key = ec.derive_private_key(int.from_bytes(scalar.content, "big"), curve)
        if tagged:
            point, = tagged[0].children
            if (self.public_key(spec, point.as_bits()).public_numbers()
                    != key.public_key().public_numbers()):
                raise ValueError("its public point is not the private scalar's")
        return key

    def public_bytes(self, key):
        """The uncompressed X9.62 point."""
        numbers, size = key.public_key().public_numbers(), (key.curve.key_size + 7) // 8
        return b"\x04" + numbers.x.to_bytes(size, "big") + numbers.y.to_bytes(size, "big")

    def public_key(self, spec, public):
        return ec.EllipticCurvePublicKey.from_encoded_point(_CURVES[spec.parameter][0], public)

    def spki_algorithm(self, spec):
        return AlgorithmIdentifier(self.key_oid, der.oid_value(_CURVES[spec.parameter][1]))

    def spec_from_key(self, alg, key, private):
        """The named curve in the key's algorithm parameters."""
        params = alg.parameters
        if params is None or params.tag != der.OID:
            raise KeyMismatch("EC key without a named curve")
        curve = _CURVE_BY_OID.get(params.as_oid())
        if curve is None:
            raise KeyMismatch(f"unsupported curve {params.as_oid()}")
        return AlgorithmSpec(FAMILY_ECDSA, curve)


class _MlDsa(_CryptographyFamily):
    names = (FAMILY_ML_DSA, "mldsa")

    def parameter(self, text):
        """The security level, 2, 3 or 5; 2 by default."""
        try:
            level = int(text or 2)
        except ValueError:
            raise InvalidParameter(f"ML-DSA level must be an integer: {text!r}") from None
        if level not in _ML_DSA_PRIVATE:
            raise InvalidParameter(f"ML-DSA security level must be 2, 3, or 5: {level}")
        return level

    def generate(self, level, rng):
        return _ml_dsa(level, "from_{}_seed_bytes")(
            os.urandom(32) if rng is None else rng.randbytes(32))

    def private_key(self, key):
        """The seed form: seed [0] IMPLICIT OCTET STRING."""
        return der.encode(der.DerValue(0, der.CONTEXT, content=key.private_bytes_raw()))

    def load(self, spec, octets):
        """The seed or both form of draft-ietf-lamps-dilithium-certificates; in
        both, expandedKey must match the seed's key in length, ρ and tr."""
        choice = der.decode(octets)
        if choice[:3] == (0, der.CONTEXT, False):
            return _ml_dsa(spec.parameter, "from_{}_seed_bytes")(choice.content)
        if choice[:2] == (der.OCTET_STRING, der.UNIVERSAL):
            raise KeyMismatch(f"ML-DSA private key for {spec} is an expanded key without its seed")
        seed, expanded = (c.as_octets() for c in choice.expect(der.SEQUENCE).children)
        key = _ml_dsa(spec.parameter, "from_{}_seed_bytes")(seed)
        public = self.public_bytes(key)
        if (len(expanded) != _ML_DSA_PRIVATE[spec.parameter][1]
                or expanded[:32] != public[:32]
                or expanded[64:128] != hashlib.shake_256(public).digest(64)):
            raise KeyMismatch(f"ML-DSA expanded key for {spec} does not match its seed")
        return key

    def public_bytes(self, key):
        return key.public_key().public_bytes_raw()

    def public_key(self, spec, public):
        return _ml_dsa(spec.parameter, "from_{}_public_bytes")(public)


class _SlhDsa(_Family):
    """The in-package SLH-DSA: the key is the raw secret, which is also the
    privateKey octets (FIPS 205: SK.seed, SK.prf, PK.seed, PK.root); its
    trailing half is the public key."""

    names = (FAMILY_SLH_DSA, "slhdsa")

    def parameter(self, text):
        """A parameter set of slhdsa.PARAMETER_SETS, in any case; no default."""
        if not text:
            raise InvalidParameter("SLH-DSA requires an explicit parameter set")
        if text.lower() not in slhdsa.PARAMETER_SETS:
            raise InvalidParameter(f"unknown SLH-DSA parameter set {text!r}")
        return text.lower()

    def generate(self, name, rng):
        ps = slhdsa.PARAMETER_SETS[name]
        return slhdsa.keygen(ps, (os.urandom if rng is None else rng.randbytes)(ps.seed_size))[0]

    def private_key(self, key):
        return key

    def load(self, spec, octets):
        ps = slhdsa.PARAMETER_SETS[spec.parameter]
        if len(octets) != ps.sk_size:
            raise ValueError(f"an SLH-DSA-{ps.name} key has {ps.sk_size} bytes, not {len(octets)}")
        return octets

    def public_bytes(self, key):
        return key[len(key) // 2:]

    def sign(self, spec, key, message):
        return slhdsa.sign(slhdsa.PARAMETER_SETS[spec.parameter], message, key)

    def verify(self, spec, public, message, signature):
        return slhdsa.verify(slhdsa.PARAMETER_SETS[spec.parameter], message, signature, public)


class _Composite(_Family):
    """Several component keys under one OID; every step delegates to the
    components' own families through the same table."""

    def keygen(self, spec, rng):
        return composite_keygen(spec.components, rng).to_record()

    def sign(self, spec, key, message):
        return composite_sign(key, message).der

    def verify(self, spec, public, message, signature):
        verdicts = component_verdicts(material_from_public(spec, public), message,
                                      CompositeSignatureValue.from_der(signature))
        return verdicts is not None and all(verdicts)


_FAMILIES: dict[str, _Family] = {
    FAMILY_RSA: _Rsa(),
    FAMILY_ECDSA: _Ecdsa(),
    FAMILY_ML_DSA: _MlDsa(),
    FAMILY_SLH_DSA: _SlhDsa(),
    FAMILY_COMPOSITE: _Composite(),
}
_KEY_OID_FAMILIES = {f.key_oid: f for f in _FAMILIES.values() if f.key_oid is not None}
_SPEC_NAMES = {name: f for f in _FAMILIES.values() for name in f.names}
_BUILTIN_REGISTRY = Registry.default()
_registry = _BUILTIN_REGISTRY


def _ml_dsa(level: int, function: str):
    """cryptography's Rust ML-DSA function, its {} filled with the level's name."""
    if _ML_DSA_RUST is None:
        raise UnsupportedKeyType("ML-DSA is not supported by this build of cryptography")
    return getattr(_ML_DSA_RUST, function.format(_ML_DSA_PRIVATE[level][0]))


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


# -- composite keys and signatures --------------------------------------
#
# The public key is a SEQUENCE of component SPKIs inside the outer SPKI's
# BIT STRING, the private container a SEQUENCE of the components'
# one-asymmetric-keys, the signature a SEQUENCE of BIT STRINGs in the same
# order. Every component signs the same bytes; verification ANDs them all.

@dataclass(frozen=True)  # not a NamedTuple: key stays out of equality
class CompositeComponent:
    """One component key; key is its loaded signing key, as in
    KeyPairRecord."""

    spec: AlgorithmSpec
    spki: SubjectPublicKeyInfo
    private: bytes | None = field(default=None, repr=False)
    key: object = field(default=None, compare=False, repr=False)

    @classmethod
    def of(cls, record: KeyPairRecord) -> "CompositeComponent":
        return cls(record.spec, spki_for_key(record), record.private, record.key)


@dataclass(frozen=True)  # not a NamedTuple: spec is derived, not an argument
class CompositeKeyMaterial:
    """Ordered component keys treated as one key. Order is fixed at
    generation and preserved byte-exactly through encode/decode."""

    components: tuple[CompositeComponent, ...]
    spec: AlgorithmSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # AlgorithmSpec rejects a wrong component count and nesting.
        object.__setattr__(self, "spec", AlgorithmSpec(
            FAMILY_COMPOSITE, components=tuple(c.spec for c in self.components)))

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

    def to_record(self) -> KeyPairRecord:
        return KeyPairRecord(self.spec, self.public_der(), self.private_der(), key=self)


class CompositeSignatureValue(NamedTuple):
    parts: tuple[bytes, ...]

    @property
    def der(self) -> bytes:
        return der.encode(der.seq(*(der.bit_string(p) for p in self.parts)))

    @classmethod
    def from_der(cls, data: bytes) -> "CompositeSignatureValue":
        return cls(tuple(child.as_bits() for child in _components(data)))


def _components(data: bytes) -> tuple[der.DerValue, ...]:
    """The elements of a composite public key or signature."""
    return der.decode(data).expect(der.SEQUENCE).children


def composite_keygen(specs, rng=None) -> CompositeKeyMaterial:
    spec = AlgorithmSpec(FAMILY_COMPOSITE, components=tuple(specs))
    return CompositeKeyMaterial(tuple(
        CompositeComponent.of(generate_keypair(s, rng)) for s in spec.components))


def material_from_public(spec: AlgorithmSpec, public: bytes) -> CompositeKeyMaterial:
    """read_spki, for a composite public key that must be of spec: the
    caller's spec checks the key and never decides how it is read."""
    material = read_spki(SubjectPublicKeyInfo(_family(spec).spki_algorithm(spec), public))
    if material is None or material.spec != spec:
        raise KeyMismatch(f"the public key is {material.spec if material else 'unreadable'}, "
                          f"not {spec}")
    return material


def material_from_private(spec: AlgorithmSpec, private: bytes) -> CompositeKeyMaterial:
    """The component keys of a composite key file of spec."""
    return keypair_from_private(spec, private).key


def composite_sign(key: CompositeKeyMaterial, message: bytes) -> CompositeSignatureValue:
    """Each component signs the identical message bytes, in order; none
    signs unless every one carries its loaded key."""
    for i, comp in enumerate(key.components):
        if comp.key is None:
            raise MissingPrivateKey(f"component {i} ({comp.spec}) has no private key")
    return CompositeSignatureValue(tuple(sign(c.spec, c, message) for c in key.components))


def component_verdicts(key: CompositeKeyMaterial, message: bytes,
                       sig: CompositeSignatureValue) -> tuple[bool, ...] | None:
    """Each component's verdict on its signature part, in order; None when
    the part count differs from the component count."""
    if len(sig.parts) != len(key.components):
        return None
    return tuple(verify(c.spec, c.spki.key_bits, message, part)
                 for c, part in zip(key.components, sig.parts))


# -- seeded RSA primes --------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SIEVE_BOUND = 1 << 14


@functools.cache
def _sieve_product() -> int:
    """The product of the odd primes 41 <= p < _SIEVE_BOUND (about 23,400
    bits), built on first use."""
    sieve = bytearray([1]) * _SIEVE_BOUND
    for p in range(2, math.isqrt(_SIEVE_BOUND) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, _SIEVE_BOUND, p)))
    return math.prod(p for p in range(41, _SIEVE_BOUND, 2) if sieve[p])


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    # a shared factor below the bound rejects a composite before any pow;
    # a survivor still gets every Miller-Rabin round
    if n >= _SIEVE_BOUND and math.gcd(n, _sieve_product()) != 1:
        return False
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

