"""Object identifiers: value type, content-octet codec, and well-known arcs.

An ObjectIdentifier is a plain immutable tuple of its arcs and the
canonical base-128 content octets DER requires: it equals the plain tuple
of the same pair, and sorts like one. SIGNATURE_ALGORITHMS is the one
catalogue of signature algorithms: each OID-table name algs.Registry
accepts, with its OID and display name. The tables at the bottom name the
OIDs this tool knows about; everything else renders in dotted form.
"""

from __future__ import annotations

from .errors import BadValue, Truncated


class ObjectIdentifier(tuple):
    """An OID built from a dotted string, an iterable of ints, or another
    OID's (arcs, octets) pair: the tuple (arcs, content octets of its DER
    encoding), both set here."""

    __slots__ = ()

    def __new__(cls, value):
        if isinstance(value, str):
            try:
                arcs = tuple(int(part) for part in value.split("."))
            except ValueError:
                raise BadValue(f"not a dotted OID: {value!r}") from None
        else:
            items = tuple(value)
            if items and isinstance(items[0], tuple):   # an OID's own pair: copy, pickle
                items = items[0]                        # and dataclasses.asdict pass it
            arcs = tuple(int(a) for a in items)
        if len(arcs) < 2:
            raise BadValue("OID needs at least two arcs")
        if any(a < 0 for a in arcs):
            raise BadValue("OID arcs must be non-negative")
        if arcs[0] > 2:
            raise BadValue("first OID arc must be 0, 1, or 2")
        if arcs[0] < 2 and arcs[1] >= 40:
            raise BadValue("second OID arc must be < 40 when the first is 0 or 1")
        out = bytearray()
        for arc in (arcs[0] * 40 + arcs[1],) + arcs[2:]:
            chunk = [arc & 0x7F]
            arc >>= 7
            while arc:
                chunk.append((arc & 0x7F) | 0x80)
                arc >>= 7
            out.extend(reversed(chunk))
        return tuple.__new__(cls, (arcs, bytes(out)))

    def dotted(self) -> str:
        return ".".join(map(str, self[0]))

    def __str__(self) -> str:
        return self.dotted()

    def __repr__(self) -> str:
        return f"ObjectIdentifier({self.dotted()!r})"

    def encode_content(self) -> bytes:
        """Content octets of the DER encoding (no tag or length); a decoded
        OID keeps the octets it was read from."""
        return self[1]

    @classmethod
    def decode_content(cls, data: bytes) -> "ObjectIdentifier":
        """Parse content octets; rejects non-minimal base-128 subidentifiers.
        A valid encoding is decoded once per process (see _DECODED)."""
        data = bytes(data)
        known = _DECODED.get(data)
        if known is not None:
            return known
        if not data:
            raise BadValue("empty OID content")
        arcs: list[int] = []
        value = 0
        pending = False
        for byte in data:
            if not pending and byte == 0x80:
                raise BadValue("non-minimal OID subidentifier")
            value = (value << 7) | (byte & 0x7F)
            pending = bool(byte & 0x80)
            if not pending:
                arcs.append(value)
                value = 0
        if pending:
            raise Truncated("OID ends inside a subidentifier")
        first = arcs[0]
        if first < 40:
            head = (0, first)
        elif first < 80:
            head = (1, first - 40)
        else:
            head = (2, first - 80)
        # minimal octets hold valid arcs, so the constructor's checks would pass
        decoded = tuple.__new__(cls, (head + tuple(arcs[1:]), data))
        if len(_DECODED) < _DECODED_LIMIT:
            _DECODED[data] = decoded
        return decoded


# Decoded OIDs by content octets: a certificate's OIDs are decoded twice
# (validated, then read) and repeat across certificates. Insert-only and
# bounded; a rejected encoding is never stored, so it raises every time.
_DECODED: dict[bytes, ObjectIdentifier] = {}
_DECODED_LIMIT = 1024


def oid(dotted: str) -> ObjectIdentifier:
    return ObjectIdentifier(dotted)


# Signature algorithms
SHA256_WITH_RSA = oid("1.2.840.113549.1.1.11")
ECDSA_WITH_SHA256 = oid("1.2.840.10045.4.3.2")
ML_DSA_44 = oid("2.16.840.1.101.3.4.3.17")
ML_DSA_65 = oid("2.16.840.1.101.3.4.3.18")
ML_DSA_87 = oid("2.16.840.1.101.3.4.3.19")
SLH_DSA_SHAKE_128S = oid("2.16.840.1.101.3.4.3.26")
SLH_DSA_SHAKE_128F = oid("2.16.840.1.101.3.4.3.27")
SLH_DSA_SHAKE_192S = oid("2.16.840.1.101.3.4.3.28")
SLH_DSA_SHAKE_192F = oid("2.16.840.1.101.3.4.3.29")
SLH_DSA_SHAKE_256S = oid("2.16.840.1.101.3.4.3.30")
SLH_DSA_SHAKE_256F = oid("2.16.840.1.101.3.4.3.31")
# Interim composite OID used until IANA issues standardized ones
COMPOSITE_INTERIM = oid("1.3.6.1.4.1.18227.2.1")

# OID-table name (an algs spec's oid_name()) -> (OID, display name)
SIGNATURE_ALGORITHMS: dict[str, tuple[ObjectIdentifier, str]] = {
    "rsa": (SHA256_WITH_RSA, "sha256WithRSAEncryption"),
    "ecdsa": (ECDSA_WITH_SHA256, "ecdsa-with-SHA256"),
    "ml-dsa:2": (ML_DSA_44, "ML-DSA-44"),
    "ml-dsa:3": (ML_DSA_65, "ML-DSA-65"),
    "ml-dsa:5": (ML_DSA_87, "ML-DSA-87"),
    "slh-dsa:128s": (SLH_DSA_SHAKE_128S, "SLH-DSA-SHAKE-128s"),
    "slh-dsa:128f": (SLH_DSA_SHAKE_128F, "SLH-DSA-SHAKE-128f"),
    "slh-dsa:192s": (SLH_DSA_SHAKE_192S, "SLH-DSA-SHAKE-192s"),
    "slh-dsa:192f": (SLH_DSA_SHAKE_192F, "SLH-DSA-SHAKE-192f"),
    "slh-dsa:256s": (SLH_DSA_SHAKE_256S, "SLH-DSA-SHAKE-256s"),
    "slh-dsa:256f": (SLH_DSA_SHAKE_256F, "SLH-DSA-SHAKE-256f"),
    "composite": (COMPOSITE_INTERIM, "composite-signature"),
}

# Key algorithms (SubjectPublicKeyInfo)
RSA_ENCRYPTION = oid("1.2.840.113549.1.1.1")
EC_PUBLIC_KEY = oid("1.2.840.10045.2.1")
CURVE_P256 = oid("1.2.840.10045.3.1.7")
CURVE_P384 = oid("1.3.132.0.34")
CURVE_P521 = oid("1.3.132.0.35")

# Name attributes
AT_COMMON_NAME = oid("2.5.4.3")
AT_SERIAL_NUMBER = oid("2.5.4.5")
AT_COUNTRY = oid("2.5.4.6")
AT_LOCALITY = oid("2.5.4.7")
AT_STATE = oid("2.5.4.8")
AT_ORGANIZATION = oid("2.5.4.10")
AT_ORG_UNIT = oid("2.5.4.11")

# Certificate extensions
EXT_SUBJECT_KEY_ID = oid("2.5.29.14")
EXT_KEY_USAGE = oid("2.5.29.15")
EXT_SUBJECT_ALT_NAME = oid("2.5.29.17")
EXT_BASIC_CONSTRAINTS = oid("2.5.29.19")
EXT_EXT_KEY_USAGE = oid("2.5.29.37")
EXT_AUTHORITY_KEY_ID = oid("2.5.29.35")
# Alternative public key / signature extensions (ITU-T X.509 arc)
EXT_SUBJECT_ALT_PUBLIC_KEY_INFO = oid("2.5.29.72")
EXT_ALT_SIGNATURE_ALGORITHM = oid("2.5.29.73")
EXT_ALT_SIGNATURE_VALUE = oid("2.5.29.74")
# Delta certificate descriptor (chameleon base certificates)
EXT_DELTA_CERTIFICATE_DESCRIPTOR = oid("2.16.840.1.114027.80.6.1")
# PKCS#9 extensionRequest attribute for CSRs
ATTR_EXTENSION_REQUEST = oid("1.2.840.113549.1.9.14")

ALGORITHM_NAMES: dict[ObjectIdentifier, str] = {
    **dict(SIGNATURE_ALGORITHMS.values()),
    RSA_ENCRYPTION: "rsaEncryption",
    EC_PUBLIC_KEY: "id-ecPublicKey",
    CURVE_P256: "prime256v1",
    CURVE_P384: "secp384r1",
    CURVE_P521: "secp521r1",
}

EXTENSION_NAMES: dict[ObjectIdentifier, str] = {
    EXT_SUBJECT_KEY_ID: "subjectKeyIdentifier",
    EXT_KEY_USAGE: "keyUsage",
    EXT_SUBJECT_ALT_NAME: "subjectAltName",
    EXT_BASIC_CONSTRAINTS: "basicConstraints",
    EXT_EXT_KEY_USAGE: "extendedKeyUsage",
    EXT_AUTHORITY_KEY_ID: "authorityKeyIdentifier",
    EXT_SUBJECT_ALT_PUBLIC_KEY_INFO: "subjectAltPublicKeyInfo",
    EXT_ALT_SIGNATURE_ALGORITHM: "altSignatureAlgorithm",
    EXT_ALT_SIGNATURE_VALUE: "altSignatureValue",
    EXT_DELTA_CERTIFICATE_DESCRIPTOR: "deltaCertificateDescriptor",
}

def algorithm_name(value: ObjectIdentifier) -> str:
    """Display name for an algorithm OID, falling back to dotted form."""
    name = ALGORITHM_NAMES.get(value)
    return name if name is not None else value.dotted()


def extension_name(value: ObjectIdentifier) -> str:
    name = EXTENSION_NAMES.get(value)
    return name if name is not None else value.dotted()
