"""Exception hierarchy shared across the package.

Every error raised by this package derives from PqcliError so callers can
catch one base class. DER-level decode failures additionally derive from
DerError, which the certificate parser propagates.
"""


class PqcliError(Exception):
    """Base class for all errors raised by this package."""


# --- algorithm registry ---

class UnknownAlgorithm(PqcliError):
    """Algorithm name or OID is not in the registry."""


class InvalidParameter(PqcliError):
    """Algorithm name is known but the parameter token is not valid for it."""


class MalformedSpec(PqcliError):
    """Algorithm spec string violates the grammar (e.g. empty component)."""


class UnsupportedAlgorithm(PqcliError):
    """Registered algorithm with no backing implementation at runtime."""


class KeyMismatch(PqcliError):
    """Private key material does not match the requested algorithm spec."""


# --- DER codec ---

class DerError(PqcliError):
    """Base class for DER encode/decode failures."""


class Truncated(DerError):
    """Input ended inside a tag, length, or content field."""


class NonCanonicalLength(DerError):
    """Length octets violate DER minimal-encoding rules."""


class TrailingBytes(DerError):
    """Well-formed value followed by unconsumed bytes."""


class BadTag(DerError):
    """Malformed tag octets or a tag in a form DER forbids."""


class BadValue(DerError):
    """Content octets violate the canonical-form rule for the tag."""


# --- distinguished names ---

class UnknownAttributeKey(PqcliError):
    """Name attribute key is not in the supported table."""


class EmptyValue(PqcliError):
    """Name attribute has an empty value, or an issuer name has no attribute."""


class UnprintableValue(PqcliError):
    """A string is outside the alphabet of its type: PrintableString or IA5String."""


# --- certificate construction and parsing ---

class DuplicateExtension(PqcliError):
    """Two extensions with the same OID in one certificate or request."""


class InvalidValidity(PqcliError):
    """notBefore does not precede notAfter, or a date is out of range."""


class AlgorithmMismatch(PqcliError):
    """TBS signature algorithm disagrees with the signing key."""


class NotACertificate(PqcliError):
    """Input bytes are not a DER or PEM X.509 certificate."""


class NotACsr(PqcliError):
    """Input bytes are not a DER or PEM PKCS#10 request."""


# --- catalyst hybrid certificates ---

class MalformedAltExtension(PqcliError):
    """Alternative-signature extension triple is incomplete."""


# --- composite keys and signatures ---

class NestedComposite(PqcliError):
    """A composite component is itself composite."""


class TooFewComponents(PqcliError):
    """Composite needs at least two components."""


class TooManyComponents(PqcliError):
    """Composite component count exceeds the supported bound."""


class MissingPrivateKey(PqcliError):
    """Composite signing requested but a component has no private key."""


# --- chameleon paired certificates ---

class NoDescriptor(PqcliError):
    """Base certificate carries no delta certificate descriptor."""


class ReconstructionMismatch(PqcliError):
    """Reconstructed delta certificate fails self-consistency checks."""


class FieldConflict(PqcliError):
    """Delta difference that the descriptor format cannot represent."""


# --- PEM persistence ---

class MalformedPem(PqcliError):
    """PEM armor is damaged (bad base64, mismatched BEGIN/END labels)."""
