"""Strict DER encoder/decoder for the ASN.1 shapes certificates need.

Values are immutable DerValue trees, plain named tuples for speed: the
decoder builds one per TLV, and tuple.__new__ costs a tenth of a frozen
dataclass __init__. The decoder accepts exactly canonical DER: definite
minimal lengths, minimal tag and OID subidentifier encodings,
primitive/constructed form as X.690 prescribes for each universal type, and
canonical BOOLEAN, INTEGER, and BIT STRING content; decode_time reads times
of ASCII digits only (X.690 11.7/11.8). That strictness is what makes
decode/encode a byte-exact round trip, which the hybrid-certificate
pre-image reconstruction depends on.

BER features (indefinite lengths, constructed strings) are rejected, and
so is nesting deeper than MAX_DEPTH.
"""

from __future__ import annotations

import datetime
from typing import NamedTuple

from .errors import (BadTag, BadValue, NonCanonicalLength, Truncated, TrailingBytes,
                     UnprintableValue)
from .oids import ObjectIdentifier

# Tag classes
UNIVERSAL = 0x00
CONTEXT = 0x80

# Universal tag numbers
BOOLEAN = 0x01
INTEGER = 0x02
BIT_STRING = 0x03
OCTET_STRING = 0x04
NULL = 0x05
OID = 0x06
UTF8_STRING = 0x0C
SEQUENCE = 0x10
SET = 0x11
PRINTABLE_STRING = 0x13
IA5_STRING = 0x16
UTC_TIME = 0x17
GENERALIZED_TIME = 0x18

# Universal tags that X.690 requires to be primitive / constructed in DER.
_MUST_BE_PRIMITIVE = frozenset({
    BOOLEAN, INTEGER, BIT_STRING, OCTET_STRING, NULL, OID,
    UTF8_STRING, PRINTABLE_STRING, IA5_STRING, UTC_TIME, GENERALIZED_TIME,
    0x0A,  # ENUMERATED
})
_MUST_BE_CONSTRUCTED = frozenset({SEQUENCE, SET})
# The universal tags whose content _check_primitive_content checks.
_CHECKED_CONTENT = frozenset({BOOLEAN, INTEGER, NULL, BIT_STRING, OID})

# The universal string types as_text reads, each with its codec.
_TEXT_CODECS = {UTF8_STRING: "utf-8", PRINTABLE_STRING: "ascii", IA5_STRING: "ascii"}
# The characters a PrintableString may hold (X.680 41.4)
PRINTABLE_ALPHABET = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 '()+,-./:=?")

# The deepest structure this tool emits, a composite SPKI inside a chameleon
# descriptor inside a certificate, is 13 levels even counted through the
# OCTET and BIT STRINGs that wrap it; each decode of it sees at most 6.
# The cap leaves room for deeper foreign extensions and keeps the recursive
# decoder far from Python's recursion limit.
MAX_DEPTH = 32


class DerValue(NamedTuple):
    """One ASN.1 value: primitive content bytes or constructed children."""

    tag: int
    cls: int = UNIVERSAL
    constructed: bool = False
    content: bytes = b""
    children: tuple["DerValue", ...] = ()

    def __repr__(self) -> str:
        kind = f"tag={self.tag:#x}" if self.cls == UNIVERSAL else f"cls={self.cls:#x},tag={self.tag}"
        if self.constructed:
            return f"DerValue({kind}, children={list(self.children)!r})"
        return f"DerValue({kind}, content={self.content.hex()!r})"

    # -- typed accessors ------------------------------------------------

    def expect(self, tag: int) -> "DerValue":
        if self.tag != tag or self.cls != UNIVERSAL:
            raise BadTag(f"expected tag {tag:#x} (class {UNIVERSAL:#x}), got {self.tag:#x} (class {self.cls:#x})")
        return self

    def as_int(self) -> int:
        self.expect(INTEGER)
        return int.from_bytes(self.content, "big", signed=True)

    def as_bool(self) -> bool:
        self.expect(BOOLEAN)
        return self.content != b"\x00"

    def as_oid(self) -> ObjectIdentifier:
        self.expect(OID)
        return ObjectIdentifier.decode_content(self.content)

    def as_bits(self) -> bytes:
        """BIT STRING payload; only the 0-unused-bits form this tool emits."""
        self.expect(BIT_STRING)
        if not self.content or self.content[0] != 0:
            raise BadValue("expected BIT STRING with zero unused bits")
        return self.content[1:]

    def as_octets(self) -> bytes:
        self.expect(OCTET_STRING)
        return self.content

    def as_text(self) -> str:
        codec = _TEXT_CODECS.get(self.tag) if self.cls == UNIVERSAL else None
        if codec is None:
            raise BadTag(f"not a supported string tag: {self.tag:#x} (class {self.cls:#x})")
        try:
            text = self.content.decode(codec)
        except UnicodeDecodeError as exc:
            raise BadValue(f"string tag {self.tag:#x} is not {codec}: {exc.reason}") from None
        if self.tag == PRINTABLE_STRING and not PRINTABLE_ALPHABET.issuperset(text):
            raise BadValue(f"not a PrintableString: {text!r}")
        return text


# -- constructors -------------------------------------------------------

_new = tuple.__new__  # a DerValue from its five fields, skipping the keyword __new__


def seq(*children: DerValue) -> DerValue:
    return _new(DerValue, (SEQUENCE, UNIVERSAL, True, b"", children))


def set_of(*children: DerValue) -> DerValue:
    return DerValue(SET, constructed=True, children=tuple(children))


def integer(value: int) -> DerValue:
    length = max(1, (value.bit_length() + 8) // 8) if value >= 0 else ((value + 1).bit_length() + 8) // 8 or 1
    return DerValue(INTEGER, content=value.to_bytes(length, "big", signed=True))


def boolean(value: bool) -> DerValue:
    return DerValue(BOOLEAN, content=b"\xff" if value else b"\x00")


def null() -> DerValue:
    return DerValue(NULL)


def oid_value(value: ObjectIdentifier) -> DerValue:
    return _new(DerValue, (OID, UNIVERSAL, False, value.encode_content(), ()))


def octet_string(data: bytes) -> DerValue:
    return DerValue(OCTET_STRING, content=bytes(data))


def bit_string(data: bytes) -> DerValue:
    """BIT STRING of whole octets, the zero-unused-bits form as_bits reads."""
    return DerValue(BIT_STRING, content=b"\x00" + bytes(data))


def utf8(text: str) -> DerValue:
    return DerValue(UTF8_STRING, content=text.encode("utf-8"))


def printable(text: str) -> DerValue:
    if not PRINTABLE_ALPHABET.issuperset(text):
        raise UnprintableValue(f"not a PrintableString: {text!r}")
    return DerValue(PRINTABLE_STRING, content=text.encode("ascii"))


def ia5(text: str) -> DerValue:
    if not text.isascii():
        raise UnprintableValue(f"not an IA5String: {text!r}")
    return DerValue(IA5_STRING, content=text.encode("ascii"))


def explicit(tag: int, child: DerValue) -> DerValue:
    """EXPLICIT context tag wrapping one child."""
    return DerValue(tag, cls=CONTEXT, constructed=True, children=(child,))


def encode_time(moment: datetime.datetime) -> DerValue:
    """UTCTime below 2050, GeneralizedTime from 2050 on (X.509 convention)."""
    moment = normalize_time(moment)
    if 1950 <= moment.year < 2050:
        text = moment.strftime("%y%m%d%H%M%SZ")
        return DerValue(UTC_TIME, content=text.encode("ascii"))
    text = f"{moment.year:04d}{moment:%m%d%H%M%SZ}"  # %Y does not zero-fill year 5
    return DerValue(GENERALIZED_TIME, content=text.encode("ascii"))


def decode_time(value: DerValue) -> datetime.datetime:
    """UTCTime YYMMDDHHMMSSZ or GeneralizedTime YYYYMMDDHHMMSSZ, digits only."""
    if value.cls != UNIVERSAL or value.tag not in (UTC_TIME, GENERALIZED_TIME):
        raise BadTag(f"not a time tag: {value.tag:#x} (class {value.cls:#x})")
    text = value.content
    year_digits = 2 if value.tag == UTC_TIME else 4
    digits = text[:-1]
    try:
        if len(text) != year_digits + 11 or text[-1:] != b"Z" or not digits.isdigit():
            raise ValueError(text)
        year = int(digits[:year_digits])
        if value.tag == UTC_TIME:
            # UTCTime two-digit years: 50..99 -> 19xx, 00..49 -> 20xx
            year += 1900 if year >= 50 else 2000
        fields = [int(digits[i:i + 2]) for i in range(year_digits, len(digits), 2)]
        return datetime.datetime(year, *fields, tzinfo=datetime.timezone.utc)
    except ValueError:
        text = text.decode("ascii", errors="replace")
        raise BadValue(f"malformed time string {text!r}") from None


def normalize_time(moment: datetime.datetime) -> datetime.datetime:
    """UTC, second resolution: the precision the encodings carry."""
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=datetime.timezone.utc)
    return moment.astimezone(datetime.timezone.utc).replace(microsecond=0)


# -- encoding -----------------------------------------------------------

def _encode_tag(value: DerValue) -> bytes:
    first = value.cls | (0x20 if value.constructed else 0)
    if value.tag < 0x1F:
        return bytes([first | value.tag])
    out = [first | 0x1F]
    chunk = [value.tag & 0x7F]
    rest = value.tag >> 7
    while rest:
        chunk.append((rest & 0x7F) | 0x80)
        rest >>= 7
    out.extend(reversed(chunk))
    return bytes(out)


def _encode_length(length: int) -> bytes:
    if length < 0x80:
        return bytes([length])
    payload = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(payload)]) + payload


def encode(value: DerValue) -> bytes:
    """Canonical DER bytes for a DerValue tree."""
    tag, cls, constructed, body, children = value
    if constructed:
        body = b"".join([encode(child) for child in children])
    length = len(body)
    if tag < 0x1F and length < 0x80:
        return bytes((cls | (0x20 if constructed else 0) | tag, length)) + body
    return _encode_tag(value) + _encode_length(length) + body


# -- decoding -----------------------------------------------------------

def _read_tag(data: bytes, pos: int, end: int) -> tuple[int, int, bool, int]:
    if pos >= end:
        raise Truncated("input ends before a tag")
    first = data[pos]
    pos += 1
    cls = first & 0xC0
    constructed = bool(first & 0x20)
    number = first & 0x1F
    if number == 0x1F:
        number = 0
        started = False
        while True:
            if pos >= end:
                raise Truncated("input ends inside a long-form tag")
            byte = data[pos]
            pos += 1
            if not started and byte == 0x80:
                raise BadTag("non-minimal long-form tag")
            started = True
            number = (number << 7) | (byte & 0x7F)
            if number > 0xFFFFFFFF:
                raise BadTag("tag number too large")
            if not byte & 0x80:
                break
        if number < 0x1F:
            raise BadTag("long-form tag for a small tag number")
    return number, cls, constructed, pos


def _read_length(data: bytes, pos: int, end: int) -> tuple[int, int]:
    if pos >= end:
        raise Truncated("input ends before a length")
    first = data[pos]
    pos += 1
    if first < 0x80:
        return first, pos
    count = first & 0x7F
    if count == 0:
        raise NonCanonicalLength("indefinite length is not DER")
    if count == 0x7F:
        raise NonCanonicalLength("reserved length octet 0xFF")
    if pos + count > end:
        raise Truncated("input ends inside a length")
    payload = data[pos:pos + count]
    pos += count
    if payload[0] == 0:
        raise NonCanonicalLength("length has a leading zero octet")
    length = int.from_bytes(payload, "big")
    if length < 0x80:
        raise NonCanonicalLength("long form used for a short length")
    return length, pos


def _check_primitive_content(tag: int, content: bytes) -> None:
    if tag == BOOLEAN:
        if len(content) != 1:
            raise BadValue("BOOLEAN must be one octet")
        if content[0] not in (0x00, 0xFF):
            raise BadValue("BOOLEAN must be 0x00 or 0xFF in DER")
    elif tag == INTEGER:
        if not content:
            raise BadValue("INTEGER with empty content")
        if len(content) > 1:
            if content[0] == 0x00 and content[1] < 0x80:
                raise BadValue("INTEGER has a redundant leading 0x00")
            if content[0] == 0xFF and content[1] >= 0x80:
                raise BadValue("INTEGER has a redundant leading 0xFF")
    elif tag == NULL:
        if content:
            raise BadValue("NULL with content")
    elif tag == BIT_STRING:
        if not content:
            raise BadValue("BIT STRING needs an unused-bits octet")
        unused = content[0]
        if unused > 7:
            raise BadValue("BIT STRING unused-bit count out of range")
        if len(content) == 1 and unused != 0:
            raise BadValue("empty BIT STRING with nonzero unused bits")
        if unused and content[-1] & ((1 << unused) - 1):
            raise BadValue("BIT STRING padding bits must be zero")
    elif tag == OID:
        ObjectIdentifier.decode_content(content)


def _identifier(tag: int, cls: int, constructed: bool) -> tuple[int, int, bool, bool, str | None]:
    """(tag, class, constructed, content checked, refusal) of one identifier:
    the form X.690 prescribes for each universal type, written once."""
    refusal = None
    if cls == UNIVERSAL and constructed and tag in _MUST_BE_PRIMITIVE:
        refusal = f"tag {tag:#x} must be primitive in DER"
    elif cls == UNIVERSAL and not constructed and tag in _MUST_BE_CONSTRUCTED:
        refusal = f"tag {tag:#x} must be constructed"
    checked = cls == UNIVERSAL and not constructed and tag in _CHECKED_CONTENT
    return tag, cls, constructed, checked, refusal


# Each one-octet identifier read once at import; None marks the long form.
_IDENTIFIERS = tuple(
    None if octet & 0x1F == 0x1F else _identifier(octet & 0x1F, octet & 0xC0, octet & 0x20 != 0)
    for octet in range(256))


def _read_value(data: bytes, pos: int, end: int, depth: int = 1) -> tuple[DerValue, int]:
    if depth > MAX_DEPTH:
        raise BadValue(f"nesting deeper than {MAX_DEPTH} levels")
    if pos >= end:
        raise Truncated("input ends before a tag")
    identifier = _IDENTIFIERS[data[pos]]
    if identifier is None:
        number, cls, constructed, pos = _read_tag(data, pos, end)
        identifier = _identifier(number, cls, constructed)
    else:
        pos += 1
    tag, cls, constructed, checked, refusal = identifier
    if pos < end and data[pos] < 0x80:
        length, pos = data[pos], pos + 1
    else:
        length, pos = _read_length(data, pos, end)
    content_end = pos + length
    if content_end > end:
        raise Truncated("content extends past end of input")
    if refusal:
        raise BadTag(refusal)
    if constructed:
        children = []
        while pos < content_end:
            child, pos = _read_value(data, pos, content_end, depth + 1)
            children.append(child)
        return _new(DerValue, (tag, cls, True, b"", tuple(children))), content_end
    content = data[pos:content_end]
    if checked:
        _check_primitive_content(tag, content)
    return _new(DerValue, (tag, cls, False, content, ())), content_end


def decode(data: bytes) -> DerValue:
    """Decode exactly one DER value covering the whole input."""
    data = bytes(data)
    value, pos = _read_value(data, 0, len(data))
    if pos != len(data):
        raise TrailingBytes(f"{len(data) - pos} unconsumed bytes after value")
    return value


def tlv_bounds(data: bytes, pos: int, end: int | None = None) -> tuple[int, int]:
    """(content start, end) of the TLV beginning at pos, without decoding
    it: data[pos:end] is the whole TLV and data[content start:end] its
    content. A TLV running past end (by default, the end of data) raises
    Truncated. Slices signed sub-structures (like a TBS) byte-exactly out
    of a larger encoding.
    """
    end = len(data) if end is None else end
    _, _, _, after_tag = _read_tag(data, pos, end)
    length, after_len = _read_length(data, after_tag, end)
    if after_len + length > end:
        raise Truncated("content extends past end of input")
    return after_len, after_len + length


def wrap_sequence(content: bytes, first_octet: int = 0x30) -> bytes:
    """SEQUENCE header, or the header of the identifier octet first_octet,
    around already-encoded content bytes."""
    return bytes([first_octet]) + _encode_length(len(content)) + content
