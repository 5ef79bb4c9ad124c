"""X.501 distinguished names and the "CN=...,O=..." text syntax for them."""

from __future__ import annotations

import re
from typing import NamedTuple

from . import der
from .errors import (BadTag, BadValue, EmptyValue, InvalidParameter, UnknownAttributeKey,
                     UnprintableValue)
from .oids import (
    AT_COMMON_NAME,
    AT_COUNTRY,
    AT_LOCALITY,
    AT_ORG_UNIT,
    AT_ORGANIZATION,
    AT_SERIAL_NUMBER,
    AT_STATE,
    ObjectIdentifier,
)

# key -> (attribute OID, string tag parse_name gives its value, and the
# bounds on its length in characters from RFC 5280 Appendix A)
_ATTRIBUTES: dict[str, tuple[ObjectIdentifier, int, int, int]] = {
    "CN": (AT_COMMON_NAME, der.UTF8_STRING, 1, 64),
    "C": (AT_COUNTRY, der.PRINTABLE_STRING, 2, 2),
    "ST": (AT_STATE, der.UTF8_STRING, 1, 128),
    "L": (AT_LOCALITY, der.UTF8_STRING, 1, 128),
    "O": (AT_ORGANIZATION, der.UTF8_STRING, 1, 64),
    "OU": (AT_ORG_UNIT, der.UTF8_STRING, 1, 64),
    "SERIALNUMBER": (AT_SERIAL_NUMBER, der.PRINTABLE_STRING, 1, 64),  # X520SerialNumber
}

_KEY_BY_OID = {oid: key for key, (oid, *_) in _ATTRIBUTES.items()}

# the string types DerValue.as_text reads, each with its encoder
_STRINGS = {der.UTF8_STRING: der.utf8, der.PRINTABLE_STRING: der.printable,
            der.IA5_STRING: der.ia5}

# RFC 4514 2.4: these characters anywhere, a leading '#' or space, a trailing space;
# as \XX pairs, NUL and other whitespace at either end, which parse_name strips
_ESCAPED = re.compile(r'["+,;<>\\]|^[# ]| \Z|(\0|^\s|\s\Z)')


def _escape(value: str) -> str:
    """An attribute value as RFC 4514 writes it."""
    return _ESCAPED.sub(lambda c: "".join(f"\\{b:02x}" for b in c[1].encode()) if c[1]
                        else "\\" + c[0], value)


class NameAttribute(NamedTuple):
    oid: ObjectIdentifier
    value: str
    tag: int = der.UTF8_STRING    # UTF8String, PrintableString or IA5String
    joins_previous: bool = False  # shares one RDN (SET) with the attribute before

    @property
    def key(self) -> str:
        return _KEY_BY_OID.get(self.oid, self.oid.dotted())

    @property
    def printable(self) -> bool:
        return self.tag == der.PRINTABLE_STRING


class DistinguishedName(NamedTuple):
    """An ordered sequence of RDNs, flattened; each attribute keeps what a
    byte-exact re-encoding needs: its string tag and its RDN grouping."""

    attributes: tuple[NameAttribute, ...] = ()

    def __str__(self) -> str:
        """RFC 4514 text, but with the RDNs in the order written rather
        than reversed: RDNs joined by ',', a multi-valued RDN's members by '+'."""
        return "".join(f"{'+' if attr.joins_previous else ','}{attr.key}={_escape(attr.value)}"
                       for attr in self.attributes)[1:]

    def to_der_value(self) -> der.DerValue:
        rdns: list[list[der.DerValue]] = []
        for attr in self.attributes:
            if not (attr.joins_previous and rdns):
                rdns.append([])
            rdns[-1].append(der.seq(der.oid_value(attr.oid), _STRINGS[attr.tag](attr.value)))
        return der.seq(*(der.set_of(*rdn) for rdn in rdns))

    @classmethod
    def from_der_value(cls, value: der.DerValue) -> "DistinguishedName":
        value.expect(der.SEQUENCE)
        attrs = []
        for rdn in value.children:
            if not rdn.expect(der.SET).children:
                raise BadValue("empty RDN")  # RFC 5280: SET SIZE (1..MAX)
            for position, atv in enumerate(rdn.children):
                atv.expect(der.SEQUENCE)
                if len(atv.children) != 2:
                    raise BadTag("AttributeTypeAndValue needs type and value")
                oid = atv.children[0].as_oid()
                text_value = atv.children[1]
                attrs.append(NameAttribute(oid, text_value.as_text(), text_value.tag,
                                           joins_previous=position > 0))
        return cls(tuple(attrs))


def parse_name(text: str) -> DistinguishedName:
    """Parse "KEY=VALUE,KEY=VALUE", with str()'s escapes, or OpenSSL's
    "/KEY=VALUE/KEY=VALUE" into a name in the order written; keys are case-insensitive."""
    openssl_form = text.startswith("/")
    attrs = []
    for key, sep, value in _parts(text, openssl_form):
        part, key = key + sep + value, key.strip().upper()
        if not openssl_form:  # a "\" ending an odd run of them keeps the whitespace after it
            part, stripped = part.strip(), value.strip()
            odd = stripped.endswith("\\") and (len(stripped) - len(stripped.rstrip("\\"))) % 2
            value = value.lstrip()[:len(stripped) + 1] if odd else stripped
        if not part:  # an empty attribute, or a trailing "/", names nothing
            continue
        if not sep or key not in _ATTRIBUTES:
            raise UnknownAttributeKey(f"unknown name attribute {key or part!r}")
        if "\\" in value:
            value = _unescape(value, hex_pairs=not openssl_form)
        if not value:
            raise EmptyValue(f"attribute {key} has an empty value")
        oid, tag, shortest, longest = _ATTRIBUTES[key]
        if tag == der.PRINTABLE_STRING and not der.PRINTABLE_ALPHABET.issuperset(value):
            raise UnprintableValue(f"attribute {key} is not a PrintableString: {value!r}")
        if not shortest <= len(value) <= longest:
            bound = f"exactly {longest}" if shortest == longest else f"{shortest} to {longest}"
            raise InvalidParameter(f"attribute {key} must be {bound} characters, not {len(value)}")
        attrs.append(NameAttribute(oid, value, tag))
    return DistinguishedName(tuple(attrs))


# one attribute of the comma form (at the start or after a ",") or of OpenSSL's
# "/KEY=VALUE": the key runs to the first "=", the value to the next unescaped
# "," or "/" or "+". Compiled, and cached by re, on first use, not at import:
# every pqcli process imports this module, and few parse a name.
_PARTS = (r"(?:,|^)([^=,]*)(=?)((?:[^,\\]|\\.)*)", r"/([^=]*)(=?)((?:[^/+\\]|\\.)*)")


def _parts(text: str, openssl_form: bool) -> list[tuple[str, str, str]]:
    """(key, sep, value) of each attribute, as str.partition splits
    "KEY=VALUE", escapes unread. An unescaped "+" in OpenSSL's form would
    add the next attribute to this RDN, which parse_name does not write, so
    it is refused."""
    if not (openssl_form or "\\" in text):  # no escape to step over
        return [part.partition("=") for part in text.split(",")]
    parts, at, match = [], 0, re.compile(_PARTS[openssl_form], re.S).match
    while at < len(text):
        part = match(text, at)
        if part is None:
            found = "a multi-valued RDN ('+')" if text[at] == "+" else "a trailing '\\'"
            raise InvalidParameter(f"-subj holds {found}: {text!r}")
        parts.append(part.groups())
        at = part.end()
    return parts


def _unescape(value: str, hex_pairs: bool) -> str:
    """value with "\\" and the character after it read as that character and,
    with hex_pairs (RFC 4514 2.4), each run of \\XX pairs as the UTF-8 it spells."""
    def read(escape):
        try:
            return escape[1] or bytes.fromhex(escape[0].replace("\\", "")).decode()
        except UnicodeDecodeError:
            raise InvalidParameter(f"{escape[0]} in -subj is not UTF-8") from None
    pairs = r"(?:\\[0-9A-Fa-f]{2})+|" if hex_pairs else ""
    return re.sub(pairs + r"\\(.)", read, value, flags=re.S)
