"""The DER decoder against a reference: a plain recursive reader that
reads every tag and length through one general routine and passes every
universal primitive to the content checks.

Every input, well-formed or mutated, must give an equal tree from both
decoders or raise the same exception class from both. A boundary table
pins the length and tag forms at each edge of their encodings.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqcli import der
from pqcli.der import (
    BIT_STRING,
    BOOLEAN,
    CONTEXT,
    INTEGER,
    MAX_DEPTH,
    NULL,
    OID,
    UNIVERSAL,
    DerValue,
    _MUST_BE_CONSTRUCTED,
    _MUST_BE_PRIMITIVE,
)
from pqcli.errors import BadTag, BadValue, DerError, NonCanonicalLength, TrailingBytes, Truncated
from pqcli.oids import ObjectIdentifier

_SETTINGS = dict(database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


# -- the reference decoder ------------------------------------------------

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


def _read_value(data: bytes, pos: int, end: int, depth: int = 1) -> tuple[DerValue, int]:
    if depth > MAX_DEPTH:
        raise BadValue(f"nesting deeper than {MAX_DEPTH} levels")
    tag, cls, constructed, pos = _read_tag(data, pos, end)
    length, pos = _read_length(data, pos, end)
    if pos + length > end:
        raise Truncated("content extends past end of input")
    content_end = pos + length
    if cls == UNIVERSAL:
        if constructed and tag in _MUST_BE_PRIMITIVE:
            raise BadTag(f"tag {tag:#x} must be primitive in DER")
        if not constructed and tag in _MUST_BE_CONSTRUCTED:
            raise BadTag(f"tag {tag:#x} must be constructed")
    if constructed:
        children = []
        while pos < content_end:
            child, pos = _read_value(data, pos, content_end, depth + 1)
            children.append(child)
        return DerValue(tag, cls=cls, constructed=True, children=tuple(children)), content_end
    content = bytes(data[pos:content_end])
    if cls == UNIVERSAL:
        _check_primitive_content(tag, content)
    return DerValue(tag, cls=cls, content=content), content_end


def decode(data: bytes) -> DerValue:
    """Decode exactly one DER value covering the whole input."""
    value, pos = _read_value(data, 0, len(data))
    if pos != len(data):
        raise TrailingBytes(f"{len(data) - pos} unconsumed bytes after value")
    return value


def _outcome(decoder, blob: bytes):
    """The decoded tree, or the class of the DER error raised."""
    try:
        return decoder(blob)
    except DerError as exc:
        return type(exc)


def _agree(blob: bytes):
    expected = _outcome(decode, blob)
    assert _outcome(der.decode, blob) == expected
    return expected


# -- differential property ----------------------------------------------

# Universal tags with and without content rules, both string kinds, the
# two constructed types (drawn primitive too, which DER forbids), and
# context, application and private tags on both sides of the long form.
_UNIVERSAL_TAGS = (BOOLEAN, INTEGER, BIT_STRING, der.OCTET_STRING, NULL, OID,
                   0x0A, der.UTF8_STRING, der.SEQUENCE, der.SET,
                   der.PRINTABLE_STRING, der.IA5_STRING, der.UTC_TIME,
                   der.GENERALIZED_TIME)
_tags = st.one_of(
    st.tuples(st.sampled_from(_UNIVERSAL_TAGS), st.just(UNIVERSAL)),
    st.tuples(st.integers(0, 0x4000), st.sampled_from((0x40, CONTEXT, 0xC0))),
)
_contents = st.one_of(st.binary(max_size=6), st.binary(min_size=120, max_size=300))
_primitives = st.one_of(
    st.builds(lambda tag, content: DerValue(tag[0], cls=tag[1], content=content),
              _tags, _contents),
    st.builds(der.integer, st.integers(-2**72, 2**72)),
    st.builds(der.boolean, st.booleans()),
    st.builds(lambda arcs: der.oid_value(ObjectIdentifier((1, 3) + tuple(arcs))),
              st.lists(st.integers(0, 2**35), max_size=4)),
)
_trees = st.recursive(
    _primitives,
    lambda kids: st.builds(
        lambda tag, children: DerValue(tag[0], cls=tag[1], constructed=True,
                                       children=tuple(children)),
        _tags, st.lists(kids, max_size=4)),
    max_leaves=12,
)


@st.composite
def _mutated(draw):
    data = bytearray(der.encode(draw(_trees)))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("flip", "insert", "delete", "truncate")))
        if kind == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=3))
        elif kind == "truncate":
            del data[pos:]
        elif pos < len(data):
            if kind == "delete":
                del data[pos]
            else:
                data[pos] ^= draw(st.integers(1, 255))
    return bytes(data)


@settings(max_examples=600, **_SETTINGS)
@given(blob=_mutated())
def test_decoder_agrees_with_the_reference(blob):
    _agree(blob)


@settings(max_examples=300, **_SETTINGS)
@given(tree=_trees)
def test_well_formed_trees_decode_alike(tree):
    blob = der.encode(tree)
    outcome = _agree(blob)
    if isinstance(outcome, DerValue):
        assert outcome == tree and der.encode(outcome) == blob


# -- boundary table -----------------------------------------------------

@pytest.mark.parametrize("length, header", [
    (0, "0400"), (0x7F, "047f"), (0x80, "048180"), (0xFF, "0481ff"),
    (0x100, "04820100"), (0xFFFF, "0482ffff"), (0x10000, "0483010000"),
])
def test_length_boundaries_round_trip_and_cut(length, header):
    value = der.octet_string(bytes(length))
    blob = der.encode(value)
    assert blob == bytes.fromhex(header) + bytes(length)
    assert _agree(blob) == value
    assert _agree(blob[:-1]) is Truncated
    wrapped = der.encode(der.seq(value))
    assert _agree(wrapped) == der.seq(value)
    assert _agree(wrapped[:-1]) is Truncated


@pytest.mark.parametrize("number, encoded", [
    (0x1E, "9e00"), (0x1F, "9f1f00"), (0x7F, "9f7f00"), (0x80, "9f810000"),
])
def test_tag_number_boundaries(number, encoded):
    value = DerValue(number, cls=CONTEXT)
    assert der.encode(value) == bytes.fromhex(encoded)
    assert _agree(bytes.fromhex(encoded)) == value


@pytest.mark.parametrize("encoded, error", [
    ("9f801f00", BadTag),          # long-form tag with a padding 0x80 octet
    ("9f1e00", BadTag),            # long form for a number the short form holds
    ("9f81", Truncated),           # input ends inside a long-form tag
    ("050000", TrailingBytes),
    ("30030403616263", Truncated),  # the child overruns its parent's content
    ("0481", Truncated),           # input ends inside a length
    ("048105", NonCanonicalLength),  # long form for a short length
    ("30800000", NonCanonicalLength),  # indefinite length
    ("04ff", NonCanonicalLength),  # the reserved length octet
])
def test_malformed_headers(encoded, error):
    assert _agree(bytes.fromhex(encoded)) is error


def test_depth_cap_agrees():
    blob = der.encode(der.null())
    for _ in range(MAX_DEPTH - 1):
        blob = der.wrap_sequence(blob)
    assert isinstance(_agree(blob), DerValue)
    assert _agree(der.wrap_sequence(blob)) is BadValue


@pytest.mark.parametrize("content", [b"", b"\x00", b"\x01", b"\xff\x00", b"\x00\x80"],
                         ids=lambda content: content.hex() or "empty")
def test_every_one_octet_identifier_agrees(content):
    """Each identifier octet but the long-form escapes, in every class and
    form, around a few contents that the checked types accept or refuse."""
    for octet in range(256):
        if octet & 0x1F != 0x1F:
            _agree(bytes([octet, len(content)]) + content)
