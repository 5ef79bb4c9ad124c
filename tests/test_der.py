import copy
import dataclasses
import datetime
import pickle
import random
import re

import cryptography.x509
import pytest

from pqcli import algs, der, oids, x509
from pqcli.errors import (
    BadTag,
    BadValue,
    DerError,
    NonCanonicalLength,
    PqcliError,
    TrailingBytes,
    Truncated,
)
from pqcli.names import parse_name
from pqcli.oids import ObjectIdentifier


def test_integer_encodings():
    cases = {
        0: b"\x02\x01\x00",
        1: b"\x02\x01\x01",
        127: b"\x02\x01\x7f",
        128: b"\x02\x02\x00\x80",
        256: b"\x02\x02\x01\x00",
        -1: b"\x02\x01\xff",
        -128: b"\x02\x01\x80",
        -129: b"\x02\x02\xff\x7f",
    }
    for value, expected in cases.items():
        assert der.encode(der.integer(value)) == expected
        assert der.decode(expected).as_int() == value


def test_boolean_and_null():
    assert der.encode(der.boolean(True)) == b"\x01\x01\xff"
    assert der.encode(der.boolean(False)) == b"\x01\x01\x00"
    assert der.encode(der.null()) == b"\x05\x00"
    assert der.decode(b"\x01\x01\xff").as_bool() is True
    with pytest.raises(BadValue):
        der.decode(b"\x01\x01\x01")  # BER truthy byte, not DER
    with pytest.raises(BadValue):
        der.decode(b"\x05\x01\x00")


def test_integer_minimality_enforced():
    with pytest.raises(BadValue):
        der.decode(b"\x02\x02\x00\x7f")
    with pytest.raises(BadValue):
        der.decode(b"\x02\x02\xff\x80")
    with pytest.raises(BadValue):
        der.decode(b"\x02\x00")
    # a leading zero that IS needed stays legal
    assert der.decode(b"\x02\x02\x00\x80").as_int() == 128


def test_bit_string_rules():
    assert der.encode(der.bit_string(b"\xab")) == b"\x03\x02\x00\xab"
    assert der.decode(b"\x03\x02\x00\xab").as_bits() == b"\xab"
    with pytest.raises(BadValue):
        der.decode(b"\x03\x00")  # missing unused-bits octet
    with pytest.raises(BadValue):
        der.decode(b"\x03\x01\x03")  # empty with nonzero unused
    with pytest.raises(BadValue):
        der.decode(b"\x03\x02\x08\xab")  # unused > 7
    with pytest.raises(BadValue):
        der.decode(b"\x03\x02\x01\x01")  # padding bit set
    # 4 unused bits with clean padding decodes, but as_bits refuses it
    value = der.decode(b"\x03\x02\x04\xa0")
    with pytest.raises(BadValue):
        value.as_bits()


def test_oid_round_trip():
    examples = ["1.2.840.113549.1.1.11", "2.5.29.72", "0.9.2342", "2.999.1"]
    for text in examples:
        oid = ObjectIdentifier(text)
        blob = der.encode(der.oid_value(oid))
        assert der.decode(blob).as_oid() == oid
    assert der.encode(der.oid_value(ObjectIdentifier("2.5.29.72"))) == b"\x06\x03\x55\x1d\x48"


def test_oid_constructor_forms_and_text():
    text = "1.2.840.113549.1.1.11"
    built = ObjectIdentifier(text)
    assert ObjectIdentifier((1, 2, 840, 113549, 1, 1, 11)) == built
    assert ObjectIdentifier(iter([1, 2, 840, 113549, 1, 1, 11])) == built
    assert {built: "rsa"}[oids.SHA256_WITH_RSA] == "rsa"
    assert built.dotted() == str(built) == text
    assert repr(built) == f"ObjectIdentifier({text!r})"
    with pytest.raises(AttributeError):
        built.extra = 1


@pytest.mark.parametrize("round_trip", [
    copy.copy, copy.deepcopy, lambda oid: pickle.loads(pickle.dumps(oid))])
def test_oid_copies_and_pickles(round_trip):
    back = round_trip(oids.AT_COUNTRY)
    assert type(back) is ObjectIdentifier
    assert back == oids.AT_COUNTRY
    assert back.encode_content() == oids.AT_COUNTRY.encode_content() == b"\x55\x04\x06"


@pytest.mark.parametrize("value, error, message", [
    ("1.2.x", BadValue, "not a dotted OID: '1.2.x'"),
    ("1..2", BadValue, "not a dotted OID: '1..2'"),
    ("1", BadValue, "OID needs at least two arcs"),
    ((), BadValue, "OID needs at least two arcs"),
    ((1, 2, -3), BadValue, "OID arcs must be non-negative"),
    ("1.-2", BadValue, "OID arcs must be non-negative"),
    ("3.1", BadValue, "first OID arc must be 0, 1, or 2"),
    ((0, 40), BadValue, "second OID arc must be < 40 when the first is 0 or 1"),
    ("1.40.5", BadValue, "second OID arc must be < 40 when the first is 0 or 1"),
    (b"", BadValue, "empty OID content"),
    (b"\x55\x1d\x80\x48", BadValue, "non-minimal OID subidentifier"),
    (b"\x55\x9d", Truncated, "OID ends inside a subidentifier"),
])
def test_oid_refuses_each_invalid_form_with_its_message(value, error, message):
    """Dotted strings and arc tuples go to the constructor, bytes to
    decode_content."""
    build = ObjectIdentifier.decode_content if isinstance(value, bytes) else ObjectIdentifier
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(value)


def test_oid_rejects_non_minimal_subidentifier():
    with pytest.raises(BadValue):
        der.decode(b"\x06\x04\x55\x1d\x80\x48")


def _oids_in(item):
    """Every ObjectIdentifier in a parsed document, in field order."""
    if isinstance(item, ObjectIdentifier):
        return [item]
    if dataclasses.is_dataclass(item):
        item = [getattr(item, f.name) for f in dataclasses.fields(item)]
    elif not isinstance(item, tuple):
        return []
    return [found for part in item for found in _oids_in(part)]


def test_oid_decoded_once_per_encoding(monkeypatch, ec_key, ml2_key):
    """The first read of a certificate interns one ObjectIdentifier per
    distinct OID encoding in it; a second read interns none and returns
    the same object for every OID."""
    name = parse_name("CN=interned")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(ec_key), x509.default_validity(7),
                         algs.signature_algorithm_for(ec_key.spec))
    blob = x509.sign_certificate(tbs, ec_key, ml2_key).emit()
    encodings = set()

    def collect(value):
        if value.tag == der.OID and value.cls == der.UNIVERSAL:
            encodings.add(value.content)
        for child in value.children:
            collect(child)

    collect(der.decode(blob))
    monkeypatch.setattr(oids, "_DECODED", {})
    first = x509.parse_certificate(blob)
    assert set(oids._DECODED) == encodings
    table = dict(oids._DECODED)
    second = x509.parse_certificate(blob)
    assert oids._DECODED.keys() == table.keys()
    assert all(oids._DECODED[octets] is known for octets, known in table.items())
    pairs = list(zip(_oids_in(first), _oids_in(second), strict=True))
    assert pairs
    assert all(a is b is oids._DECODED[a.encode_content()] for a, b in pairs)


def test_oid_table_keeps_no_rejected_encoding_and_stays_bounded(monkeypatch):
    monkeypatch.setattr(oids, "_DECODED", {})
    for bad, error in ((b"\x55\x1d\x80\x48", BadValue), (b"\x55\x9d", Truncated)):
        for _ in range(2):
            with pytest.raises(error):
                ObjectIdentifier.decode_content(bad)
    assert oids._DECODED == {}
    values = [ObjectIdentifier((1, 2, arc)) for arc in range(oids._DECODED_LIMIT + 8)]
    for _ in range(2):
        assert [ObjectIdentifier.decode_content(v.encode_content()) for v in values] == values
    assert len(oids._DECODED) == oids._DECODED_LIMIT


def test_oid_keeps_its_content_octets(monkeypatch):
    monkeypatch.setattr(oids, "_DECODED", {})
    built = ObjectIdentifier("2.5.29.72")
    octets = built.encode_content()
    assert octets == b"\x55\x1d\x48" and built.encode_content() is octets
    source = bytes.fromhex("2a864886f70d01010b")
    decoded = ObjectIdentifier.decode_content(source)
    assert decoded.encode_content() is source
    assert decoded == oids.SHA256_WITH_RSA and hash(decoded) == hash(oids.SHA256_WITH_RSA)
    with pytest.raises(AttributeError):
        decoded._content = b"\x55"


def test_tlv_bounds_of_empty_input_is_truncated():
    with pytest.raises(Truncated, match="^input ends before a tag$"):
        der.tlv_bounds(b"", 0)


def test_length_forms():
    long_payload = bytes(200)
    blob = der.encode(der.octet_string(long_payload))
    assert blob[:3] == b"\x04\x81\xc8"
    assert der.decode(blob).as_octets() == long_payload
    with pytest.raises(NonCanonicalLength):
        der.decode(b"\x04\x81\x05hello")  # long form for short length
    with pytest.raises(NonCanonicalLength):
        der.decode(b"\x30\x80\x00\x00")  # indefinite
    with pytest.raises(NonCanonicalLength):
        der.decode(b"\x04\x82\x00\xc8" + bytes(200))  # leading zero length


def test_truncation_and_trailing():
    with pytest.raises(Truncated):
        der.decode(b"\x04\x05abc")
    with pytest.raises(Truncated):
        der.decode(b"\x04")
    with pytest.raises(TrailingBytes):
        der.decode(b"\x05\x00\x05\x00")
    with pytest.raises(Truncated):
        der.decode(b"")


def test_constructed_discipline():
    with pytest.raises(BadTag):
        der.decode(b"\x24\x02\x04\x00")  # constructed OCTET STRING (BER)
    with pytest.raises(BadTag):
        der.decode(b"\x10\x00")  # primitive SEQUENCE
    assert der.decode(b"\x30\x00").children == ()


def test_nested_sequence_round_trip():
    tree = der.seq(
        der.integer(5),
        der.seq(der.boolean(True), der.octet_string(b"xyz")),
        der.set_of(der.printable("A")),
    )
    blob = der.encode(tree)
    back = der.decode(blob)
    assert back == tree
    assert der.encode(back) == blob


def test_explicit_wrapper():
    wrapped = der.explicit(3, der.integer(2))
    blob = der.encode(wrapped)
    assert blob[0] == 0xA3
    back = der.decode(blob)
    assert back.cls == der.CONTEXT and back.tag == 3
    assert back.children[0].as_int() == 2


def test_string_types():
    for ctor, text in ((der.utf8, "héllo"), (der.printable, "plain"), (der.ia5, "a@b")):
        blob = der.encode(ctor(text))
        assert der.decode(blob).as_text() == text


def test_invalid_text_is_bad_value():
    for tag, content in ((der.UTF8_STRING, b"\xff\xfe"), (der.UTF8_STRING, b"\xc3"),
                         (der.PRINTABLE_STRING, "é".encode()), (der.IA5_STRING, b"\x80")):
        value = der.decode(der.encode(der.DerValue(tag, content=content)))
        with pytest.raises(BadValue):
            value.as_text()


def _nested(levels: int) -> bytes:
    blob = b"\x30\x00"
    for _ in range(levels - 1):
        blob = der.wrap_sequence(blob)
    return blob


def test_nesting_depth_is_capped():
    assert der.encode(der.decode(_nested(der.MAX_DEPTH))) == _nested(der.MAX_DEPTH)
    for levels in (der.MAX_DEPTH + 1, 3000):
        with pytest.raises(BadValue):
            der.decode(_nested(levels))
    # a primitive leaf counts as a level too
    leaf = der.encode(der.integer(1))
    for _ in range(der.MAX_DEPTH):
        leaf = der.wrap_sequence(leaf)
    with pytest.raises(BadValue):
        der.decode(leaf)


def test_time_codec_utc_and_generalized():
    utc = datetime.timezone.utc
    before_2050 = datetime.datetime(2026, 8, 23, 12, 0, 5, tzinfo=utc)
    value = der.encode_time(before_2050)
    assert value.tag == der.UTC_TIME
    assert der.decode_time(value) == before_2050

    after_2050 = datetime.datetime(2055, 1, 2, 3, 4, 5, tzinfo=utc)
    value = der.encode_time(after_2050)
    assert value.tag == der.GENERALIZED_TIME
    assert der.decode_time(value) == after_2050

    # UTCTime 50..99 means 19xx
    old = der.DerValue(der.UTC_TIME, content=b"990101000000Z")
    assert der.decode_time(old).year == 1999

    with pytest.raises(BadValue):
        der.decode_time(der.DerValue(der.UTC_TIME, content=b"26082312000Z"))

    # the UTCTime pivot at its two ends
    for text, moment in ((b"500101000000Z", datetime.datetime(1950, 1, 1, tzinfo=utc)),
                         (b"491231235959Z", datetime.datetime(2049, 12, 31, 23, 59, 59,
                                                              tzinfo=utc))):
        value = der.DerValue(der.UTC_TIME, content=text)
        assert der.decode_time(value) == moment
        assert der.encode_time(moment) == value

    # digits only, every field in range: a space-padded day, a sign,
    # second 60, month 13, 30 February
    for tag, text in ((der.UTC_TIME, b"2601 1000000Z"), (der.UTC_TIME, b"26+101000000Z"),
                      (der.GENERALIZED_TIME, b"2026010100000 Z"),
                      (der.GENERALIZED_TIME, b"+0260101000000Z"),
                      (der.UTC_TIME, b"260101000060Z"), (der.UTC_TIME, b"261301000000Z"),
                      (der.GENERALIZED_TIME, b"20260230000000Z")):
        with pytest.raises(BadValue):
            der.decode_time(der.DerValue(tag, content=text))


@pytest.mark.parametrize("year", [1, 999, 1000, 1949, 1950, 2049, 2050, 9999])
def test_time_round_trips_in_every_year(year):
    """GeneralizedTime writes four year digits, also below year 1000."""
    moment = datetime.datetime(year, 12, 31, 23, 59, 59, tzinfo=datetime.timezone.utc)
    value = der.encode_time(moment)
    assert len(value.content) == (13 if 1950 <= year < 2050 else 15)
    assert der.decode_time(value) == moment


def test_space_padded_time_is_rejected_as_the_oracle_rejects_it(ec_key):
    """Read as 2026-01-01, "2601 1000000Z" would re-encode without the
    space and the TBS would not round-trip; cryptography rejects it too."""
    start = datetime.datetime(2026, 1, 1, tzinfo=datetime.timezone.utc)
    name = parse_name("CN=padded")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(ec_key),
                         (start, start + datetime.timedelta(days=30)),
                         algs.signature_algorithm_for(ec_key.spec))
    good = x509.sign_certificate(tbs, ec_key).emit()
    assert good.count(b"260101000000Z") == 1
    padded = good.replace(b"260101000000Z", b"2601 1000000Z")
    cryptography.x509.load_der_x509_certificate(good)
    with pytest.raises(ValueError):
        cryptography.x509.load_der_x509_certificate(padded)
    with pytest.raises(PqcliError):
        x509.parse_certificate(padded)


def test_typed_readers_take_universal_tags_only():
    """A context tag that shares its number with a string or time type is
    not that type; reading it as one would re-encode it under another tag."""
    text = der.decode(bytes.fromhex("8c0161"))            # [12] "a", no UTF8String
    moment = der.decode(b"\x97\x0d" + b"260823120005Z")  # [23], no UTCTime
    with pytest.raises(BadTag):
        text.as_text()
    with pytest.raises(BadTag):
        der.decode_time(moment)


def test_normalize_time_strips_microseconds_and_converts_zone():
    plus2 = datetime.timezone(datetime.timedelta(hours=2))
    local = datetime.datetime(2026, 3, 1, 14, 30, 9, 123456, tzinfo=plus2)
    normal = der.normalize_time(local)
    assert normal.tzinfo == datetime.timezone.utc
    assert normal.hour == 12 and normal.microsecond == 0


def test_tlv_bounds():
    inner = der.encode(der.integer(7)) + der.encode(der.boolean(False))
    blob = der.wrap_sequence(inner)
    cstart, end = der.tlv_bounds(blob, 0)
    assert end == len(blob)
    assert blob[cstart:end] == inner
    _, first_end = der.tlv_bounds(blob, cstart)
    assert blob[cstart:first_end] == der.encode(der.integer(7))
    with pytest.raises(Truncated):
        der.tlv_bounds(blob, cstart, first_end - 1)  # a TLV past the given end


def test_high_tag_numbers():
    value = der.DerValue(40, cls=der.CONTEXT, constructed=True,
                         children=(der.null(),))
    blob = der.encode(value)
    assert blob[0] == 0xBF and blob[1] == 40
    assert der.decode(blob) == value
    with pytest.raises(BadTag):
        der.decode(b"\xbf\x80\x28\x00")  # padded long-form tag
    with pytest.raises(BadTag):
        der.decode(b"\xbf\x05\x00")  # long form for a low tag


def test_der_value_is_an_immutable_hashable_value():
    tree = der.seq(der.integer(5), der.explicit(3, der.null()),
                   der.DerValue(40, cls=der.CONTEXT, content=b"ab"))
    with pytest.raises(AttributeError):
        tree.tag = der.SET
    with pytest.raises(AttributeError):
        tree.children[0].content = b"\x07"
    twin = der.decode(der.encode(tree))
    assert twin == tree and twin is not tree
    assert hash(twin) == hash(tree) and len({tree, twin}) == 1
    assert repr(tree) == (
        "DerValue(tag=0x10, children=[DerValue(tag=0x2, content='05'), "
        "DerValue(cls=0x80,tag=3, children=[DerValue(tag=0x5, content='')]), "
        "DerValue(cls=0x80,tag=40, content='6162')])")


def _random_value(rng: random.Random, depth: int) -> der.DerValue:
    kind = rng.randrange(8 if depth > 0 else 6)
    if kind == 0:
        return der.integer(rng.randrange(-2**64, 2**64))
    if kind == 1:
        return der.boolean(rng.random() < 0.5)
    if kind == 2:
        return der.octet_string(rng.randbytes(rng.randrange(24)))
    if kind == 3:
        return der.bit_string(rng.randbytes(rng.randrange(1, 16)))
    if kind == 4:
        arcs = [rng.randrange(3), rng.randrange(40)] + [
            rng.randrange(2**28) for _ in range(rng.randrange(6))]
        return der.oid_value(ObjectIdentifier(arcs))
    if kind == 5:
        return der.null()
    children = tuple(_random_value(rng, depth - 1) for _ in range(rng.randrange(4)))
    if kind == 6:
        return der.seq(*children)
    return der.DerValue(rng.randrange(1, 100), cls=der.CONTEXT,
                        constructed=True, children=children)


def test_structured_random_round_trip_small():
    rng = random.Random(2024)
    for _ in range(500):
        value = _random_value(rng, 3)
        blob = der.encode(value)
        back = der.decode(blob)
        assert back == value
        assert der.encode(back) == blob


def test_fuzz_decoder_never_crashes_small():
    rng = random.Random(99)
    for _ in range(5000):
        blob = rng.randbytes(rng.randrange(32))
        try:
            der.decode(blob)
        except DerError:
            pass
