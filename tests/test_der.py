import datetime
import random

import pytest

from pqcli import der
from pqcli.errors import (
    BadTag,
    BadValue,
    DerError,
    NonCanonicalLength,
    TrailingBytes,
    Truncated,
)
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


def test_oid_rejects_non_minimal_subidentifier():
    with pytest.raises(BadValue):
        der.decode(b"\x06\x04\x55\x1d\x80\x48")


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
