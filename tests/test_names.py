import re

import pytest

from pqcli import der
from pqcli.errors import DerError, EmptyValue, UnknownAttributeKey, UnprintableValue
from pqcli.names import DistinguishedName, NameAttribute, parse_name
from pqcli.oids import (
    AT_COMMON_NAME,
    AT_COUNTRY,
    AT_ORGANIZATION,
    AT_SERIAL_NUMBER,
    ObjectIdentifier,
)


def test_parse_single_cn():
    name = parse_name("CN=device 42")
    assert len(name.attributes) == 1
    assert name.attributes[0].oid == AT_COMMON_NAME
    assert name.attributes[0].value == "device 42"
    assert str(name) == "CN=device 42"


def test_parse_multiple_attributes_preserves_order():
    name = parse_name("C=DE, O=Example Corp, OU=PKI, CN=root")
    assert [a.key for a in name.attributes] == ["C", "O", "OU", "CN"]
    assert str(name) == "C=DE,O=Example Corp,OU=PKI,CN=root"


def test_case_insensitive_keys():
    assert parse_name("cn=a") == parse_name("CN=a")
    assert parse_name("serialnumber=123").attributes[0].key == "SERIALNUMBER"


def test_country_uses_printable_string():
    name = parse_name("C=DE,CN=x")
    blob = der.encode(name.to_der_value())
    back = DistinguishedName.from_der_value(der.decode(blob))
    assert back == name
    assert back.attributes[0].printable is True
    assert back.attributes[1].printable is False


@pytest.mark.parametrize("value", ["Ü", "D@E", "D*", "a_b", "x&y"])
def test_country_outside_the_printable_alphabet_is_refused(value):
    """X.680 41.4 allows A-Z, a-z, 0-9, space and '()+,-./:=? in a
    PrintableString; parse_name refuses anything else before it is
    encoded, with an error that is not a DER error."""
    message = f"^attribute C is not a PrintableString: {re.escape(repr(value))}$"
    with pytest.raises(UnprintableValue, match=message) as info:
        parse_name(f"CN=x,C={value}")
    assert not isinstance(info.value, DerError)


def test_country_takes_every_printable_character_but_the_separator():
    name = parse_name("C=Az 09'()+-./:=?")  # ',' separates attributes
    assert name.attributes[0].value == "Az 09'()+-./:=?"
    assert DistinguishedName.from_der_value(der.decode(der.encode(name.to_der_value()))) == name


@pytest.mark.parametrize("tag, value, message", [
    (der.PRINTABLE_STRING, "Ü", "not a PrintableString: 'Ü'"),
    (der.PRINTABLE_STRING, "a@b", "not a PrintableString: 'a@b'"),
    (der.IA5_STRING, "é", "not an IA5String: 'é'"),
])
def test_name_built_in_the_library_stays_inside_its_string_alphabet(tag, value, message):
    """The encoders refuse what parse_name never hands them, with the same
    error, not a UnicodeEncodeError or bytes outside the type."""
    name = DistinguishedName((NameAttribute(AT_COUNTRY, value, tag),))
    with pytest.raises(UnprintableValue, match=f"^{re.escape(message)}$"):
        name.to_der_value()


def test_der_round_trip_is_byte_exact():
    name = parse_name("CN=pqcli self-signed")
    blob = der.encode(name.to_der_value())
    back = DistinguishedName.from_der_value(der.decode(blob))
    assert der.encode(back.to_der_value()) == blob


def test_unknown_key_rejected():
    with pytest.raises(UnknownAttributeKey):
        parse_name("CN=a,EMAIL=who@example.org")
    with pytest.raises(UnknownAttributeKey):
        parse_name("justtext")


def test_empty_value_rejected():
    with pytest.raises(EmptyValue):
        parse_name("CN=")


def test_empty_segments_skipped():
    assert parse_name("CN=a,,") == parse_name("CN=a")
    assert parse_name("") == DistinguishedName()


def test_multi_attribute_rdn_parses():
    # other tools may emit several attributes inside one SET
    atv1 = der.seq(der.oid_value(AT_COMMON_NAME), der.utf8("a"))
    atv2 = der.seq(der.oid_value(AT_COUNTRY), der.printable("DE"))
    name_value = der.seq(der.set_of(atv1, atv2))
    name = DistinguishedName.from_der_value(name_value)
    assert len(name.attributes) == 2


def test_unknown_oid_key_falls_back_to_dotted():
    from pqcli.oids import ObjectIdentifier
    attr = NameAttribute(ObjectIdentifier("1.2.3.4"), "v")
    assert attr.key == "1.2.3.4"


EMAIL_ADDRESS = ObjectIdentifier("1.2.840.113549.1.9.1")


def _atv(oid, string):
    return der.seq(der.oid_value(oid), string)


def test_multi_valued_rdn_re_encodes_byte_exactly():
    blob = der.encode(der.seq(der.set_of(_atv(AT_COMMON_NAME, der.utf8("a")),
                                         _atv(AT_ORGANIZATION, der.utf8("b")))))
    assert blob.hex().startswith("30163114")
    name = DistinguishedName.from_der_value(der.decode(blob))
    assert der.encode(name.to_der_value()) == blob
    assert [a.key for a in name.attributes] == ["CN", "O"]
    assert str(name) == "CN=a,O=b"


def test_ia5_string_attribute_re_encodes_byte_exactly():
    blob = der.encode(der.seq(
        der.set_of(_atv(EMAIL_ADDRESS, der.ia5("who@example.org"))),
        der.set_of(_atv(AT_COUNTRY, der.printable("DE")))))
    name = DistinguishedName.from_der_value(der.decode(blob))
    assert der.encode(name.to_der_value()) == blob
    assert [a.printable for a in name.attributes] == [False, True]
    assert str(name) == "1.2.840.113549.1.9.1=who@example.org,C=DE"


@pytest.mark.parametrize("blob_hex", [
    "300c310a300806035504038c0161",  # CN value under a context [12] tag
    "30023100",                      # an empty RDN
])
def test_names_that_would_not_re_encode_byte_exactly_are_rejected(blob_hex):
    with pytest.raises(DerError):
        DistinguishedName.from_der_value(der.decode(bytes.fromhex(blob_hex)))


def test_serial_number_is_a_printable_string():
    name = parse_name("CN=dev,serialNumber=ABC123")
    assert [a.tag for a in name.attributes] == [der.UTF8_STRING, der.PRINTABLE_STRING]
    assert DistinguishedName.from_der_value(der.decode(der.encode(name.to_der_value()))) == name


@pytest.mark.parametrize("value", ["AB_1", "Ü", "a@b"])
def test_serial_number_outside_the_printable_alphabet_is_refused(value):
    message = f"^attribute SERIALNUMBER is not a PrintableString: {re.escape(repr(value))}$"
    with pytest.raises(UnprintableValue, match=message):
        parse_name(f"CN=x,serialNumber={value}")


def test_serial_number_read_from_der_keeps_the_tag_it_was_written_with():
    blob = der.encode(der.seq(der.set_of(_atv(AT_SERIAL_NUMBER, der.utf8("AB_1")))))
    name = DistinguishedName.from_der_value(der.decode(blob))
    assert [(a.key, a.value, a.tag) for a in name.attributes] == [
        ("SERIALNUMBER", "AB_1", der.UTF8_STRING)]
    assert der.encode(name.to_der_value()) == blob
