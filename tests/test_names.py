import re
import time
import warnings

import cryptography.x509
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqcli import der, names
from pqcli.errors import (DerError, EmptyValue, InvalidParameter, UnknownAttributeKey,
                          UnprintableValue)
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
    # serialNumber, a PrintableString too: a country is exactly 2 characters
    name = parse_name("SERIALNUMBER=Az 09'()+-./:=?")  # ',' separates attributes
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
    assert str(name) == "CN=a+O=b"


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


# -- rendering: RFC 4514 escaping and multi-valued RDNs --------------------

_COMMA_IN_A_VALUE = der.seq(der.set_of(_atv(AT_COMMON_NAME, der.utf8("a,O=evil"))))
_ONE_RDN_OF_TWO = der.seq(der.set_of(_atv(AT_COMMON_NAME, der.utf8("a")),
                                     _atv(AT_ORGANIZATION, der.utf8("evil"))))
_TWO_RDNS = der.seq(der.set_of(_atv(AT_COMMON_NAME, der.utf8("a"))),
                    der.set_of(_atv(AT_ORGANIZATION, der.utf8("evil"))))


def test_three_names_that_once_read_alike_render_apart():
    """OpenSSL's -subj "/CN=a,O=evil", "-multivalue-rdn /CN=a+O=evil" and
    "/CN=a/O=evil"; each used to print as CN=a,O=evil."""
    rendered = [str(DistinguishedName.from_der_value(value))
                for value in (_COMMA_IN_A_VALUE, _ONE_RDN_OF_TWO, _TWO_RDNS)]
    assert rendered == ["CN=a\\,O=evil", "CN=a+O=evil", "CN=a,O=evil"]


def test_parse_name_keeps_a_plus_inside_the_value():
    name = parse_name("CN=a+O=b")
    assert [a.value for a in name.attributes] == ["a+O=b"]
    assert str(name) == "CN=a\\+O=b"


_CRYPTOGRAPHY_OIDS = {
    "CN": cryptography.x509.NameOID.COMMON_NAME,
    "O": cryptography.x509.NameOID.ORGANIZATION_NAME,
    "OU": cryptography.x509.NameOID.ORGANIZATIONAL_UNIT_NAME,
    "L": cryptography.x509.NameOID.LOCALITY_NAME,
    "ST": cryptography.x509.NameOID.STATE_OR_PROVINCE_NAME,
    "C": cryptography.x509.NameOID.COUNTRY_NAME,
}
_TEXT_VALUES = ["plain", "a,b", "a+b", 'say "hi"', "x;y", "<t>", "back\\slash", "#lead",
                " lead", "trail ", " both ", "in#side", "nul\0byte", "Größe é", "a=b", "\\#"]
_COUNTRY_VALUES = ["DE", " E", "E ", "  ", "+,", ",+", "=?"]  # PrintableString


def _rdns(name):
    rdns = []
    for attr in name.attributes:
        if not (attr.joins_previous and rdns):
            rdns.append([])
        rdns[-1].append(attr._replace(joins_previous=False))
    return rdns


@pytest.mark.parametrize("key", sorted(_CRYPTOGRAPHY_OIDS))
def test_each_rdn_renders_as_cryptography_renders_it(key):
    """cryptography's RelativeDistinguishedName.rfc4514_string() is the
    oracle for every RDN; a multi-valued RDN's members compare as a set,
    since DER sorts them."""
    values = _COUNTRY_VALUES if key == "C" else _TEXT_VALUES
    oid = _CRYPTOGRAPHY_OIDS[key]
    rdns = [cryptography.x509.RelativeDistinguishedName([cryptography.x509.NameAttribute(oid, v)])
            for v in values]
    rdns.append(cryptography.x509.RelativeDistinguishedName(
        [cryptography.x509.NameAttribute(oid, v) for v in values[:3]]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # cryptography warns of a country that is not 2 letters
        blob = cryptography.x509.Name(rdns).public_bytes()
    name = DistinguishedName.from_der_value(der.decode(blob))
    ours = _rdns(name)
    assert len(ours) == len(rdns)
    for theirs, members in zip(rdns, ours):
        ours_whole = str(DistinguishedName(tuple(members[:1]) + tuple(
            m._replace(joins_previous=True) for m in members[1:])))
        member_texts = [str(DistinguishedName((m,))) for m in members]
        assert ours_whole == "+".join(member_texts)
        assert set(member_texts) == {a.rfc4514_string() for a in theirs}
        if len(members) == 1:
            assert ours_whole == theirs.rfc4514_string()


# -- RFC 5280 Appendix A length bounds -------------------------------------

@pytest.mark.parametrize("key, longest", [("CN", 64), ("O", 64), ("OU", 64), ("L", 128),
                                          ("ST", 128), ("serialNumber", 64)])
def test_values_up_to_their_upper_bound_are_taken(key, longest):
    assert len(parse_name(f"{key}={'A' * longest}").attributes[0].value) == longest
    with pytest.raises(InvalidParameter,
                       match=f"^attribute {key.upper()} must be 1 to {longest} characters, "
                             f"not {longest + 1}$"):
        parse_name(f"CN=x,{key}={'A' * (longest + 1)}")


@pytest.mark.parametrize("value", ["D", "DEU"])
def test_a_country_is_exactly_two_characters(value):
    assert parse_name("C=DE").attributes[0].value == "DE"
    with pytest.raises(InvalidParameter,
                       match=f"^attribute C must be exactly 2 characters, not {len(value)}$"):
        parse_name(f"C={value}")


def test_the_bound_counts_characters_not_bytes():
    assert parse_name("CN=" + "ü" * 64).attributes[0].value == "ü" * 64


def test_a_name_read_from_der_is_not_held_to_the_bounds():
    blob = der.encode(der.seq(der.set_of(_atv(AT_COUNTRY, der.printable("DEU"))),
                              der.set_of(_atv(AT_COMMON_NAME, der.utf8("x" * 70)))))
    name = DistinguishedName.from_der_value(der.decode(blob))
    assert str(name) == "C=DEU,CN=" + "x" * 70
    assert der.encode(name.to_der_value()) == blob


# -- OpenSSL's "/KEY=VALUE" form -------------------------------------------

@pytest.mark.parametrize("text, rendered", [
    ("/O=y/CN=x", "O=y,CN=x"),
    ("/CN=x\\/z/O=q", "CN=x/z,O=q"),
    ("/CN=a\\+b\\\\c=d", "CN=a\\+b\\\\c=d"),  # each "\" makes the next character literal
    ("/cn=x/", "CN=x"),                       # a trailing "/" names nothing
    ("/CN= x ", "CN=\\ x\\ "),                # and spaces stay, as OpenSSL keeps them
    ("/", ""),
])
def test_the_openssl_form_reads_in_the_order_written(text, rendered):
    assert str(parse_name(text)) == rendered


@pytest.mark.parametrize("text, error, message", [
    ("/CN=a+O=b", InvalidParameter, "multi-valued RDN"),
    ("/CN=x\\", InvalidParameter, "trailing"),
    ("/C=DEU", InvalidParameter, "exactly 2 characters"),
    ("/C=D@", UnprintableValue, "not a PrintableString"),
    ("/CN=" + "x" * 65, InvalidParameter, "1 to 64 characters"),
    ("/XX=1", UnknownAttributeKey, "'XX'"),
    ("/CN", UnknownAttributeKey, "'CN'"),
    ("/CN/O=x", UnknownAttributeKey, "'CN/O'"),  # OpenSSL reads a key up to its "="
    ("//CN=x", UnknownAttributeKey, "'/CN'"),
    ("/CN=", EmptyValue, "empty value"),
])
def test_the_openssl_form_is_held_to_the_comma_forms_rules(text, error, message):
    with pytest.raises(error, match=re.escape(message)):
        parse_name(text)


# -- the comma form reads what str() writes ---------------------------------

@pytest.mark.parametrize("text, values", [
    ("CN=a\\,O=evil", ["a,O=evil"]),
    ('CN=\\"\\+\\;\\<\\>\\\\', ['"+;<>\\']),
    ("CN=\\#x\\ ,O=\\ y", ["#x ", " y"]),  # a leading "#", spaces at either end
    ("CN=\\00\\c3\\A9\\41", ["\0éA"]),     # \XX pairs, a run of them as UTF-8
    ("CN=\\\\41", ["\\41"]),                 # an escaped "\" starts no pair
    ("CN=a \\ , O = b ", ["a  ", "b"]),      # unescaped whitespace is stripped
])
def test_the_comma_form_reads_rfc_4514_escapes(text, values):
    assert [attr.value for attr in parse_name(text).attributes] == values


@pytest.mark.parametrize("text, message", [
    ("CN=a\\", "-subj holds a trailing '\\'"),
    ("CN=\\ff", "\\ff in -subj is not UTF-8"),
    ("CN=\\c3", "\\c3 in -subj is not UTF-8"),
])
def test_an_escape_that_reads_as_nothing_is_refused(text, message):
    with pytest.raises(InvalidParameter, match=re.escape(message)):
        parse_name(text)


def test_a_long_run_of_inner_whitespace_is_stripped_in_linear_time():
    """The value's ends are found in one pass over it: a quadratic strip
    would take minutes on these 10**5 spaces, this one milliseconds."""
    started = time.perf_counter()
    with pytest.raises(InvalidParameter, match="not 100003"):
        parse_name("CN=a\\ " + " " * 10**5 + "b,O=x")
    assert time.perf_counter() - started < 2


def test_whitespace_at_either_end_of_a_value_prints_as_hex_pairs():
    name = DistinguishedName((NameAttribute(AT_COMMON_NAME, "\ta\u3000"),
                              NameAttribute(AT_ORGANIZATION, " \n ")))
    assert str(name) == "CN=\\09a\\e3\\80\\80,O=\\ \n\\ "
    assert parse_name(str(name)) == name


@st.composite
def _single_valued_attribute(draw):
    key = draw(st.sampled_from(sorted(names._ATTRIBUTES)))
    oid, tag, shortest, longest = names._ATTRIBUTES[key]
    if tag == der.PRINTABLE_STRING:
        alphabet = st.sampled_from(sorted(der.PRINTABLE_ALPHABET))
    else:  # RFC 4514's specials, whitespace and NUL, or any character a UTF8String holds
        alphabet = st.one_of(st.sampled_from('"+,;<>\\#=/ \t\n\r\x0b\x0c\x00\xa0\u2028'),
                             st.characters(exclude_categories=("Cs",)))
    value = draw(st.text(alphabet, min_size=shortest, max_size=min(longest, 16)))
    return NameAttribute(oid, value, tag)


@settings(max_examples=500, database=None, deadline=None)
@given(st.lists(_single_valued_attribute(), max_size=4))
def test_a_name_parses_back_from_the_text_it_prints(attributes):
    name = DistinguishedName(tuple(attributes))
    assert parse_name(str(name)) == name
