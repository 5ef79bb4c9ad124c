import contextlib
import dataclasses
import datetime
import io
import re

import cryptography.x509
import pytest

from pqcli import algs, chameleon, cli, composite, der, oids, pem, x509
from pqcli.errors import (
    AlgorithmMismatch,
    BadTag,
    BadValue,
    DuplicateExtension,
    EmptyValue,
    InvalidParameter,
    InvalidValidity,
    MalformedAltExtension,
    NotACertificate,
    NotACsr,
)
from pqcli.names import parse_name

UTC = datetime.timezone.utc


def _self_signed(key, subject="CN=unit", days=30, rng=None, **kwargs):
    name = parse_name(subject)
    tbs = x509.build_tbs(name, name, algs.spki_for_key(key),
                         x509.default_validity(days),
                         algs.signature_algorithm_for(key.spec),
                         rng=rng, **kwargs)
    return x509.sign_certificate(tbs, key)


def test_build_defaults(ec_key, rng):
    cert = _self_signed(ec_key, rng=rng)
    assert cert.tbs.version == 2
    assert 0 < cert.tbs.serial < 1 << 120
    ext_oids = [e.oid for e in cert.tbs.extensions]
    assert ext_oids == [oids.EXT_BASIC_CONSTRAINTS, oids.EXT_SUBJECT_KEY_ID]
    assert all(not e.critical for e in cert.tbs.extensions)
    # subjectKeyIdentifier is the SHA-1 of the public key bits
    import hashlib
    ski = der.decode(cert.tbs.extensions[1].value).as_octets()
    assert ski == hashlib.sha1(ec_key.public).digest()


def test_suppress_default_extensions(ec_key):
    cert = _self_signed(ec_key, add_default_extensions=False)
    assert cert.tbs.extensions == ()


def test_supplied_extension_overrides_default(ec_key):
    custom_bc = x509.ExtensionBlock(oids.EXT_BASIC_CONSTRAINTS, True,
                                    der.encode(der.seq()))
    cert = _self_signed(ec_key, extensions=(custom_bc,))
    blocks = [e for e in cert.tbs.extensions if e.oid == oids.EXT_BASIC_CONSTRAINTS]
    assert blocks == [custom_bc]


def test_duplicate_extension_rejected(ec_key):
    ext = x509.ExtensionBlock(oids.EXT_KEY_USAGE, False, b"\x03\x02\x05\xa0")
    name = parse_name("CN=dup")
    with pytest.raises(DuplicateExtension):
        x509.build_tbs(name, name, algs.spki_for_key(ec_key),
                       x509.default_validity(1),
                       algs.signature_algorithm_for(ec_key.spec),
                       extensions=(ext, ext))


def test_invalid_validity(ec_key):
    name = parse_name("CN=v")
    start = datetime.datetime(2026, 1, 1, tzinfo=UTC)
    with pytest.raises(InvalidValidity):
        x509.build_tbs(name, name, algs.spki_for_key(ec_key), (start, start),
                       algs.signature_algorithm_for(ec_key.spec))


def test_validity_before_year_1000_round_trips(ec_key):
    name = parse_name("CN=year5")
    validity = (datetime.datetime(5, 1, 1, tzinfo=UTC), datetime.datetime(6, 1, 1, tzinfo=UTC))
    tbs = x509.build_tbs(name, name, algs.spki_for_key(ec_key), validity,
                         algs.signature_algorithm_for(ec_key.spec))
    blob = x509.sign_certificate(tbs, ec_key).emit()
    back = x509.parse_certificate(blob)
    assert (back.tbs.not_before, back.tbs.not_after) == validity
    assert back.emit() == blob


def test_empty_issuer_is_refused(ec_key):
    """RFC 5280 4.1.2.4: the issuer field holds a non-empty name; a
    request's subject may be empty (PKCS#10)."""
    spki = algs.spki_for_key(ec_key)
    alg = algs.signature_algorithm_for(ec_key.spec)
    empty = parse_name(",")
    with pytest.raises(EmptyValue, match="issuer"):
        x509.build_tbs(empty, empty, spki, x509.default_validity(1), alg)
    tbs = x509.build_tbs(empty, parse_name("CN=ca"), spki, x509.default_validity(1), alg)
    assert tbs.subject == empty
    assert x509.parse_csr(x509.build_csr(empty, ec_key).emit()).subject == empty


def test_serial_bounds(ec_key):
    name = parse_name("CN=s")
    spki = algs.spki_for_key(ec_key)
    alg = algs.signature_algorithm_for(ec_key.spec)
    with pytest.raises(InvalidParameter):
        x509.build_tbs(name, name, spki, x509.default_validity(1), alg, serial=0)
    with pytest.raises(InvalidParameter):
        x509.build_tbs(name, name, spki, x509.default_validity(1), alg, serial=-5)
    with pytest.raises(InvalidParameter):
        x509.build_tbs(name, name, spki, x509.default_validity(1), alg,
                       serial=1 << 170)
    tbs = x509.build_tbs(name, name, spki, x509.default_validity(1), alg, serial=7)
    assert tbs.serial == 7
    # RFC 5280 4.1.2.2: at most 20 octets of INTEGER content, so 159 bits
    tbs = x509.build_tbs(name, name, spki, x509.default_validity(1), alg,
                         serial=(1 << 159) - 1)
    assert len(der.decode(tbs.der).children[1].content) == 20
    with pytest.raises(InvalidParameter, match="fit in 20 octets"):
        x509.build_tbs(name, name, spki, x509.default_validity(1), alg, serial=1 << 159)


def test_sign_requires_matching_algorithm(ec_key, ml2_key):
    name = parse_name("CN=alg")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(ec_key),
                         x509.default_validity(1),
                         algs.signature_algorithm_for(ml2_key.spec))
    with pytest.raises(AlgorithmMismatch):
        x509.sign_certificate(tbs, ec_key)


def test_emit_parse_identity(ec_key, ml2_key, rsa_key, slh_key, rng):
    for key in (ec_key, ml2_key, rsa_key, slh_key):
        cert = _self_signed(key, rng=rng)
        blob = cert.emit()
        back = x509.parse_certificate(blob)
        assert back.emit() == blob
        assert back.tbs_der == cert.tbs_der
        assert back.tbs == cert.tbs


def test_parsed_certificate_converts_to_a_dict(ec_key):
    """dataclasses.asdict rebuilds every tuple it meets, each OID included."""
    fields = dataclasses.asdict(x509.parse_certificate(_self_signed(ec_key).emit()))
    assert fields["tbs"]["signature_alg"].oid == oids.ECDSA_WITH_SHA256
    assert fields["tbs"]["subject"].attributes[0].oid == oids.AT_COMMON_NAME


def test_pem_round_trip(ec_key):
    cert = _self_signed(ec_key)
    text = cert.emit_pem()
    assert text.startswith("-----BEGIN CERTIFICATE-----")
    back = x509.parse_certificate(text.encode())
    assert back.emit() == cert.emit()


def test_verify_valid_and_tampered(ec_key, ml2_key, slh_key):
    for key in (ec_key, ml2_key, slh_key):
        cert = _self_signed(key)
        report = x509.verify_certificate(cert, cert.tbs.spki)
        assert report.native_sig == x509.VALID
        assert report.all_valid
        assert "self-signed (subject equals issuer)" in report.chain_notes

        bad_sig = bytearray(cert.signature)
        bad_sig[0] ^= 1
        tampered = x509.CertificateDocument(cert.tbs, cert.tbs_der,
                                            cert.signature_alg, bytes(bad_sig))
        assert x509.verify_certificate(tampered, cert.tbs.spki).native_sig == x509.INVALID

        bad_tbs = bytearray(cert.tbs_der)
        bad_tbs[-1] ^= 1
        tampered = x509.CertificateDocument(cert.tbs, bytes(bad_tbs),
                                            cert.signature_alg, cert.signature)
        assert x509.verify_certificate(tampered, cert.tbs.spki).native_sig == x509.INVALID


def test_verify_against_wrong_issuer_key(ec_key, ec384_key):
    cert = _self_signed(ec_key)
    report = x509.verify_certificate(cert, algs.spki_for_key(ec384_key))
    assert report.native_sig == x509.INVALID


def test_verification_uses_captured_tbs_bytes(ec_key):
    """Only tbs_der participates in verification, not a re-encoding."""
    cert = _self_signed(ec_key)
    wrong_tbs = x509.CertificateDocument(
        cert.tbs, cert.tbs_der[:-1] + bytes([cert.tbs_der[-1] ^ 1]),
        cert.signature_alg, cert.signature)
    assert x509.verify_certificate(wrong_tbs, cert.tbs.spki).native_sig == x509.INVALID


def test_validity_window_notes(ec_key):
    cert = _self_signed(ec_key, days=10)
    before = cert.tbs.not_before - datetime.timedelta(days=1)
    after = cert.tbs.not_after + datetime.timedelta(days=1)
    report = x509.verify_certificate(cert, cert.tbs.spki, at_time=before)
    assert "not yet valid" in report.chain_notes
    assert report.native_sig == x509.VALID  # window does not gate the verdict
    report = x509.verify_certificate(cert, cert.tbs.spki, at_time=after)
    assert "expired" in report.chain_notes
    assert report.all_valid


def test_unknown_issuer_key_is_unsupported(ec_key):
    cert = _self_signed(ec_key)
    odd = algs.SubjectPublicKeyInfo(
        algs.AlgorithmIdentifier(oids.ObjectIdentifier("1.2.3.4")), b"\x01")
    report = x509.verify_certificate(cert, odd)
    assert report.native_sig == x509.UNSUPPORTED
    assert not report.all_valid


def test_outer_algorithm_mismatch_noted(ec_key, ml2_key):
    cert = _self_signed(ec_key)
    other_alg = algs.signature_algorithm_for(ml2_key.spec)
    doc = x509.CertificateDocument(cert.tbs, cert.tbs_der, other_alg, cert.signature)
    report = x509.verify_certificate(doc, cert.tbs.spki)
    assert any("algorithm differs" in note for note in report.chain_notes)


def test_parse_rejects_non_certificates():
    with pytest.raises(NotACertificate):
        x509.parse_certificate(b"\x00\x01\x02")
    with pytest.raises(NotACertificate):
        x509.parse_certificate(der.encode(der.seq(der.integer(1))))
    with pytest.raises(NotACertificate):
        x509.parse_certificate(b"-----BEGIN PUBLIC KEY-----\nAAAA\n-----END PUBLIC KEY-----\n")


def _nested_sequences(levels):
    blob = b"\x30\x00"
    for _ in range(levels - 1):
        blob = der.wrap_sequence(blob)
    return blob


def test_parse_rejects_deep_nesting():
    with pytest.raises(NotACertificate):
        x509.parse_certificate(_nested_sequences(3000))
    with pytest.raises(NotACsr):
        x509.parse_csr(_nested_sequences(3000))


def test_invalid_text_in_name_is_bad_value(ec_key):
    blob = _self_signed(ec_key).emit()
    at = blob.index(b"unit")
    with pytest.raises(BadValue):
        x509.parse_certificate(blob[:at] + b"\xff\xfe" + blob[at + 2:])


def test_deepest_emitted_structure_decodes(ec_key, rng):
    """A composite SPKI inside a chameleon descriptor: the deepest nesting
    this tool emits stays inside the decoder's depth cap."""
    name = parse_name("CN=deep,O=Plant")
    delta_key = composite.composite_keygen(
        (algs.parse_alg_spec("ml-dsa:2"), algs.parse_alg_spec("ecdsa")), rng).to_record()
    base, delta = chameleon.issue_paired(
        chameleon.CertParams(subject=name), chameleon.CertParams(), ec_key, delta_key)
    parsed = x509.parse_certificate(base.emit())
    assert chameleon.reconstruct_delta(parsed).emit() == delta.emit()
    assert x509.verify_certificate(delta, delta.tbs.spki).all_valid


def test_parse_rejects_unique_ids(ec_key):
    cert = _self_signed(ec_key, add_default_extensions=False)
    tbs_value = der.decode(cert.tbs_der)
    extra = der.DerValue(1, cls=der.CONTEXT, constructed=True,
                         children=(der.octet_string(b"x"),))
    bad_tbs = der.seq(*tbs_value.children, extra)
    blob = der.encode(der.seq(bad_tbs,
                              cert.signature_alg.to_der_value(),
                              der.bit_string(cert.signature)))
    with pytest.raises(NotACertificate):
        x509.parse_certificate(blob)


def test_parse_v1_without_version_tag(ec_key):
    """A v1-style TBS with no [0] tag still parses (view tolerance)."""
    cert = _self_signed(ec_key, add_default_extensions=False)
    tbs_value = der.decode(cert.tbs_der)
    v1_tbs = der.seq(*tbs_value.children[1:])  # drop the version wrapper
    blob = der.encode(der.seq(v1_tbs, cert.signature_alg.to_der_value(),
                              der.bit_string(cert.signature)))
    doc = x509.parse_certificate(blob)
    assert doc.tbs.version == 0
    assert doc.tbs.serial == cert.tbs.serial


def test_v1_certificate_is_written_back_without_a_version_field(ec_key):
    """DER leaves out the DEFAULT v1, so a v1 TBS re-encodes to the bytes
    it was read from; cryptography reads the same certificate as v1."""
    cert = _self_signed(ec_key, add_default_extensions=False)
    v1_tbs = der.seq(*der.decode(cert.tbs_der).children[1:])
    doc = x509.parse_certificate(_certificate_blob(v1_tbs, ec_key))
    assert doc.tbs.version == 0
    assert doc.tbs.der == doc.tbs_der == der.encode(v1_tbs)
    theirs = cryptography.x509.load_der_x509_certificate(doc.emit())
    assert theirs.version == cryptography.x509.Version.v1


def _refused_by_view_and_verify(blob, tmp_path, capsys, message):
    """view and verify exit 4 with message; from PEM, view does not fall
    back to reading a request."""
    path = tmp_path / "c.pem"
    pem.write_pem(path, pem.LABEL_CERTIFICATE, blob)
    for command in ("view", "verify"):
        assert cli.main([command, str(path)]) == 4
        assert capsys.readouterr() == ("", f"pqcli: {message}\n")


def test_written_out_v1_version_is_refused_as_the_oracle_refuses_it(ec_key, tmp_path, capsys):
    """[0] INTEGER 0 writes out the DEFAULT v1, which DER forbids (X.690
    11.5): cryptography says EncodedDefault, pqcli NotACertificate."""
    cert = _self_signed(ec_key, add_default_extensions=False)
    tbs = der.seq(der.explicit(0, der.integer(0)), *der.decode(cert.tbs_der).children[1:])
    blob = _certificate_blob(tbs, ec_key)
    with pytest.raises(ValueError, match="EncodedDefault"):
        cryptography.x509.load_der_x509_certificate(blob)
    message = "version field encodes the DEFAULT v1"
    with pytest.raises(NotACertificate, match=f"^{message}$"):
        x509.parse_certificate(blob)
    _refused_by_view_and_verify(blob, tmp_path, capsys, message)


def test_printable_string_outside_its_alphabet_is_refused_as_the_oracle_refuses_it(
        ec_key, tmp_path, capsys):
    """A PrintableString holding '@' (outside X.680 41.4's alphabet),
    spliced into a signed TBS, since der.printable refuses to write it:
    cryptography refuses to load it, pqcli reads BadValue, and view and
    verify exit 4."""
    tbs_der = _self_signed(ec_key, subject="SERIALNUMBER=DQE").tbs_der.replace(b"DQE", b"D@E")
    blob = _certificate_blob(der.decode(tbs_der), ec_key)
    with pytest.raises(ValueError, match="PrintableString"):
        cryptography.x509.load_der_x509_certificate(blob)
    message = "not a PrintableString: 'D@E'"
    with pytest.raises(BadValue, match=f"^{re.escape(message)}$"):
        x509.parse_certificate(blob)
    _refused_by_view_and_verify(blob, tmp_path, capsys, message)


_CN_WITHOUT_VALUE = der.seq(der.set_of(der.seq(der.oid_value(oids.AT_COMMON_NAME))))


# TBS children: [0] version, serial, algorithm, issuer, validity, subject,
# SPKI, [3] extensions. Each case replaces one child by a list of values.
@pytest.mark.parametrize("index, replace, error, message", [
    (4, lambda v: [der.seq(v.children[0])], NotACertificate, "validity needs two times"),
    (0, lambda v: [der.DerValue(0, cls=der.CONTEXT, content=der.encode(v.children[0]))],
     NotACertificate, "malformed version field"),
    (0, lambda v: [v._replace(children=v.children * 2)],
     NotACertificate, "malformed version field"),
    (0, lambda v: [der.explicit(0, der.integer(3))],
     NotACertificate, "unsupported certificate version 3"),
    (7, lambda v: [v, v], NotACertificate, "malformed extensions field"),
    (2, lambda v: [der.seq()], BadValue, "AlgorithmIdentifier needs 1 or 2 fields"),
    (2, lambda v: [der.seq(*v.children, der.null(), der.null())],
     BadValue, "AlgorithmIdentifier needs 1 or 2 fields"),
    (6, lambda v: [der.seq(v.children[0])],
     BadValue, "SubjectPublicKeyInfo needs algorithm and key"),
    (6, lambda v: [der.seq(*v.children, v.children[1])],
     BadValue, "SubjectPublicKeyInfo needs algorithm and key"),
    (3, lambda v: [_CN_WITHOUT_VALUE], BadTag, "AttributeTypeAndValue needs type and value"),
    (6, lambda v: [v, der.integer(1)],
     NotACertificate, "unexpected field after subjectPublicKeyInfo"),
], ids=["one-time-validity", "primitive-version", "two-child-version", "version-3",
        "second-extensions", "algorithm-0-fields", "algorithm-3-fields", "spki-1-field",
        "spki-3-fields", "attribute-without-value", "universal-field-after-spki"])
def test_malformed_tbs_field_is_refused(ec_key, tmp_path, capsys, index, replace, error,
                                        message):
    children = list(der.decode(_self_signed(ec_key).tbs_der).children)
    children[index:index + 1] = replace(children[index])
    blob = _certificate_blob(der.seq(*children), ec_key)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        x509.parse_certificate(blob)
    _refused_by_view_and_verify(blob, tmp_path, capsys, message)


def test_alt_verdict_needs_the_alternative_extensions(ec_key):
    with pytest.raises(MalformedAltExtension,
                       match="^certificate carries no alternative extensions$"):
        x509.alt_verdict(_self_signed(ec_key))


def test_parse_unknown_algorithm_cert_for_view():
    """Certificates full of unregistered OIDs still parse and render."""
    name = parse_name("CN=alien")
    spki = algs.SubjectPublicKeyInfo(
        algs.AlgorithmIdentifier(oids.ObjectIdentifier("1.3.6.1.4.1.99999.1")),
        b"\xaa" * 16)
    alien_alg = algs.AlgorithmIdentifier(oids.ObjectIdentifier("1.3.6.1.4.1.99999.2"))
    validity = der.seq(der.encode_time(datetime.datetime(2026, 1, 1, tzinfo=UTC)),
                       der.encode_time(datetime.datetime(2027, 1, 1, tzinfo=UTC)))
    tbs = x509.TbsCertificate(2, 5, alien_alg, name, validity, name, spki)
    doc = x509.CertificateDocument(tbs, tbs.der, alien_alg, b"\x00\x11")
    back = x509.parse_certificate(doc.emit())
    text = x509.render_text(back)
    assert "1.3.6.1.4.1.99999.1" in text
    assert "view only" in text
    report = x509.verify_certificate(back, back.tbs.spki)
    assert report.native_sig == x509.UNSUPPORTED


def test_render_text_basics(ec_key):
    cert = _self_signed(ec_key, subject="CN=render,O=Acme")
    text = x509.render_text(cert)
    assert "CN=render,O=Acme" in text
    assert "ecdsa-with-SHA256" in text
    assert "basicConstraints" in text
    assert "subjectKeyIdentifier" in text
    assert f"{cert.tbs.serial:x}" in text
    assert "Alt Public Key Info" not in text  # classical certificate


def test_render_text_prints_a_negative_serial_in_hex(ec_key):
    """RFC 5280 asks for a positive serial, but a read certificate may hold
    any INTEGER; openssl x509 -serial prints -255 as -FF."""
    cert = _self_signed(ec_key, add_default_extensions=False)
    tbs = der.decode(cert.tbs_der)
    tbs = tbs._replace(children=(tbs.children[0], der.integer(-255)) + tbs.children[2:])
    doc = x509.parse_certificate(_certificate_blob(tbs, ec_key))
    assert doc.tbs.serial == -255
    assert "        Serial Number: -ff\n" in x509.render_text(doc)


def test_generalized_time_beyond_2049(ec_key):
    name = parse_name("CN=longlived")
    start = datetime.datetime(2049, 6, 1, tzinfo=UTC)
    end = datetime.datetime(2051, 6, 1, tzinfo=UTC)
    tbs = x509.build_tbs(name, name, algs.spki_for_key(ec_key), (start, end),
                         algs.signature_algorithm_for(ec_key.spec))
    cert = x509.sign_certificate(tbs, ec_key)
    back = x509.parse_certificate(cert.emit())
    assert back.tbs.not_before == start
    assert back.tbs.not_after == end
    assert back.emit() == cert.emit()


def test_write_and_reload_from_disk(tmp_path, ec_key):
    cert = _self_signed(ec_key)
    path = tmp_path / "cert.pem"
    pem.write_pem(path, pem.LABEL_CERTIFICATE, cert.emit())
    blocks = pem.read_pem(path)
    assert blocks == [(pem.LABEL_CERTIFICATE, cert.emit())]


def test_sign_certificate_alt_branch_issues_catalyst(ec_key, ml2_key):
    name = parse_name("CN=hybrid")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(ec_key), x509.default_validity(7),
                         algs.signature_algorithm_for(ec_key.spec))
    cert = x509.sign_certificate(tbs, ec_key, ml2_key)
    assert tuple(e.oid for e in cert.tbs.extensions[-3:]) == x509.ALT_EXTENSION_OIDS
    assert x509.alt_preimage(cert.tbs_der) == dataclasses.replace(
        cert.tbs, extensions=cert.tbs.extensions[:-1]).der
    report = x509.verify_certificate(cert, cert.tbs.spki)
    assert (report.native_sig, report.alt_sig) == (x509.VALID, x509.VALID)
    with pytest.raises(DuplicateExtension):
        x509.sign_certificate(cert.tbs, ec_key, ml2_key)
    # the algorithm check runs before either signature
    with pytest.raises(AlgorithmMismatch):
        x509.sign_certificate(tbs, ml2_key, ec_key)


def test_verify_issued_adds_the_delta_verdict_verify_certificate_leaves_out(ec_key, ml2_key,
                                                                           rng):
    base, _ = chameleon.issue_paired(chameleon.CertParams(), chameleon.CertParams(),
                                     ec_key, ml2_key, rng=rng)
    assert x509.verify_certificate(base, base.tbs.spki).delta_sig is None
    report = x509.verify_issued(base, base)
    assert (report.native_sig, report.delta_sig) == (x509.VALID, x509.VALID)
    assert report.all_valid
    cert = _self_signed(ec_key)
    plain = x509.verify_issued(cert, cert)
    assert plain.delta_sig is None and plain.all_valid


def test_read_document_prefers_the_certificate_block(ec_key):
    cert = _self_signed(ec_key, subject="CN=cert")
    csr = x509.build_csr(parse_name("CN=req"), ec_key)
    for text in (cert.emit_pem() + csr.emit_pem(), csr.emit_pem() + cert.emit_pem()):
        assert x509.read_document(text.encode()) == cert
    assert x509.read_document(csr.emit_pem().encode()) == csr
    assert x509.read_document(cert.emit()) == cert


def test_explicit_critical_false_is_rejected_as_the_oracle_rejects_it(ec_key, tmp_path):
    """DER never encodes a DEFAULT value (X.690 11.5): an extension that
    writes out critical FALSE would re-encode without it, so the TBS
    would not round-trip. cryptography rejects it too."""
    good = _self_signed(ec_key).emit()
    cert = der.decode(good)
    tbs = cert.children[0]
    index = next(i for i, child in enumerate(tbs.children)
                 if child.cls == der.CONTEXT and child.tag == 3)
    extensions = tbs.children[index].children[0]
    first = extensions.children[0]
    assert len(first.children) == 2  # non-critical, so no BOOLEAN
    spelled_out = der.seq(first.children[0], der.boolean(False), first.children[1])
    extensions = extensions._replace(children=(spelled_out,) + extensions.children[1:])
    tbs = tbs._replace(children=tbs.children[:index] + (der.explicit(3, extensions),)
                       + tbs.children[index + 1:])
    bad = der.encode(cert._replace(children=(tbs,) + cert.children[1:]))
    cryptography.x509.load_der_x509_certificate(good)
    with pytest.raises(ValueError):
        cryptography.x509.load_der_x509_certificate(bad)
    with pytest.raises(BadValue):
        x509.parse_certificate(bad)
    path = tmp_path / "c.der"
    path.write_bytes(bad)
    for command in ("view", "verify"):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([command, str(path)]) == 4


def _certificate_blob(tbs, key):
    """A certificate over the TBS DerValue tbs, signed by key."""
    alg = algs.signature_algorithm_for(key.spec)
    return der.encode(der.seq(tbs, alg.to_der_value(),
                              der.bit_string(algs.sign(key.spec, key, der.encode(tbs)))))


def certificate_with_a_repeated_extension(key):
    """A self-signed certificate whose TBS lists basicConstraints twice,
    which RFC 5280 4.2 forbids; written with der, since a TbsCertificate
    refuses it."""
    tbs = der.decode(_self_signed(key).tbs_der)
    extensions = tbs.children[-1].children[0]
    assert extensions.children[0].children[0].as_oid() == oids.EXT_BASIC_CONSTRAINTS
    repeated = der.explicit(3, der.seq(*extensions.children, extensions.children[0]))
    return _certificate_blob(tbs._replace(children=tbs.children[:-1] + (repeated,)), key)


def certificate_with_another_tbs_algorithm(key, inner):
    """A self-signed certificate with a good signature whose TBS signature
    field differs from its outer signatureAlgorithm, the key's, which RFC
    5280 4.1.1.2 forbids. inner is "sha384" (ecdsa-with-SHA384) or "null"
    (the key's own algorithm with NULL parameters the outer field leaves out)."""
    outer = algs.signature_algorithm_for(key.spec)
    inner = {"sha384": algs.AlgorithmIdentifier(oids.ObjectIdentifier("1.2.840.10045.4.3.3")),
             "null": algs.AlgorithmIdentifier(outer.oid, der.null())}[inner]
    tbs = der.decode(_self_signed(key).tbs_der)
    assert tbs.children[2] == outer.to_der_value()
    return _certificate_blob(tbs._replace(children=tbs.children[:2] + (inner.to_der_value(),)
                                          + tbs.children[3:]), key)


def _composite_key(ml2_key, ec_key):
    return composite.CompositeKeyMaterial(tuple(
        composite.CompositeComponent.of(k) for k in (ml2_key, ec_key))).to_record()


@pytest.mark.parametrize("issuer, inner, code", [("ec", "sha384", 5), ("ml-dsa", "null", 5),
                                                 ("composite", "null", 7)])
def test_tbs_algorithm_that_differs_from_the_outer_one_makes_the_path_invalid(
        issuer, inner, code, ec_key, ml2_key, tmp_path, capsys):
    key = {"ec": ec_key, "ml-dsa": ml2_key, "composite": _composite_key(ml2_key, ec_key)}[issuer]
    blob = certificate_with_another_tbs_algorithm(key, inner)
    cert = x509.parse_certificate(blob)
    report = x509.verify_certificate(cert, cert.tbs.spki)
    assert report.native_sig == x509.INVALID
    assert "signature algorithm differs between TBS and certificate" in report.chain_notes
    assert not x509.verify_certificate_signature(cert, cert.tbs.spki).overall
    pem.write_pem(tmp_path / "c.pem", pem.LABEL_CERTIFICATE, blob)
    assert cli.main(["verify", str(tmp_path / "c.pem")]) == code
    assert "signature: invalid" in capsys.readouterr().out


def test_composite_tbs_algorithm_that_differs_gives_one_warning(ec_key, ml2_key, tmp_path,
                                                                 capsys):
    """The outer algorithm is the composite key's: the TBS field alone is at
    fault, and only that is said."""
    blob = certificate_with_another_tbs_algorithm(_composite_key(ml2_key, ec_key), "null")
    pem.write_pem(tmp_path / "c.pem", pem.LABEL_CERTIFICATE, blob)
    assert cli.main(["verify", str(tmp_path / "c.pem")]) == 7
    assert capsys.readouterr().err == (
        "warning: self-signed (subject equals issuer)\n"
        "warning: signature algorithm differs between TBS and certificate\n")


def test_cryptography_refuses_a_tbs_algorithm_that_differs_from_the_outer_one(ec_key):
    cert = cryptography.x509.load_der_x509_certificate(
        certificate_with_another_tbs_algorithm(ec_key, "sha384"))
    with pytest.raises(ValueError, match="Inner and outer signature algorithms do not match"):
        cert.verify_directly_issued_by(cert)


def test_repeated_extension_is_refused_as_the_oracle_refuses_it(ec_key, tmp_path, capsys):
    """cryptography refuses the second basicConstraints (DuplicateExtension);
    parse_certificate says BadValue, and view and verify exit 4."""
    blob = certificate_with_a_repeated_extension(ec_key)
    with pytest.raises(cryptography.x509.DuplicateExtension):
        cryptography.x509.load_der_x509_certificate(blob).extensions
    with pytest.raises(BadValue, match="duplicate extension 2.5.29.19"):
        x509.parse_certificate(blob)
    path = tmp_path / "c.pem"
    pem.write_pem(path, pem.LABEL_CERTIFICATE, blob)
    for command in ("view", "verify"):
        assert cli.main([command, str(path)]) == 4
        assert capsys.readouterr() == ("", "pqcli: duplicate extension 2.5.29.19\n")


def _oracle_certificate(shape, keys, rng):
    name = parse_name("CN=oracle,O=Plant")
    if shape.startswith("paired"):
        pair = chameleon.issue_paired(
            chameleon.CertParams(subject=name, extensions=(x509.basic_constraints_extension(),)),
            chameleon.CertParams(), keys["ecdsa"], keys["ml-dsa:3"], rng=rng)
        return pair[shape == "paired delta"]
    if shape == "ml-dsa:3_rsa:2048":
        material = composite.CompositeKeyMaterial(tuple(
            composite.CompositeComponent.of(keys[text]) for text in ("ml-dsa:3", "rsa:2048")))
        return composite.issue_composite_certificate(name, material, rng=rng)
    native, _, alt = shape.partition(",")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(keys[native]), x509.default_validity(30),
                         algs.signature_algorithm_for(keys[native].spec), rng=rng)
    return x509.sign_certificate(tbs, keys[native], *([keys[alt]] if alt else []))


@pytest.mark.parametrize("shape", [
    "rsa:2048", "ecdsa", "ml-dsa:3", "slh-dsa:128f", "ml-dsa:3_rsa:2048", "ecdsa,ml-dsa:3",
    "paired base", "paired delta"])
def test_cryptography_reads_what_pqcli_reads(shape, rsa_key, ec_key, ml3_key, slh_key, rng):
    """cryptography 48 as a strict parser oracle for every shape: the same
    signed TBS bytes, serial, names (RFC 4514 lists the attributes last
    first), validity, extensions in order and signature algorithm."""
    keys = {"rsa:2048": rsa_key, "ecdsa": ec_key, "ml-dsa:3": ml3_key, "slh-dsa:128f": slh_key}
    ours = x509.parse_certificate(_oracle_certificate(shape, keys, rng).emit())
    theirs = cryptography.x509.load_der_x509_certificate(ours.emit())
    t = ours.tbs
    assert theirs.tbs_certificate_bytes == ours.tbs_der
    assert theirs.serial_number == t.serial
    for name, their_name in ((t.issuer, theirs.issuer), (t.subject, theirs.subject)):
        assert their_name.rfc4514_string() == ",".join(reversed(str(name).split(",")))
    assert (theirs.not_valid_before_utc, theirs.not_valid_after_utc) == (t.not_before,
                                                                         t.not_after)
    assert ([(e.oid.dotted_string, e.critical) for e in theirs.extensions]
            == [(str(e.oid), e.critical) for e in t.extensions])
    assert theirs.signature_algorithm_oid.dotted_string == str(ours.signature_alg.oid)


@pytest.mark.parametrize("fields, message", [
    (0, "empty TBS"),
    (3, "TBS is missing required fields"),  # version, serial, algorithm
])
def test_parse_rejects_a_truncated_tbs(ec_key, fields, message):
    cert = _self_signed(ec_key)
    tbs = der.seq(*der.decode(cert.tbs_der).children[:fields])
    with pytest.raises(NotACertificate, match=message):
        x509.parse_certificate(_certificate_blob(tbs, ec_key))


def test_composite_signature_that_is_not_bit_strings_is_structural(tmp_path, rng):
    material = composite.composite_keygen(
        (algs.parse_alg_spec("ML-DSA:2"), algs.parse_alg_spec("ECDSA")), rng=rng)
    cert = composite.issue_composite_certificate(parse_name("CN=c"), material, rng=rng)
    octets = der.encode(der.seq(der.octet_string(b"x"), der.octet_string(b"y")))
    path = tmp_path / "c.pem"
    path.write_text(dataclasses.replace(cert, signature=octets).emit_pem())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["verify", str(path)]) == 7
    assert out.getvalue().splitlines() == ["composite signature: invalid (structural)"]
    assert "warning: signature is not a sequence of bit strings" in err.getvalue().splitlines()


# -- validity written as GeneralizedTime before 2050 ----------------------

JANUARY = (datetime.datetime(2026, 1, 1, tzinfo=UTC), datetime.datetime(2026, 1, 31, tzinfo=UTC))


def _generalized(tbs):
    """The TBS DerValue of tbs with its validity written as GeneralizedTime,
    which RFC 5280 4.1.2.5 lets a relying party meet before 2050."""
    fields = list(tbs.to_der_value().children)
    fields[4] = der.seq(*(der.DerValue(der.GENERALIZED_TIME,
                                       content=t.strftime("%Y%m%d%H%M%SZ").encode())
                          for t in (tbs.not_before, tbs.not_after)))
    return der.seq(*fields)


def _self_signed_tbs(key, subject, validity, extensions=()):
    name = parse_name(subject)
    return x509.build_tbs(name, name, algs.spki_for_key(key), validity,
                          algs.signature_algorithm_for(key.spec), extensions=extensions,
                          add_default_extensions=False)


def _check_generalized_pair(base_blob, delta_blob, tmp_path):
    """The delta rebuilds byte-exactly from the base and verifies; both
    certificates re-emit their TBS as read, and cryptography loads both."""
    base, delta = x509.parse_certificate(base_blob), x509.parse_certificate(delta_blob)
    for cert in (base, delta):
        assert cert.tbs.der == cert.tbs_der
        assert cryptography.x509.load_der_x509_certificate(cert.emit())
    assert x509.reconstruct_delta(base).emit() == delta_blob
    report = x509.verify_issued(base, base)
    assert (report.native_sig, report.delta_sig) == (x509.VALID, x509.VALID)
    path = tmp_path / "base.pem"
    path.write_text(base.emit_pem())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["verify", str(path)]) == 0
    assert out.getvalue().splitlines() == ["native signature: valid", "delta signature: valid"]
    assert err.getvalue().splitlines() == ["warning: expired",
                                           "warning: self-signed (subject equals issuer)"]


def test_delta_inheriting_a_generalized_time_validity_rebuilds(ec_key, ml2_key, tmp_path):
    delta_blob = _certificate_blob(
        _generalized(_self_signed_tbs(ml2_key, "CN=pair", JANUARY)), ml2_key)
    base_tbs = x509.TbsCertificate.from_der_value(
        _generalized(_self_signed_tbs(ec_key, "CN=pair", JANUARY)))
    descriptor = x509.describe_delta(base_tbs, x509.parse_certificate(delta_blob))
    assert descriptor.validity is None  # written alike in both
    dcd = x509.ExtensionBlock(oids.EXT_DELTA_CERTIFICATE_DESCRIPTOR, False, descriptor.der)
    base_blob = _certificate_blob(
        _generalized(_self_signed_tbs(ec_key, "CN=pair", JANUARY, (dcd,))), ec_key)
    _check_generalized_pair(base_blob, delta_blob, tmp_path)


@pytest.mark.parametrize("base_validity", [
    JANUARY, (JANUARY[0], JANUARY[1] + datetime.timedelta(days=28))],
    ids=["same times", "other times"])
def test_descriptor_keeps_its_own_generalized_time_validity(ec_key, ml2_key, tmp_path,
                                                            base_validity):
    """Beside a base whose validity is UTCTime, the descriptor's [2] field
    carries the delta's GeneralizedTime validity, even for equal times."""
    delta_blob = _certificate_blob(
        _generalized(_self_signed_tbs(ml2_key, "CN=pair", JANUARY)), ml2_key)
    base_tbs = _self_signed_tbs(ec_key, "CN=pair", base_validity)
    descriptor = x509.describe_delta(base_tbs, x509.parse_certificate(delta_blob))
    assert tuple(map(der.decode_time, descriptor.validity.children)) == JANUARY
    assert b"\x18\x0f20260101000000Z" in descriptor.der
    assert x509.DeltaCertificateDescriptor.from_der(descriptor.der).der == descriptor.der
    dcd = x509.ExtensionBlock(oids.EXT_DELTA_CERTIFICATE_DESCRIPTOR, False, descriptor.der)
    base = x509.sign_certificate(
        _self_signed_tbs(ec_key, "CN=pair", base_validity, (dcd,)), ec_key)
    _check_generalized_pair(base.emit(), delta_blob, tmp_path)


def test_replacing_the_validity_replaces_both_times(ec_key):
    """The times are decoded from the SEQUENCE a TBS holds, so they cannot
    disagree with what it writes."""
    tbs = _self_signed(ec_key).tbs
    validity = _generalized(_self_signed_tbs(ec_key, "CN=pair", JANUARY)).children[4]
    moved = dataclasses.replace(tbs, validity=validity)
    assert (moved.not_before, moved.not_after) == JANUARY
    assert der.decode(moved.der).children[4] == validity
    with pytest.raises(ValueError):  # the times follow the validity only
        dataclasses.replace(tbs, not_before=JANUARY[0])
    with pytest.raises(NotACertificate, match="^validity needs two times$"):
        dataclasses.replace(tbs, validity=der.seq(validity.children[0]))
