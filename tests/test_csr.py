import cryptography.x509
import pytest

from pqcli import algs, cli, der, oids, pem, x509
from pqcli.errors import AlgorithmMismatch, DuplicateExtension, InvalidParameter, NotACsr
from pqcli.names import parse_name


def test_build_and_verify(ec_key, ml2_key, slh_key):
    for key in (ec_key, ml2_key, slh_key):
        doc = x509.build_csr(parse_name("CN=dev1,O=Plant"), key)
        assert doc.subject == parse_name("CN=dev1,O=Plant")
        assert x509.verify_csr(doc)


def test_emit_parse_identity(ml2_key):
    doc = x509.build_csr(parse_name("CN=dev1"), ml2_key)
    blob = doc.emit()
    back = x509.parse_csr(blob)
    assert back.emit() == blob
    assert back.cri_der == doc.cri_der
    assert x509.verify_csr(back)


def test_pem_round_trip(ec_key):
    doc = x509.build_csr(parse_name("CN=pemmed"), ec_key)
    text = doc.emit_pem()
    assert "BEGIN CERTIFICATE REQUEST" in text
    back = x509.parse_csr(text.encode())
    assert back.emit() == doc.emit()


def test_requested_extensions_round_trip(ec_key):
    ext = x509.ExtensionBlock(oids.EXT_KEY_USAGE, True, b"\x03\x02\x05\xa0")
    doc = x509.build_csr(parse_name("CN=ext"), ec_key, extensions=(ext,))
    back = x509.parse_csr(doc.emit())
    assert back.extensions == (ext,)
    assert x509.verify_csr(back)


def test_build_refuses_a_repeated_extension(ec_key):
    ext = x509.ExtensionBlock(oids.EXT_KEY_USAGE, True, b"\x03\x02\x05\xa0")
    with pytest.raises(DuplicateExtension, match="duplicate extension 2.5.29.15"):
        x509.build_csr(parse_name("CN=ext"), ec_key, extensions=(ext, ext))


def test_build_refuses_a_request_that_fails_its_own_check(ec_key, monkeypatch):
    sign = algs.sign
    monkeypatch.setattr(algs, "sign", lambda *args: sign(*args)[:-1] + b"\x00")
    with pytest.raises(AlgorithmMismatch, match="freshly built CSR failed self-verification"):
        x509.build_csr(parse_name("CN=faulty signer"), ec_key)


def test_tampered_subject_fails(ec_key):
    doc = x509.build_csr(parse_name("CN=orig"), ec_key)
    forged_cri = doc.cri_der.replace(b"orig", b"org2")
    forged = x509.CsrDocument(doc.subject, doc.spki, doc.extensions,
                              forged_cri, doc.signature_alg, doc.signature)
    assert not x509.verify_csr(forged)


def test_declared_algorithm_that_disagrees_with_the_key_fails(ec_key):
    """An ECDSA signature declared as ML-DSA-44: openssl req -verify says
    wrong public key type."""
    doc = x509.build_csr(parse_name("CN=mislabeled"), ec_key)
    ml_dsa_44 = algs.signature_algorithm_for(algs.parse_alg_spec("ml-dsa:2"))
    mislabeled = doc._replace(signature_alg=ml_dsa_44)
    assert not x509.verify_csr(x509.parse_csr(mislabeled.emit()))


@pytest.mark.parametrize("key_fixture", ["rsa_key", "ec_key", "ec384_key"])
def test_cryptography_checks_the_request_signature(key_fixture, request):
    """cryptography as a request oracle, for classical keys only: it calls
    even an ML-DSA-44 request from openssl req -new invalid."""
    ext = x509.ExtensionBlock(oids.EXT_KEY_USAGE, True, b"\x03\x02\x05\xa0")
    blob = x509.build_csr(parse_name("CN=dev1,O=Plant"), request.getfixturevalue(key_fixture),
                          extensions=(ext,)).emit()
    theirs = cryptography.x509.load_der_x509_csr(blob)
    assert theirs.is_signature_valid
    assert theirs.subject.rfc4514_string() == "O=Plant,CN=dev1"
    flipped = blob[:-1] + bytes([blob[-1] ^ 1])
    assert not cryptography.x509.load_der_x509_csr(flipped).is_signature_valid


def test_composite_csr_self_signature(rng):
    spec = algs.parse_alg_spec("ml-dsa:2_ecdsa")
    key = algs.generate_keypair(spec, rng)
    doc = x509.build_csr(parse_name("CN=fused"), key)
    assert doc.spki.algorithm.oid == oids.COMPOSITE_INTERIM
    assert x509.verify_csr(doc)
    back = x509.parse_csr(doc.emit())
    assert back.emit() == doc.emit()
    assert x509.verify_csr(back)
    # the signature is a sequence of per-component bit strings
    parts = der.decode(back.signature)
    assert len(parts.children) == 2


def test_verify_issued_reports_a_request_and_verify_csr_is_its_truth_value(rng):
    key = algs.generate_keypair(algs.parse_alg_spec("ml-dsa:2_ecdsa"), rng)
    doc = x509.build_csr(parse_name("CN=fused"), key)
    report = x509.verify_issued(doc, doc)
    assert report == (x509.VALID, None, (x509.VALID, x509.VALID), (), None,
                      report.composite_parts)
    assert [part.spec for part in report.composite_parts] == list(key.spec.components)
    forged = doc._replace(signature=doc.signature[:-1] + bytes([doc.signature[-1] ^ 1]))
    assert x509.verify_issued(forged, forged).composite_components == (x509.VALID, x509.INVALID)
    assert x509.verify_csr(doc) is True and x509.verify_csr(forged) is False
    cert = x509.sign_certificate(x509.build_tbs(doc.subject, doc.subject, doc.spki,
                                                x509.default_validity(1),
                                                doc.signature_alg), key)
    with pytest.raises(InvalidParameter, match="checked under its own key"):
        x509.verify_issued(doc, cert)


def test_parse_rejects_non_csr():
    with pytest.raises(NotACsr):
        x509.parse_csr(b"nonsense")
    with pytest.raises(NotACsr):
        x509.parse_csr(der.encode(der.seq(der.integer(9))))


def test_render_csr_text(slh_key):
    doc = x509.build_csr(parse_name("CN=dump"), slh_key)
    text = x509.render_csr_text(doc)
    assert "CN=dump" in text
    assert "SLH-DSA-SHAKE-128f" in text



def _signed_request(key, *fields):
    """A request signed by key whose info is the SEQUENCE of fields."""
    cri = der.encode(der.seq(*fields))
    alg = algs.signature_algorithm_for(key.spec)
    return x509.CsrDocument(parse_name("CN=attrs"), algs.spki_for_key(key), (), cri, alg,
                            algs.sign(key.spec, key, cri)).emit()


def _info_fields(key):
    return der.integer(0), parse_name("CN=attrs").to_der_value(), algs.spki_for_key(key).to_der_value()


def _attributes(*attributes, tag=0):
    return der.DerValue(tag, cls=der.CONTEXT, constructed=True, children=attributes)


@pytest.mark.parametrize("count", [0, 2])
def test_extension_request_that_is_not_single_valued_is_rejected(ec_key, count):
    """cryptography refuses an extensionRequest SET of zero or two values
    ("Only single-valued attributes are supported"); so does parse_csr."""
    ext = x509.ExtensionBlock(oids.EXT_KEY_USAGE, True, b"\x03\x02\x05\xa0")
    values = der.set_of(*[der.seq(ext.to_der_value())] * count)
    attribute = der.seq(der.oid_value(oids.ATTR_EXTENSION_REQUEST), values)
    blob = _signed_request(ec_key, *_info_fields(ec_key), _attributes(attribute))
    with pytest.raises(ValueError, match="single-valued"):
        cryptography.x509.load_der_x509_csr(blob).extensions
    with pytest.raises(NotACsr, match="extensionRequest attribute must hold exactly one value"):
        x509.parse_csr(blob)


@pytest.mark.parametrize("shape, message", [
    ("too short", "request info is missing required fields"),
    ("version 1", "unsupported request version"),
    ("attributes in [1]", "malformed attributes field"),
])
def test_view_rejects_malformed_request_info(ec_key, tmp_path, capsys, shape, message):
    version, subject, spki = _info_fields(ec_key)
    fields = {"too short": (version, subject),
              "version 1": (der.integer(1), subject, spki, _attributes()),
              "attributes in [1]": (version, subject, spki, _attributes(tag=1))}[shape]
    path = tmp_path / "req.pem"
    pem.write_pem(path, pem.LABEL_CSR, _signed_request(ec_key, *fields))
    assert cli.main(["view", str(path)]) == 4
    assert capsys.readouterr() == ("", f"pqcli: {message}\n")


@pytest.mark.parametrize("shape", ["type, values and a third field", "type alone"])
def test_attribute_that_is_not_a_type_and_a_set_is_rejected(ec_key, tmp_path, capsys, shape):
    """cryptography refuses an attribute SEQUENCE with a trailing field
    (ExtraData) or without its values (ShortData); so do parse_csr and view."""
    ext = x509.ExtensionBlock(oids.EXT_KEY_USAGE, True, b"\x03\x02\x05\xa0")
    fields = {"type, values and a third field": (
                  der.oid_value(oids.ATTR_EXTENSION_REQUEST),
                  der.set_of(der.seq(ext.to_der_value())), der.integer(1)),
              "type alone": (der.oid_value(oids.ATTR_EXTENSION_REQUEST),)}[shape]
    blob = _signed_request(ec_key, *_info_fields(ec_key), _attributes(der.seq(*fields)))
    with pytest.raises(ValueError):
        cryptography.x509.load_der_x509_csr(blob).extensions
    with pytest.raises(NotACsr, match="request attribute must be a type and a SET of values"):
        x509.parse_csr(blob)
    path = tmp_path / "req.pem"
    pem.write_pem(path, pem.LABEL_CSR, blob)
    assert cli.main(["view", str(path)]) == 4
    assert capsys.readouterr() == (
        "", "pqcli: request attribute must be a type and a SET of values\n")


def test_repeated_extension_is_refused_as_the_oracle_refuses_it(ec_key, tmp_path, capsys):
    """RFC 5280 4.2 holds for a request's extension list as for a
    certificate's: cryptography raises DuplicateExtension, view exits 4."""
    bc = x509.basic_constraints_extension().to_der_value()
    attribute = der.seq(der.oid_value(oids.ATTR_EXTENSION_REQUEST), der.set_of(der.seq(bc, bc)))
    blob = _signed_request(ec_key, *_info_fields(ec_key), _attributes(attribute))
    with pytest.raises(cryptography.x509.DuplicateExtension):
        cryptography.x509.load_der_x509_csr(blob).extensions
    path = tmp_path / "req.pem"
    pem.write_pem(path, pem.LABEL_CSR, blob)
    assert cli.main(["view", str(path)]) == 4
    assert capsys.readouterr() == ("", "pqcli: duplicate extension 2.5.29.19\n")


def test_view_prints_the_requested_extensions(ml2_key, tmp_path, capsys):
    critical_bc = x509.basic_constraints_extension()._replace(critical=True)
    ski = x509.subject_key_id_extension(algs.spki_for_key(ml2_key))
    doc = x509.build_csr(parse_name("CN=dev1,O=Plant"), ml2_key, extensions=(critical_bc, ski))
    path = tmp_path / "req.pem"
    path.write_text(doc.emit_pem())
    assert cli.main(["view", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Certificate Request:",
        "    Subject: CN=dev1,O=Plant",
        "    Subject Public Key Info:",
        "        Algorithm: ML-DSA-44",
        "            Key: 1312 bytes",
        "    Requested Extensions:",
        "        basicConstraints: critical",
        "        subjectKeyIdentifier:",
        "    Signature Algorithm: ML-DSA-44",
        "    Signature: 2420 bytes",
    ]


def test_well_formed_attribute_of_another_type_is_skipped(ec_key):
    """A challengePassword attribute is read past; cryptography reads it too."""
    challenge = der.seq(der.oid_value(oids.oid("1.2.840.113549.1.9.7")),
                        der.set_of(der.DerValue(0x0C, content=b"secret")))
    blob = _signed_request(ec_key, *_info_fields(ec_key), _attributes(challenge))
    assert len(cryptography.x509.load_der_x509_csr(blob).extensions) == 0
    doc = x509.parse_csr(blob)
    assert doc.extensions == ()
    assert x509.verify_csr(doc)
