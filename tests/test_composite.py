import dataclasses
import random

import pytest

from pqcli import algs, composite, der, oids, x509
from pqcli.errors import (
    KeyMismatch,
    MissingPrivateKey,
    NestedComposite,
    TooFewComponents,
    TooManyComponents,
)


@pytest.fixture
def key_pair(rng):
    specs = (algs.parse_alg_spec("ML-DSA:2"), algs.parse_alg_spec("ECDSA"))
    return composite.composite_keygen(specs, rng=random.Random(rng.random()))


def test_component_count_limits(rng):
    one = (algs.parse_alg_spec("ECDSA"),)
    with pytest.raises(TooFewComponents):
        composite.composite_keygen(one, rng=rng)
    five = tuple(algs.parse_alg_spec("ECDSA") for _ in range(5))
    with pytest.raises(TooManyComponents):
        composite.composite_keygen(five, rng=rng)


def test_nested_composite_rejected():
    inner = algs.parse_alg_spec("ML-DSA_RSA")
    comp = composite.CompositeComponent(inner, None)
    with pytest.raises(NestedComposite):
        composite.CompositeKeyMaterial((comp, comp))


def test_outer_spki_shape(key_pair):
    spki = algs.spki_for_key(key_pair.to_record())
    assert spki.algorithm.oid == oids.COMPOSITE_INTERIM
    # the key bits decode to a SEQUENCE of component SPKIs
    inner = der.decode(spki.key_bits)
    assert inner.tag == der.SEQUENCE
    assert len(inner.children) == 2


def test_sign_verify_and_policy(key_pair):
    msg = b"composite signing sample"
    sig = composite.composite_sign(key_pair, msg)
    assert len(sig.parts) == 2

    result = composite.composite_verify(key_pair, msg, sig)
    assert result.components == (x509.VALID, x509.VALID)
    assert result.overall and result.note is None

    # zeroing one part flips only that component; overall AND fails
    broken = composite.CompositeSignatureValue(
        (sig.parts[0], bytes(len(sig.parts[1]))))
    result = composite.composite_verify(key_pair, msg, broken)
    assert result.components == (x509.VALID, x509.INVALID)
    assert not result.overall


def test_order_sensitivity(key_pair):
    msg = b"order matters"
    sig = composite.composite_sign(key_pair, msg)
    swapped = composite.CompositeSignatureValue((sig.parts[1], sig.parts[0]))
    result = composite.composite_verify(key_pair, msg, swapped)
    assert not result.overall
    assert x509.INVALID in result.components


def test_count_mismatch_is_structural(key_pair):
    msg = b"three parts, two keys"
    sig = composite.composite_sign(key_pair, msg)
    padded = composite.CompositeSignatureValue(sig.parts + (b"\x00\x01",))
    result = composite.composite_verify(key_pair, msg, padded)
    assert result.components == ()
    assert not result.overall
    assert result.note is not None


def test_verify_raw_total_on_garbage(key_pair):
    spec = key_pair.spec
    assert algs.verify(spec, key_pair.public_der(), b"m", b"not a der sig") is False
    assert algs.verify(spec, b"junk", b"m", b"junk") is False


def test_verify_raw_accepts_valid(key_pair):
    msg = b"encoded route"
    sig = composite.composite_sign(key_pair, msg)
    assert algs.verify(key_pair.spec, key_pair.public_der(), msg, sig.der) is True


def test_signature_value_round_trip(key_pair):
    sig = composite.composite_sign(key_pair, b"abc")
    back = composite.CompositeSignatureValue.from_der(sig.der)
    assert back.parts == sig.parts
    assert back.der == sig.der


def test_private_container_round_trip(key_pair):
    blob = key_pair.private_der()
    record = algs.load_private_key(blob)
    assert record.spec.family == algs.FAMILY_COMPOSITE
    assert record.spec.components[0].family == "ml-dsa"
    assert record.spec.components[1].family == "ecdsa"
    # reloaded key signs compatibly with the original public half
    material = composite.material_from_private(record.spec, record.private)
    sig = composite.composite_sign(material, b"reload check")
    assert composite.composite_verify(key_pair, b"reload check", sig).overall


def test_component_order_preserved_in_container(rng):
    specs = (algs.parse_alg_spec("ECDSA"), algs.parse_alg_spec("ML-DSA:2"),
             algs.parse_alg_spec("RSA:1024"))
    material = composite.composite_keygen(specs, rng=rng)
    record = algs.load_private_key(material.private_der())
    families = tuple(c.family for c in record.spec.components)
    assert families == ("ecdsa", "ml-dsa", "rsa")


def test_public_only_material_cannot_sign(key_pair):
    material = composite.material_from_public(key_pair.spec, key_pair.public_der())
    with pytest.raises(MissingPrivateKey):
        material.private_der()
    with pytest.raises(MissingPrivateKey):
        composite.composite_sign(material, b"nope")
    with pytest.raises(MissingPrivateKey):
        algs.sign(material.components[0].spec, material.components[0], b"nope")


def test_component_without_its_loaded_key_stops_every_signature(key_pair, monkeypatch):
    """A component built by hand from a record's encodings carries no
    loaded key: composite_sign refuses it before the first component signs."""
    first, second = key_pair.components
    keyless = composite.CompositeComponent(second.spec, second.spki, second.private)
    signed = []
    monkeypatch.setattr(algs, "sign", lambda spec, record, message: signed.append(spec))
    with pytest.raises(MissingPrivateKey, match=r"^component 1 \(ecdsa:P-256\)"):
        composite.composite_sign(composite.CompositeKeyMaterial((first, keyless)), b"m")
    assert signed == []


def test_public_count_mismatch_rejected(key_pair):
    three = algs.parse_alg_spec("ML-DSA:2_ECDSA_RSA:1024")
    with pytest.raises(KeyMismatch):
        composite.material_from_public(three, key_pair.public_der())


def test_public_key_of_another_spec_is_a_key_mismatch(ml3_key, ec_key):
    """The spec is read from the key; the caller's spec only checks it and
    never labels the components."""
    key = composite.CompositeKeyMaterial(tuple(map(composite.CompositeComponent.of,
                                                   (ml3_key, ec_key))))
    two = algs.parse_alg_spec("ml-dsa:2_ecdsa")
    with pytest.raises(KeyMismatch, match=r"^the public key is ml-dsa:3_ecdsa:P-256, "
                                          r"not ml-dsa:2_ecdsa:P-256$"):
        composite.material_from_public(two, key.public_der())
    signature = composite.composite_sign(key, b"m").der
    assert not algs.verify(two, key.public_der(), b"m", signature)
    assert algs.verify(key.spec, key.public_der(), b"m", signature)
    read = composite.material_from_public(key.spec, key.public_der())
    assert read.public_der() == key.public_der()


def test_empty_message(key_pair):
    sig = composite.composite_sign(key_pair, b"")
    assert composite.composite_verify(key_pair, b"", sig).overall


def test_self_signed_certificate(key_pair):
    from pqcli.names import parse_name
    cert = composite.issue_composite_certificate(parse_name("CN=multi"), key_pair)
    report = x509.verify_certificate(cert, cert.tbs.spki)
    assert report.composite_components == (x509.VALID, x509.VALID)
    assert report.native_sig == x509.VALID
    assert report.all_valid

    # byte-exact persistence
    back = x509.parse_certificate(cert.emit())
    assert back.emit() == cert.emit()
    again = x509.verify_certificate(back, back.tbs.spki)
    assert again.all_valid


def test_certificate_tamper_detected(key_pair):
    from pqcli.names import parse_name
    cert = composite.issue_composite_certificate(parse_name("CN=multi"), key_pair)
    raw = bytearray(cert.emit())
    raw[-4] ^= 0x20
    doc = x509.parse_certificate(bytes(raw))
    report = x509.verify_certificate(doc, doc.tbs.spki)
    assert not report.all_valid
    assert x509.INVALID in report.composite_components


def test_declared_algorithm_that_disagrees_with_the_composite_key(key_pair):
    from pqcli.names import parse_name
    cert = composite.issue_composite_certificate(parse_name("CN=multi"), key_pair)
    ml_dsa_44 = algs.signature_algorithm_for(algs.parse_alg_spec("ml-dsa:2"))
    relabeled = dataclasses.replace(cert, signature_alg=ml_dsa_44,
                                    tbs=dataclasses.replace(cert.tbs, signature_alg=ml_dsa_44))
    report = x509.verify_certificate(relabeled, relabeled.tbs.spki)
    assert report.native_sig == x509.INVALID
    assert report.composite_components == ()
    assert "signature algorithm does not match the composite key" in report.chain_notes


def test_verify_certificate_signature_wrong_issuer(key_pair, ec_key):
    from pqcli.names import parse_name
    cert = composite.issue_composite_certificate(parse_name("CN=multi"), key_pair)
    result = composite.verify_certificate_signature(cert, algs.spki_for_key(ec_key))
    assert not result.overall
    assert result.note is not None
