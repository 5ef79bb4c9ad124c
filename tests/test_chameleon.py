import dataclasses
import datetime

import pytest

from pqcli import algs, chameleon, cli, der, oids, pem, x509
from pqcli.errors import (
    BadValue,
    DerError,
    DuplicateExtension,
    FieldConflict,
    NoDescriptor,
    ReconstructionMismatch,
)
from pqcli.names import parse_name


@pytest.fixture
def pair(ec_key, ml2_key, rng):
    return chameleon.issue_paired(chameleon.CertParams(), chameleon.CertParams(),
                                  ec_key, ml2_key, rng=rng)


def test_byte_exact_reconstruction(pair):
    base, delta = pair
    rebuilt = chameleon.reconstruct_delta(base)
    assert rebuilt.emit() == delta.emit()


def test_reconstruction_survives_serialization(pair, tmp_path):
    base, delta = pair
    path = tmp_path / "base.pem"
    path.write_text(base.emit_pem())
    back = x509.parse_certificate(path.read_bytes())
    assert chameleon.reconstruct_delta(back).emit() == delta.emit()


def test_both_certificates_self_verify(pair):
    for cert in pair:
        report = x509.verify_certificate(cert, cert.tbs.spki)
        assert report.native_sig == x509.VALID


def test_descriptor_is_last_extension_and_noncritical(pair):
    base, _ = pair
    ext = base.tbs.extensions[-1]
    assert ext.oid == oids.EXT_DELTA_CERTIFICATE_DESCRIPTOR
    assert not ext.critical


def test_minimal_descriptor_when_only_algorithm_differs(pair):
    base, _ = pair
    descriptor = chameleon.descriptor_from_certificate(base)
    # EC base vs ML-DSA delta: the algorithm rides along, nothing else
    assert descriptor.signature_alg is not None
    assert descriptor.issuer is None
    assert descriptor.subject is None
    assert descriptor.validity is None
    assert descriptor.extensions is None


def test_same_algorithm_pair_omits_signature_alg(ec_key, ec384_key, rng):
    base, delta = chameleon.issue_paired(
        chameleon.CertParams(), chameleon.CertParams(), ec_key, ec384_key,
        rng=rng)
    descriptor = chameleon.descriptor_from_certificate(base)
    # both ECDSA-with-SHA256: identical AlgorithmIdentifier, so absent
    assert descriptor.signature_alg is None
    assert chameleon.reconstruct_delta(base).emit() == delta.emit()


def test_fresh_serials(pair):
    base, delta = pair
    assert base.tbs.serial != delta.tbs.serial
    assert chameleon.descriptor_from_certificate(base).serial == delta.tbs.serial


def test_differing_subject_recorded(ec_key, ml2_key, rng):
    base, delta = chameleon.issue_paired(
        chameleon.CertParams(subject=parse_name("CN=base,O=Acme")),
        chameleon.CertParams(subject=parse_name("CN=delta,O=Acme")),
        ec_key, ml2_key, rng=rng)
    descriptor = chameleon.descriptor_from_certificate(base)
    assert str(descriptor.subject) == "CN=delta,O=Acme"
    assert str(descriptor.issuer) == "CN=delta,O=Acme"  # self-signed
    assert chameleon.reconstruct_delta(base).emit() == delta.emit()


def test_differing_validity_recorded(ec_key, ml2_key, rng):
    start = datetime.datetime(2026, 1, 1, tzinfo=datetime.timezone.utc)
    base, delta = chameleon.issue_paired(
        chameleon.CertParams(validity=(start, start + datetime.timedelta(days=90))),
        chameleon.CertParams(validity=(start, start + datetime.timedelta(days=30))),
        ec_key, ml2_key, rng=rng)
    descriptor = chameleon.descriptor_from_certificate(base)
    assert descriptor.validity is not None
    assert descriptor.validity == delta.tbs.validity
    assert chameleon.reconstruct_delta(base).emit() == delta.emit()


def test_differing_extensions_recorded(ec_key, ml2_key, rng):
    base_ext = x509.basic_constraints_extension()
    delta_ext = x509.ExtensionBlock(oids.EXT_SUBJECT_KEY_ID, False,
                                    der.encode(der.octet_string(b"\x01" * 20)))
    base, delta = chameleon.issue_paired(
        chameleon.CertParams(extensions=(base_ext,)),
        chameleon.CertParams(extensions=(delta_ext,)),
        ec_key, ml2_key, rng=rng)
    descriptor = chameleon.descriptor_from_certificate(base)
    assert descriptor.extensions == (delta_ext,)
    assert chameleon.reconstruct_delta(base).emit() == delta.emit()


def test_inherited_extensions_stay_out_of_descriptor(ec_key, ml2_key, rng):
    shared = x509.basic_constraints_extension()
    base, delta = chameleon.issue_paired(
        chameleon.CertParams(extensions=(shared,)),
        chameleon.CertParams(),
        ec_key, ml2_key, rng=rng)
    assert chameleon.descriptor_from_certificate(base).extensions is None
    assert delta.tbs.find_extension(oids.EXT_BASIC_CONSTRAINTS) is not None
    assert chameleon.reconstruct_delta(base).emit() == delta.emit()


def test_delta_cannot_carry_descriptor(ec_key, ml2_key, rng):
    poison = x509.ExtensionBlock(oids.EXT_DELTA_CERTIFICATE_DESCRIPTOR, False,
                                 b"\x30\x00")
    with pytest.raises(FieldConflict):
        chameleon.issue_paired(chameleon.CertParams(),
                               chameleon.CertParams(extensions=(poison,)),
                               ec_key, ml2_key, rng=rng)


def test_empty_delta_extensions_unrepresentable(ec_key, ml2_key, rng):
    with pytest.raises(FieldConflict):
        chameleon.issue_paired(
            chameleon.CertParams(extensions=(x509.basic_constraints_extension(),)),
            chameleon.CertParams(extensions=()),
            ec_key, ml2_key, rng=rng)


def test_no_descriptor_raises(ec_key, rng):
    name = parse_name("CN=plain")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(ec_key),
                         x509.default_validity(7),
                         algs.signature_algorithm_for(ec_key.spec), rng=rng)
    cert = x509.sign_certificate(tbs, ec_key)
    with pytest.raises(NoDescriptor):
        chameleon.reconstruct_delta(cert)


def _swap_descriptor(base, new_value):
    exts = tuple(
        x509.ExtensionBlock(e.oid, e.critical, new_value)
        if e.oid == oids.EXT_DELTA_CERTIFICATE_DESCRIPTOR else e
        for e in base.tbs.extensions)
    tbs = dataclasses.replace(base.tbs, extensions=exts)
    return x509.CertificateDocument(tbs, tbs.der, base.signature_alg,
                                    base.signature)


def test_tampered_signature_value_detected(pair):
    base, _ = pair
    descriptor = chameleon.descriptor_from_certificate(base)
    sig = bytearray(descriptor.signature_value)
    sig[0] ^= 0x01
    broken = dataclasses.replace(descriptor, signature_value=bytes(sig))
    with pytest.raises(ReconstructionMismatch):
        chameleon.reconstruct_delta(_swap_descriptor(base, broken.der))


def test_garbage_descriptor_detected(pair):
    base, _ = pair
    with pytest.raises(ReconstructionMismatch):
        chameleon.reconstruct_delta(_swap_descriptor(base, b"\x04\x02hi"))


def test_descriptor_codec_all_fields(ec_key, ml2_key):
    start = datetime.datetime(2026, 3, 1, tzinfo=datetime.timezone.utc)
    full = chameleon.DeltaCertificateDescriptor(
        serial=456,
        spki=algs.spki_for_key(ml2_key),
        signature_value=b"\x01\x02\x03",
        signature_alg=algs.signature_algorithm_for(ml2_key.spec),
        issuer=parse_name("CN=other"),
        validity=der.seq(der.encode_time(start),
                         der.encode_time(start + datetime.timedelta(days=5))),
        subject=parse_name("CN=other"),
        extensions=(x509.basic_constraints_extension(),),
    )
    back = chameleon.DeltaCertificateDescriptor.from_der(full.der)
    assert back == full
    assert back.der == full.der


def test_descriptor_codec_required_only(ml2_key):
    bare = chameleon.DeltaCertificateDescriptor(
        serial=7, spki=algs.spki_for_key(ml2_key), signature_value=b"\xff")
    back = chameleon.DeltaCertificateDescriptor.from_der(bare.der)
    assert back == bare


def test_descriptor_codec_malformed():
    with pytest.raises(BadValue):
        chameleon.DeltaCertificateDescriptor.from_der(
            der.encode(der.seq(der.integer(1))))
    # a BIT STRING where the public key belongs trips the SPKI decoder
    spki_less = der.seq(der.integer(1), der.bit_string(b"x"), der.integer(2))
    with pytest.raises(DerError):
        chameleon.DeltaCertificateDescriptor.from_der(der.encode(spki_less))


@pytest.mark.parametrize("flaw", [
    "descriptor is missing the public key",
    "descriptor is missing the signature value",
    "trailing fields in descriptor",
    "duplicate extension 2.5.29.19",
])
def test_descriptor_short_of_a_field_or_with_one_too_many(pair, ec_key, tmp_path, capsys, flaw):
    """Read directly it is BadValue; inside a base, reconstruct_delta
    raises ReconstructionMismatch and pqcli verify exits 6."""
    base, _ = pair
    descriptor = chameleon.descriptor_from_certificate(base)
    serial = der.integer(descriptor.serial)
    alg = der.explicit(0, descriptor.signature_alg.to_der_value())
    spki = descriptor.spki.to_der_value()
    bc = x509.basic_constraints_extension()
    fields = {
        "descriptor is missing the public key":
            (serial, alg, der.explicit(1, parse_name("CN=other").to_der_value())),
        "descriptor is missing the signature value": (serial, alg, spki),
        "trailing fields in descriptor":
            (serial, alg, spki, der.bit_string(descriptor.signature_value), der.integer(2)),
        "duplicate extension 2.5.29.19":
            (serial, alg, spki, der.explicit(4, der.seq(*[bc.to_der_value()] * 2)),
             der.bit_string(descriptor.signature_value)),
    }[flaw]
    blob = der.encode(der.seq(*fields))
    with pytest.raises(BadValue, match=flaw):
        chameleon.DeltaCertificateDescriptor.from_der(blob)
    broken = x509.sign_certificate(_swap_descriptor(base, blob).tbs, ec_key)
    with pytest.raises(ReconstructionMismatch, match=f"descriptor does not decode: {flaw}"):
        chameleon.reconstruct_delta(broken)
    path = tmp_path / "base.pem"
    path.write_text(broken.emit_pem())
    assert cli.main(["verify", str(path)]) == 6
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["native signature: valid", "delta signature: invalid"]
    assert f"warning: delta certificate: descriptor does not decode: {flaw}" in captured.err


def test_view_flags_descriptor(pair):
    base, _ = pair
    assert "Delta Certificate Descriptor" in x509.render_text(base)


def test_pq_base_classical_delta(ml2_key, ec_key, rng):
    """The pairing works in either direction."""
    base, delta = chameleon.issue_paired(
        chameleon.CertParams(), chameleon.CertParams(), ml2_key, ec_key,
        rng=rng)
    assert chameleon.reconstruct_delta(base).emit() == delta.emit()
    report = x509.verify_certificate(base, base.tbs.spki)
    assert report.native_sig == x509.VALID


def test_descriptor_among_the_base_extensions_is_rejected(ec_key, ml2_key, rng):
    own = x509.ExtensionBlock(oids.EXT_DELTA_CERTIFICATE_DESCRIPTOR, False, b"\x30\x00")
    with pytest.raises(DuplicateExtension):
        chameleon.issue_paired(
            chameleon.CertParams(extensions=(own,)),
            chameleon.CertParams(extensions=(x509.basic_constraints_extension(),)),
            ec_key, ml2_key, rng=rng)
    # a delta inheriting the base extensions would carry a descriptor itself
    with pytest.raises(FieldConflict):
        chameleon.issue_paired(chameleon.CertParams(extensions=(own,)),
                               chameleon.CertParams(), ec_key, ml2_key, rng=rng)


def test_describe_delta_is_the_inverse_of_reconstruct_delta(ec_key, ml2_key, rng):
    base, delta = chameleon.issue_paired(
        chameleon.CertParams(extensions=(x509.basic_constraints_extension(),)),
        chameleon.CertParams(
            subject=parse_name("CN=delta"),
            validity=(datetime.datetime(2030, 1, 1), datetime.datetime(2031, 1, 1)),
            extensions=(x509.subject_key_id_extension(algs.spki_for_key(ml2_key)),)),
        ec_key, ml2_key, rng=rng)
    bare = dataclasses.replace(base.tbs, extensions=base.tbs.extensions[:-1])
    descriptor = x509.describe_delta(bare, delta)
    assert descriptor == x509.descriptor_from_certificate(base)
    assert None not in (descriptor.signature_alg, descriptor.issuer,
                        descriptor.validity, descriptor.subject, descriptor.extensions)
    assert x509.describe_delta(delta.tbs, delta) == chameleon.DeltaCertificateDescriptor(
        delta.tbs.serial, delta.tbs.spki, delta.signature)


def _with_names(tbs_der, name):
    """tbs_der with its issuer and subject both replaced by name."""
    children = list(der.decode(tbs_der).children)
    children[3] = children[5] = name
    return der.encode(der.seq(*children))


def test_delta_rebuilds_under_names_this_tool_does_not_emit(pair, ec_key, ml2_key):
    """A sound pair from another issuer whose inherited names hold a
    multi-valued RDN and an IA5String: the rebuilt delta re-encodes those
    names as found, so its signature verifies."""
    name = der.seq(
        der.set_of(der.seq(der.oid_value(oids.AT_COMMON_NAME), der.utf8("a")),
                   der.seq(der.oid_value(oids.AT_ORGANIZATION), der.utf8("b"))),
        der.set_of(der.seq(der.oid_value(oids.oid("1.2.840.113549.1.9.1")),
                           der.ia5("who@example.org"))))
    base, delta = pair
    delta_tbs = _with_names(delta.tbs_der, name)
    delta_sig = algs.sign(ml2_key.spec, ml2_key, delta_tbs)
    descriptor = dataclasses.replace(chameleon.descriptor_from_certificate(base),
                                     signature_value=delta_sig)
    base_tbs = _with_names(_swap_descriptor(base, descriptor.der).tbs_der, name)
    blob = x509.CertificateDocument(base.tbs, base_tbs, base.signature_alg,
                                    algs.sign(ec_key.spec, ec_key, base_tbs)).emit()
    rebuilt = chameleon.reconstruct_delta(x509.parse_certificate(blob))
    assert rebuilt.tbs_der == delta_tbs
    assert rebuilt.signature == delta_sig
