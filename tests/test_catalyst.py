import dataclasses

import pytest

from pqcli import algs, catalyst, der, oids, x509
from pqcli.errors import DuplicateExtension, MalformedAltExtension
from pqcli.names import parse_name


def _base_tbs(native_key, subject="CN=hybrid", **kwargs):
    name = parse_name(subject)
    return x509.build_tbs(name, name, algs.spki_for_key(native_key),
                          x509.default_validity(30),
                          algs.signature_algorithm_for(native_key.spec),
                          **kwargs)


@pytest.fixture
def hybrid_cert(ec_key, ml2_key):
    return catalyst.issue_catalyst(_base_tbs(ec_key), ec_key, ml2_key)


def test_issue_produces_complete_triple(hybrid_cert):
    triple = catalyst.CatalystExtensionTriple.from_certificate(hybrid_cert)
    assert triple is not None
    assert triple.alt_sig_alg.oid == oids.ML_DSA_44
    ext_oids = [e.oid for e in hybrid_cert.tbs.extensions]
    # fixed order after caller extensions: key info, algorithm, value
    assert ext_oids[-3:] == [oids.EXT_SUBJECT_ALT_PUBLIC_KEY_INFO,
                             oids.EXT_ALT_SIGNATURE_ALGORITHM,
                             oids.EXT_ALT_SIGNATURE_VALUE]
    assert all(not e.critical for e in hybrid_cert.tbs.extensions[-3:])


def test_both_paths_verify(hybrid_cert):
    report = catalyst.verify_catalyst(hybrid_cert)
    assert report.native_sig == x509.VALID
    assert report.alt_sig == x509.VALID
    assert report.all_valid


def test_round_trip_through_bytes(hybrid_cert):
    back = x509.parse_certificate(hybrid_cert.emit())
    assert back.emit() == hybrid_cert.emit()
    report = catalyst.verify_catalyst(back)
    assert report.native_sig == x509.VALID and report.alt_sig == x509.VALID


def test_preimage_deterministic_across_paths(hybrid_cert):
    """Issue-side and verify-side pre-images are the same bytes."""
    pre = catalyst.alt_preimage(hybrid_cert.tbs_der)
    again = catalyst.alt_preimage(x509.parse_certificate(hybrid_cert.emit()).tbs_der)
    assert pre == again
    # the pre-image still carries the first two alt extensions
    tbs = x509.TbsCertificate.from_der_value(der.decode(pre))
    remaining = [e.oid for e in tbs.extensions]
    assert oids.EXT_SUBJECT_ALT_PUBLIC_KEY_INFO in remaining
    assert oids.EXT_ALT_SIGNATURE_ALGORITHM in remaining
    assert oids.EXT_ALT_SIGNATURE_VALUE not in remaining


def test_native_covers_alt_extensions(hybrid_cert, ec_key):
    """Stripping the triple invalidates the native signature."""
    kept = tuple(e for e in hybrid_cert.tbs.extensions
                 if e.oid not in (oids.EXT_SUBJECT_ALT_PUBLIC_KEY_INFO,
                                  oids.EXT_ALT_SIGNATURE_ALGORITHM,
                                  oids.EXT_ALT_SIGNATURE_VALUE))
    stripped_tbs = dataclasses.replace(hybrid_cert.tbs, extensions=kept)
    stripped = x509.CertificateDocument(stripped_tbs, stripped_tbs.der,
                                        hybrid_cert.signature_alg,
                                        hybrid_cert.signature)
    report = x509.verify_certificate(stripped, algs.spki_for_key(ec_key))
    assert report.native_sig == x509.INVALID
    assert report.alt_sig is None


def test_legacy_native_only_view(hybrid_cert, ec_key):
    """A verifier that ignores the alt extensions sees a valid classical
    certificate."""
    ok = algs.verify(ec_key.spec, ec_key.public, hybrid_cert.tbs_der,
                     hybrid_cert.signature)
    assert ok


def test_independent_verdicts_by_tampering(ec_key, ml2_key, ml3_key):
    cert = catalyst.issue_catalyst(_base_tbs(ec_key), ec_key, ml2_key)

    # native invalid, alt valid: flip the outer signature
    sig = bytearray(cert.signature)
    sig[3] ^= 0x10
    doc = x509.CertificateDocument(cert.tbs, cert.tbs_der, cert.signature_alg,
                                   bytes(sig))
    report = catalyst.verify_catalyst(doc)
    assert (report.native_sig, report.alt_sig) == (x509.INVALID, x509.VALID)

    # native valid, alt invalid: alt key says one thing, embedded key another
    wrong_alt = catalyst.issue_catalyst(
        _base_tbs(ec_key), ec_key, ml2_key,
        alt_subject_spki=algs.spki_for_key(ml3_key))
    report = catalyst.verify_catalyst(wrong_alt)
    assert report.native_sig == x509.VALID
    assert report.alt_sig == x509.INVALID

    # both invalid
    sig = bytearray(wrong_alt.signature)
    sig[3] ^= 0x10
    doc = x509.CertificateDocument(wrong_alt.tbs, wrong_alt.tbs_der,
                                   wrong_alt.signature_alg, bytes(sig))
    report = catalyst.verify_catalyst(doc)
    assert (report.native_sig, report.alt_sig) == (x509.INVALID, x509.INVALID)


def test_explicit_alt_issuer_key(ec_key, ml2_key):
    cert = catalyst.issue_catalyst(_base_tbs(ec_key), ec_key, ml2_key)
    report = catalyst.verify_catalyst(cert, alt_issuer_spki=algs.spki_for_key(ml2_key))
    assert report.alt_sig == x509.VALID


def test_foreign_native_issuer_without_alt_key_is_unsupported(ec_key, ec384_key, ml2_key):
    """Only the self-signed reading may use the certificate's own
    alternative key; a separate native issuer brings none."""
    cert = catalyst.issue_catalyst(_base_tbs(ec_key), ec_key, ml2_key)
    report = catalyst.verify_catalyst(cert, native_issuer_spki=algs.spki_for_key(ec_key))
    assert (report.native_sig, report.alt_sig) == (x509.VALID, x509.VALID)
    report = catalyst.verify_catalyst(cert, native_issuer_spki=algs.spki_for_key(ec384_key))
    assert report.alt_sig == x509.UNSUPPORTED
    assert not report.all_valid
    assert any("no alternative key" in note for note in report.chain_notes)


def test_partial_triple_raises(hybrid_cert):
    for drop in (oids.EXT_SUBJECT_ALT_PUBLIC_KEY_INFO,
                 oids.EXT_ALT_SIGNATURE_VALUE):
        kept = tuple(e for e in hybrid_cert.tbs.extensions if e.oid != drop)
        partial_tbs = dataclasses.replace(hybrid_cert.tbs, extensions=kept)
        doc = x509.CertificateDocument(partial_tbs, partial_tbs.der,
                                       hybrid_cert.signature_alg,
                                       hybrid_cert.signature)
        with pytest.raises(MalformedAltExtension):
            catalyst.verify_catalyst(doc)
        # the report-based path folds the problem into the alt verdict
        report = x509.verify_certificate(doc, doc.tbs.spki)
        assert report.alt_sig == x509.INVALID


def test_duplicate_alt_extension_rejected(ec_key, ml2_key):
    marked = x509.ExtensionBlock(oids.EXT_ALT_SIGNATURE_ALGORITHM, False, b"\x05\x00")
    tbs = _base_tbs(ec_key, extensions=(marked,))
    with pytest.raises(DuplicateExtension):
        catalyst.issue_catalyst(tbs, ec_key, ml2_key)


def test_same_family_pair_warns(ec_key, ec384_key):
    with pytest.warns(UserWarning):
        cert = catalyst.issue_catalyst(_base_tbs(ec_key), ec_key, ec384_key)
    report = catalyst.verify_catalyst(cert)
    assert report.native_sig == x509.VALID and report.alt_sig == x509.VALID


def test_catalyst_render_sections(hybrid_cert):
    text = x509.render_text(hybrid_cert)
    assert "Alt Public Key Info" in text
    assert "Alt Signature" in text
    assert "ML-DSA-44" in text


def test_slh_dsa_alt(ec_key, slh_key):
    cert = catalyst.issue_catalyst(_base_tbs(ec_key), ec_key, slh_key)
    report = catalyst.verify_catalyst(cert)
    assert report.native_sig == x509.VALID and report.alt_sig == x509.VALID
