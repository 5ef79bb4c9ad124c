import dataclasses
import random

import pytest

from pqcli import algs, catalyst, cli, der, oids, x509
from pqcli.errors import DerError, DuplicateExtension, MalformedAltExtension
from pqcli.names import parse_name

import test_pinned_issuance as pinned


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


@pytest.mark.parametrize("case, reason", [
    ("partial", "alternative extension triple incomplete: missing altSignatureValue"),
    ("malformed", "alternative extension contents malformed: "
                  "expected tag 0x10 (class 0x0), got 0x5 (class 0x0)"),
], ids=["partial", "malformed"])
def test_view_prints_a_broken_triple_as_the_verifier_reason(hybrid_cert, ec_key, tmp_path,
                                                            capsys, case, reason):
    """A partial or malformed triple renders as one line carrying the
    reason pqcli verify warns with; the extension list still names each
    alternative extension present."""
    spki_ext, _, value_ext = hybrid_cert.tbs.extensions[-3:]
    null_alg = x509.ExtensionBlock(oids.EXT_ALT_SIGNATURE_ALGORITHM, False,
                                   der.encode(der.null()))
    blocks = {"partial": hybrid_cert.tbs.extensions[-3:-1],
              "malformed": (spki_ext, null_alg, value_ext)}[case]
    cert = x509.sign_certificate(_base_tbs(ec_key, extensions=blocks), ec_key)
    text = x509.render_text(cert)
    lines = text.splitlines()
    assert f"    Alt Public Key Info: ({reason})" in lines
    assert "Alt Signature" not in text
    for ext in blocks:
        assert f"            {oids.extension_name(ext.oid)}:" in lines
    path = tmp_path / "broken.pem"
    path.write_text(cert.emit_pem())
    assert cli.main(["view", str(path)]) == 0
    assert capsys.readouterr().out == text
    assert cli.main(["verify", str(path)]) == 6
    assert f"warning: {reason}" in capsys.readouterr().err.splitlines()


def test_slh_dsa_alt(ec_key, slh_key):
    cert = catalyst.issue_catalyst(_base_tbs(ec_key), ec_key, slh_key)
    report = catalyst.verify_catalyst(cert)
    assert report.native_sig == x509.VALID and report.alt_sig == x509.VALID


# -- alt_preimage against decode, filter and re-encode ---------------------

def _reference_preimage(tbs_der):
    """The preimage by decoding the whole TBS, dropping the
    altSignatureValue extensions and re-encoding: the oracle for the
    splice in x509.alt_preimage."""
    value = der.decode(tbs_der)
    value.expect(der.SEQUENCE)
    out, removed = [], False
    for child in value.children:
        if (child.cls == der.CONTEXT and child.tag == 3 and child.constructed
                and len(child.children) == 1):
            kept = tuple(e for e in child.children[0].children
                         if e.children[0].as_oid() != oids.EXT_ALT_SIGNATURE_VALUE)
            removed |= len(kept) != len(child.children[0].children)
            if kept:
                out.append(der.explicit(3, der.seq(*kept)))
        else:
            out.append(child)
    if not removed:
        raise MalformedAltExtension("TBS carries no altSignatureValue extension")
    return der.encode(der.seq(*out))


def test_preimage_splice_matches_reencoding_on_pinned_pairs():
    keys = {text: algs.generate_keypair(algs.parse_alg_spec(text), random.Random(text))
            for pair in pinned.CATALYST for text in pair}
    rng = random.Random(0x5EED)
    other_subject = algs.spki_for_key(keys["ml-dsa:2"])
    for native, alt in pinned.CATALYST:
        for alt_subject in (None, other_subject):
            cert = catalyst.issue_catalyst(pinned._tbs(keys[native], rng), keys[native],
                                           keys[alt], alt_subject_spki=alt_subject)
            assert x509.alt_preimage(cert.tbs_der) == _reference_preimage(cert.tbs_der)


def test_preimage_splice_matches_reencoding_wherever_the_value_sits(ec_key):
    value = x509.ExtensionBlock(oids.EXT_ALT_SIGNATURE_VALUE, False,
                                der.encode(der.bit_string(bytes(200))))
    critical_value = value._replace(critical=True)
    bc = x509.basic_constraints_extension()
    ski = x509.subject_key_id_extension(algs.spki_for_key(ec_key))
    tbs = _base_tbs(ec_key, add_default_extensions=False)
    for extensions in ((value, bc, ski), (bc, value, ski), (bc, ski, value), (value,),
                       (value, bc, critical_value), (critical_value, value)):
        # written with der: a TbsCertificate refuses altSignatureValue twice
        tbs_der = der.encode(der.seq(*tbs.to_der_value().children, der.explicit(
            3, der.seq(*(e.to_der_value() for e in extensions)))))
        spliced = x509.alt_preimage(tbs_der)
        assert spliced == _reference_preimage(tbs_der)
        assert x509.TbsCertificate.from_der_value(der.decode(spliced)).extensions == tuple(
            e for e in extensions if e.oid != oids.EXT_ALT_SIGNATURE_VALUE)
    with pytest.raises(MalformedAltExtension):
        x509.alt_preimage(dataclasses.replace(tbs, extensions=(bc, ski)).der)
    with pytest.raises(MalformedAltExtension):
        x509.alt_preimage(tbs.der)


def test_preimage_of_a_truncated_extensions_field_raises(hybrid_cert):
    tbs_der = hybrid_cert.tbs_der
    content, _ = der.tlv_bounds(tbs_der, 0)
    fields = []
    while content < len(tbs_der):
        _, end = der.tlv_bounds(tbs_der, content)
        fields.append(tbs_der[content:end])
        content = end
    assert fields[-1][0] == 0xA3
    for cut in (1, 100, len(fields[-1]) - 2):
        broken = der.wrap_sequence(b"".join(fields[:-1]) + fields[-1][:-cut])
        with pytest.raises(DerError):
            x509.alt_preimage(broken)
        with pytest.raises(DerError):
            _reference_preimage(broken)
    # [3] holding more than its one extension list
    exts_start, _ = der.tlv_bounds(fields[-1], 0)
    extra = der.wrap_sequence(fields[-1][exts_start:] + b"\x05\x00", 0xA3)
    with pytest.raises(DerError):
        x509.alt_preimage(der.wrap_sequence(b"".join(fields[:-1]) + extra))
    with pytest.raises(DerError):
        x509.alt_preimage(tbs_der[:-1])
    with pytest.raises(DerError):
        x509.alt_preimage(tbs_der + b"\x00")
