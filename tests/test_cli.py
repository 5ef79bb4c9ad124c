import dataclasses
import gc
import os
import pathlib
import stat
import subprocess
import sys

import cryptography.x509
import pytest
from cryptography.x509.name import _ASN1Type
from cryptography.x509.oid import NameOID

from pqcli import algs, catalyst, chameleon, cli, composite, der, oids, pem, x509
from pqcli.names import parse_name


@pytest.fixture(autouse=True)
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return cli.main(list(argv))


def _with_its_last_byte_flipped(path):
    """The DER of a certificate file, its last signature byte flipped."""
    _, blob = pem.read_block(path.read_bytes(), (pem.LABEL_CERTIFICATE,))
    return blob[:-1] + bytes([blob[-1] ^ 1])


def test_cert_defaults(workdir, capsys):
    assert run("cert", "-newkey", "ECDSA") == 0
    out = capsys.readouterr().out
    assert "wrote certificate.pem and private_key.pem" in out
    assert "365 days" in out
    cert = x509.parse_certificate((workdir / "certificate.pem").read_bytes())
    assert str(cert.tbs.subject) == x509.DEFAULT_SUBJECT
    mode = stat.S_IMODE(os.stat(workdir / "private_key.pem").st_mode)
    assert mode == 0o600


def test_cert_custom_paths_and_subject(workdir, capsys):
    assert run("cert", "-newkey", "ML-DSA:2", "-subj", "CN=Sol,O=Lab",
               "-days", "10", "-out", "c.pem", "-keyout", "k.pem") == 0
    cert = x509.parse_certificate((workdir / "c.pem").read_bytes())
    assert str(cert.tbs.subject) == "CN=Sol,O=Lab"
    delta = cert.tbs.not_after - cert.tbs.not_before
    assert delta.days == 10
    record = algs.load_private_key(
        pem.first_block(pem.decode_pem((workdir / "k.pem").read_text()),
                        pem.LABEL_PRIVATE_KEY))
    assert record.spec.family == "ml-dsa"
    assert run("verify", "c.pem") == 0 and run("view", "c.pem") == 0
    (workdir / "t.der").write_bytes(_with_its_last_byte_flipped(workdir / "c.pem"))
    assert run("verify", "t.der") == 5


def test_cert_catalyst_round_trip(workdir, capsys):
    assert run("cert", "-newkey", "ECDSA,ML-DSA:2") == 0
    assert "hybrid" in capsys.readouterr().out
    # both keys land in one PEM file
    blocks = pem.decode_pem((workdir / "private_key.pem").read_text())
    assert [label for label, _ in blocks] == [pem.LABEL_PRIVATE_KEY] * 2

    assert run("verify", "certificate.pem") == 0
    out = capsys.readouterr().out
    assert "native signature: valid" in out
    assert "alt signature: valid" in out
    assert run("view", "certificate.pem") == 0


def test_cert_composite_round_trip(workdir, capsys):
    assert run("cert", "-newkey", "ML-DSA:2_ECDSA") == 0
    capsys.readouterr()
    assert run("verify", "certificate.pem") == 0
    assert capsys.readouterr().out == (
        "component 1 (ml-dsa:2): valid\ncomponent 2 (ecdsa:P-256): valid\n")
    assert run("view", "certificate.pem") == 0
    out = capsys.readouterr().out
    assert "Component 1: ML-DSA-44\n" in out and "Component 2: id-ecPublicKey\n" in out


def test_cert_der_output(workdir, capsys):
    assert run("cert", "-newkey", "ECDSA", "--der",
               "-out", "c.der", "-keyout", "k.der") == 0
    cert = x509.parse_certificate((workdir / "c.der").read_bytes())
    assert run("view", "c.der") == 0
    assert str(cert.tbs.subject) in capsys.readouterr().out
    # raw DER key loads straight back
    record = algs.load_private_key((workdir / "k.der").read_bytes())
    assert record.spec.family == "ecdsa"


def test_cert_catalyst_der_key_split(workdir):
    assert run("cert", "-newkey", "ECDSA,ML-DSA:2", "--der",
               "-out", "c.der", "-keyout", "k.der") == 0
    assert (workdir / "k.der").exists()
    assert (workdir / "k.alt.der").exists()


def test_cert_bad_hybrid_spec(capsys):
    assert run("cert", "-newkey", "RSA,ML-DSA:2,ECDSA") == 2
    assert "exactly two" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert run() == 2
    assert run("cert") == 2                              # -newkey required
    assert run("cert", "-newkey", "NOSUCH") == 2
    assert run("cert", "-newkey", "ECDSA", "--frobnicate") == 2
    assert run("cert", "-newkey", "SLH-DSA") == 2        # parameter mandatory
    assert run("csr", "-newkey", "ECDSA") == 2           # -subj required
    assert run("cert", "-newkey", "ECDSA", "-subj", "CN=") == 2
    capsys.readouterr()


def test_cert_with_an_empty_subject_is_refused(workdir, capsys):
    """A self-signed certificate's issuer is its subject, and RFC 5280
    forbids an empty issuer; an empty -subj means the default subject."""
    assert run("cert", "-newkey", "ECDSA", "-subj", ",") == 2
    assert "issuer name must not be empty" in capsys.readouterr().err
    assert os.listdir(workdir) == []
    assert run("cert", "-newkey", "ECDSA", "-subj", "") == 0
    cert = x509.parse_certificate((workdir / "certificate.pem").read_bytes())
    assert str(cert.tbs.issuer) == x509.DEFAULT_SUBJECT


@pytest.mark.parametrize("argv, message", [
    (("cert", "-newkey", "ECDSA", "-subj", "C=DEU"),
     "attribute C must be exactly 2 characters, not 3"),
    (("csr", "-newkey", "ECDSA", "-subj", "CN=" + "x" * 70),
     "attribute CN must be 1 to 64 characters, not 70"),
])
def test_a_name_value_outside_its_x520_bounds_exits_2_and_writes_nothing(
        workdir, capsys, argv, message):
    """openssl req -subj refuses both too (string too long, maxsize=2 and 64)."""
    assert run(*argv) == 2
    assert f"pqcli: {message}\n" == capsys.readouterr().err
    assert os.listdir(workdir) == []


def test_a_multi_valued_rdn_in_the_openssl_form_exits_2_and_writes_nothing(workdir, capsys):
    """openssl req -subj "/CN=a+O=b" makes one RDN of two attributes, which
    pqcli does not write, so it refuses rather than make another name."""
    assert run("cert", "-newkey", "ECDSA", "-subj", "/CN=a+O=b") == 2
    assert "multi-valued RDN" in capsys.readouterr().err
    assert os.listdir(workdir) == []


@pytest.mark.parametrize("argv", [
    ("cert", "-newkey", "rsa:512"),
    ("key", "-t", "rsa:1000"),
    ("csr", "-newkey", "rsa:600", "-subj", "CN=x"),
], ids=["cert", "key", "csr"])
def test_rsa_below_1024_bits_is_a_usage_error(capsys, argv):
    assert run(*argv) == 2
    assert "RSA modulus size out of range" in capsys.readouterr().err


def test_rsa_size_that_is_not_a_number_is_a_usage_error(workdir, capsys):
    assert run("key", "-t", "rsa:abc") == 2
    assert "RSA modulus size must be an integer: 'abc'" in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


def test_cert_days_past_year_9999_is_a_usage_error(workdir, capsys):
    assert run("cert", "-newkey", "ECDSA", "-days", "99999999") == 2
    assert "outside the years 1 to 9999" in capsys.readouterr().err
    assert not (workdir / "certificate.pem").exists()


def test_same_family_hybrid_warning_is_one_warning_line(capsys):
    assert run("cert", "-newkey", "ECDSA,ECDSA:P-384") == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "warning: native and alternative keys share one algorithm family; "
        "the hybrid adds no migration value"]
    assert "UserWarning" not in err and "issue_catalyst" not in err


def test_key_command(workdir, capsys):
    assert run("key", "-t", "slh-dsa:128f", "-out", "slh.pem") == 0
    assert "wrote slh.pem and slh.pub" in capsys.readouterr().out
    record = algs.load_private_key(
        pem.first_block(pem.decode_pem((workdir / "slh.pem").read_text()),
                        pem.LABEL_PRIVATE_KEY))
    assert record.spec.parameter == "128f"
    assert "PUBLIC KEY" in (workdir / "slh.pub").read_text()


def test_key_composite(workdir, capsys):
    assert run("key", "-t", "ML-DSA:2_ECDSA") == 0
    record = algs.load_private_key(
        pem.first_block(pem.decode_pem((workdir / "private_key.pem").read_text()),
                        pem.LABEL_PRIVATE_KEY))
    assert record.spec.family == "composite"
    assert run("csr", "-key", "private_key.pem", "-subj", "CN=ci", "-out", "req.pem") == 0
    capsys.readouterr()
    assert run("view", "req.pem") == 0
    out = capsys.readouterr().out
    assert "Component 1: ML-DSA-44\n" in out and "Component 2: id-ecPublicKey\n" in out


@pytest.mark.parametrize("text, code, out", [
    ("ec:p384", 0, "(ecdsa:P-384)"), ("mldsa:3", 0, "(ml-dsa:3)"),
    ("slhdsa:128f", 0, "(slh-dsa:128f)"), ("RSA:1024", 0, "(rsa:1024)"), ("ed25519", 2, None),
], ids=["ec", "mldsa", "slhdsa", "RSA", "ed25519"])
def test_key_prints_the_canonical_spec_or_refuses_an_unknown_family(workdir, capsys, text,
                                                                     code, out):
    assert run("key", "-t", text, "-out", "k.key") == code
    assert capsys.readouterr().out == (f"wrote k.key and k.pub {out}\n" if out else "")
    assert sorted(p.name for p in workdir.iterdir()) == (["k.key", "k.pub"] if out else [])


def test_csr_newkey_and_reuse(workdir, capsys):
    assert run("csr", "-newkey", "ECDSA", "-subj", "CN=dev1") == 0
    out = capsys.readouterr().out
    assert "wrote csr.pem and private_key.pem" in out
    doc = x509.parse_csr((workdir / "csr.pem").read_bytes())
    assert str(doc.subject) == "CN=dev1"
    assert x509.verify_csr(doc)

    # reuse the same key for a second request
    assert run("csr", "-key", "private_key.pem", "-subj", "CN=dev2",
               "-out", "second.pem") == 0
    second = x509.parse_csr((workdir / "second.pem").read_bytes())
    assert str(second.subject) == "CN=dev2"
    assert second.spki == doc.spki
    capsys.readouterr()


@pytest.mark.parametrize("container, message", [
    ("one", "composite needs at least two components"),
    ("five", "composite supports at most 4 components"),
    ("nested", "not a one-asymmetric-key structure"),
])
def test_malformed_composite_key_file_exits_4(container, message, ec_key, ml2_key, capsys):
    """A composite container of one or five keys, or one holding another
    container, is unparseable input, not a usage error."""
    pair = ec_key.private + ml2_key.private
    blob = der.wrap_sequence({"one": ec_key.private, "five": pair * 2 + ec_key.private,
                              "nested": der.wrap_sequence(pair) + ec_key.private}[container])
    pem.write_pem("k.pem", pem.LABEL_PRIVATE_KEY, blob)
    assert run("csr", "-key", "k.pem", "-subj", "CN=dev") == 4
    assert message in capsys.readouterr().err


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def test_key_der_output(workdir, capsys):
    assert run("key", "-t", "ML-DSA:2", "-out", "k.der", "--der") == 0
    assert "wrote k.der and k.pub (ml-dsa:2)" in capsys.readouterr().out
    record = algs.load_private_key((workdir / "k.der").read_bytes())
    assert (workdir / "k.pub").read_bytes() == algs.spki_for_key(record).der
    assert _mode(workdir / "k.der") == 0o600


def test_csr_der_output(workdir, capsys):
    assert run("csr", "-newkey", "ECDSA", "-subj", "CN=raw", "-out", "r.der",
               "-keyout", "k.der", "--der") == 0
    assert "wrote r.der and k.der" in capsys.readouterr().out
    raw = (workdir / "r.der").read_bytes()
    doc = x509.parse_csr(raw)
    assert doc.emit() == raw and x509.verify_csr(doc)
    record = algs.load_private_key((workdir / "k.der").read_bytes())
    assert algs.spki_for_key(record) == doc.spki
    assert _mode(workdir / "k.der") == 0o600


def test_view_certificate_and_csr(workdir, capsys):
    run("cert", "-newkey", "ECDSA", "-subj", "CN=viewer")
    capsys.readouterr()
    assert run("view", "certificate.pem") == 0
    text = capsys.readouterr().out
    assert "Subject: CN=viewer" in text
    assert "Serial Number" in text

    run("csr", "-newkey", "ML-DSA:2", "-subj", "CN=req", "-out", "r.pem",
        "-keyout", "rk.pem")
    capsys.readouterr()
    assert run("view", "r.pem") == 0
    assert "CN=req" in capsys.readouterr().out


def test_a_pem_file_without_the_block_names_every_label_looked_for(workdir, capsys):
    run("cert", "-newkey", "ECDSA", "-out", "c.pem", "-keyout", "k.pem")
    capsys.readouterr()
    assert run("view", "k.pem") == 4
    assert capsys.readouterr().err == (
        "pqcli: no CERTIFICATE or CERTIFICATE REQUEST block in PEM input (found PRIVATE KEY)\n")
    assert run("verify", "k.pem") == 4
    assert capsys.readouterr().err == (
        "pqcli: no CERTIFICATE or CERTIFICATE REQUEST block in PEM input (found PRIVATE KEY)\n")
    assert run("csr", "-key", "c.pem", "-subj", "CN=x") == 4
    assert capsys.readouterr().err == (
        "pqcli: no PRIVATE KEY block in PEM input (found CERTIFICATE)\n")


def test_an_encrypted_key_is_named_as_what_the_pem_held(workdir, capsys):
    pem.write_pem(workdir / "enc.pem", "ENCRYPTED PRIVATE KEY", b"\x30\x00")
    assert run("csr", "-key", "enc.pem", "-subj", "CN=x") == 4
    assert capsys.readouterr() == (
        "", "pqcli: no PRIVATE KEY block in PEM input (found ENCRYPTED PRIVATE KEY)\n")
    assert not (workdir / "csr.pem").exists()


def test_view_decodes_pem_once(workdir, capsys, monkeypatch):
    run("cert", "-newkey", "ECDSA", "-subj", "CN=viewer")
    run("csr", "-newkey", "ECDSA", "-subj", "CN=req", "-out", "r.pem", "-keyout", "rk.pem")
    capsys.readouterr()
    calls = []
    decode_pem = pem.decode_pem
    monkeypatch.setattr(pem, "decode_pem", lambda text: calls.append(1) or decode_pem(text))
    for path, subject in (("certificate.pem", "CN=viewer"), ("r.pem", "CN=req")):
        calls.clear()
        assert run("view", path) == 0
        assert subject in capsys.readouterr().out
        assert len(calls) == 1
        calls.clear()
        assert run("verify", path) == 0
        assert capsys.readouterr().out == "native signature: valid\n"
        assert len(calls) == 1


def test_begin_text_in_a_name_is_not_pem(workdir, capsys, ec_key):
    name = parse_name("CN=-----BEGIN CERTIFICATE-----")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(ec_key), x509.default_validity(1),
                         algs.signature_algorithm_for(ec_key.spec))
    blob = x509.sign_certificate(tbs, ec_key).emit()
    assert x509.parse_certificate(blob).emit() == blob
    (workdir / "c.der").write_bytes(blob)
    pem.write_pem(workdir / "c.pem", pem.LABEL_CERTIFICATE, blob)
    for path in ("c.der", "c.pem"):
        assert run("view", path) == 0
        assert "CN=-----BEGIN CERTIFICATE-----" in capsys.readouterr().out
        assert run("verify", path) == 0


def test_pem_after_a_note_starting_with_zero_is_pem(workdir, capsys, ec_key):
    # "0" is the SEQUENCE tag byte; DER is a SEQUENCE spanning the input
    name = parse_name("CN=noted")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(ec_key), x509.default_validity(1),
                         algs.signature_algorithm_for(ec_key.spec))
    blob = x509.sign_certificate(tbs, ec_key).emit()
    armored = pem.encode_pem(pem.LABEL_CERTIFICATE, blob)
    (workdir / "c.pem").write_text("0 leading note\n" + armored)
    assert run("verify", "c.pem") == 0
    assert run("view", "c.pem") == 0
    assert "CN=noted" in capsys.readouterr().out
    # DER with bytes after it is still read as DER, and rejected
    (workdir / "c.der").write_bytes(blob + armored.encode())
    assert run("view", "c.der") == 4


def test_pem_after_a_note_that_is_no_der_length_is_pem(workdir, capsys, ec_key):
    # "0" then "\xc3\x83" (UTF-8 for "Ã"): a SEQUENCE tag and a long-form
    # length of 0x43 octets, which the input cannot hold
    name = parse_name("CN=noted")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(ec_key), x509.default_validity(1),
                         algs.signature_algorithm_for(ec_key.spec))
    blob = x509.sign_certificate(tbs, ec_key).emit()
    data = ("0\u00c3 leading note\n" + pem.encode_pem(pem.LABEL_CERTIFICATE, blob)).encode()
    assert data.startswith(b"0\xc3\x83")
    (workdir / "c.pem").write_bytes(data)
    assert pem.read_block(data, (pem.LABEL_CERTIFICATE,)) == (pem.LABEL_CERTIFICATE, blob)
    assert run("view", "c.pem") == 0
    assert "CN=noted" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("key", "-t", "ecdsa", "-out", "k.pub"),
    ("key", "-t", "ecdsa", "-out", "k.pub", "--der"),
    ("cert", "-newkey", "ecdsa", "-out", "same.pem", "-keyout", "same.pem"),
    ("cert", "-newkey", "ecdsa", "-out", "sub/../same.pem", "-keyout", "same.pem"),
    ("cert", "-newkey", "ecdsa,ml-dsa:2", "--der", "-out", "k.alt.der", "-keyout", "k.der"),
    ("csr", "-newkey", "ecdsa", "-subj", "CN=x", "-out", "same.pem", "-keyout", "same.pem"),
], ids=["key-pub", "key-pub-der", "cert", "cert-dotdot", "cert-der-alt", "csr"])
def test_outputs_naming_one_file_exit_2_and_write_nothing(workdir, capsys, argv):
    (workdir / "sub").mkdir()
    assert run(*argv) == 2
    assert "are the same file; nothing written" in capsys.readouterr().err
    assert [p.name for p in workdir.iterdir()] == ["sub"]


@pytest.mark.parametrize("argv", [
    ("cert", "-newkey", "ecdsa", "-out", "c.pem", "-keyout", "missing/k.pem"),
    ("csr", "-newkey", "ecdsa", "-subj", "CN=x", "-out", "missing/r.pem", "-keyout", "k.pem"),
    ("cert", "-newkey", "ecdsa,ml-dsa:2", "--der", "-out", "c.der", "-keyout", "k.der"),
    ("key", "-t", "ecdsa", "-out", "k.pem"),
], ids=["cert", "csr", "cert-der-alt", "key-pub"])
def test_a_failed_write_exits_3_and_leaves_no_output(workdir, capsys, argv):
    """k.alt.der and k.pub are directories, so no file can take those names."""
    for taken in ("k.alt.der", "k.pub"):
        (workdir / taken).mkdir()
    assert run(*argv) == 3
    assert capsys.readouterr().err.startswith("pqcli: ")
    assert sorted(p.name for p in workdir.iterdir()) == ["k.alt.der", "k.pub"]


def test_csr_output_must_not_replace_its_key(workdir, capsys):
    assert run("key", "-t", "ecdsa", "-out", "k.pem") == 0
    key = (workdir / "k.pem").read_bytes()
    assert run("csr", "-key", "k.pem", "-subj", "CN=x", "-out", "./k.pem") == 2
    assert (workdir / "k.pem").read_bytes() == key
    capsys.readouterr()


def test_missing_file_is_io_error(capsys):
    assert run("view", "nope.pem") == 3
    assert run("verify", "nope.pem") == 3
    assert run("csr", "-key", "nope.pem", "-subj", "CN=x") == 3
    capsys.readouterr()


def test_view_reads_a_der_request(workdir, capsys):
    assert run("csr", "-newkey", "ECDSA", "-subj", "CN=raw", "-out", "r.der",
               "-keyout", "k.der", "--der") == 0
    capsys.readouterr()
    assert run("view", "r.der") == 0
    out = capsys.readouterr().out
    assert out.startswith("Certificate Request:\n    Subject: CN=raw\n")


def test_garbage_input_is_parse_error(workdir, capsys):
    (workdir / "junk.pem").write_text("not even close\n")
    assert run("view", "junk.pem") == 4
    (workdir / "junk.der").write_bytes(bytes(range(64)))
    assert run("view", "junk.der") == 4
    run("key", "-t", "ECDSA", "-out", "k.pem")
    assert run("verify", "k.pem") == 4
    capsys.readouterr()


def test_der_that_is_neither_document_gives_the_error_of_its_shape(workdir, capsys, ec_key):
    """view and verify read through one reader. When DER is neither
    document, the request parse's reason stands for a signed part shaped as
    a request's info, the certificate parse's reason otherwise."""
    run("cert", "-newkey", "ECDSA", "--der", "-out", "c.der", "-keyout", "k.der")
    (workdir / "t.der").write_bytes((workdir / "c.der").read_bytes()[:-7])
    request = bytearray(x509.build_csr(parse_name("CN=device"), ec_key).emit())
    version = der.tlv_bounds(request, der.tlv_bounds(request, 0)[0])[0]
    assert request[version:version + 3] == b"\x02\x01\x00"
    request[version + 2] = 1
    (workdir / "r.der").write_bytes(request)
    capsys.readouterr()
    for command in ("view", "verify"):
        assert run(command, "t.der") == 4
        assert capsys.readouterr() == (
            "", "pqcli: not valid DER: content extends past end of input\n")
        assert run(command, "r.der") == 4
        assert capsys.readouterr() == ("", "pqcli: unsupported request version\n")


def test_deep_nesting_is_parse_error(workdir, capsys):
    blob = b"\x30\x00"
    for _ in range(2999):
        blob = der.wrap_sequence(blob)
    (workdir / "deep.der").write_bytes(blob)
    pem.write_pem(workdir / "deep.pem", pem.LABEL_CERTIFICATE, blob)
    for path in ("deep.der", "deep.pem"):
        assert run("view", path) == 4
        assert run("verify", path) == 4
    assert "nesting deeper than" in capsys.readouterr().err


def test_invalid_text_in_name_is_parse_error(workdir, capsys, ec_key):
    name = parse_name("CN=unit")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(ec_key), x509.default_validity(1),
                         algs.signature_algorithm_for(ec_key.spec))
    blob = x509.sign_certificate(tbs, ec_key).emit()
    at = blob.index(b"unit")
    (workdir / "bad.der").write_bytes(blob[:at] + b"\xff\xfe" + blob[at + 2:])
    assert run("view", "bad.der") == 4
    assert run("verify", "bad.der") == 4
    capsys.readouterr()


def _write_cert(path, cert):
    pem.write_pem(path, pem.LABEL_CERTIFICATE, cert.emit())


def test_broken_native_signature_exits_5(workdir, capsys):
    run("cert", "-newkey", "ECDSA", "-out", "good.pem")
    capsys.readouterr()
    cert = x509.parse_certificate((workdir / "good.pem").read_bytes())
    raw = bytearray(cert.emit())
    raw[-4] ^= 0x40
    _write_cert(workdir / "bad.pem", x509.parse_certificate(bytes(raw)))
    assert run("verify", "bad.pem") == 5
    assert "native signature: invalid" in capsys.readouterr().out


def test_broken_alt_signature_exits_6(workdir, capsys, rng):
    native = algs.generate_keypair(algs.parse_alg_spec("ECDSA"), rng=rng)
    alt = algs.generate_keypair(algs.parse_alg_spec("ML-DSA:2"), rng=rng)
    decoy = algs.generate_keypair(algs.parse_alg_spec("ML-DSA:2"), rng=rng)
    name = parse_name("CN=misissued")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(native),
                         x509.default_validity(5),
                         algs.signature_algorithm_for(native.spec), rng=rng)
    cert = catalyst.issue_catalyst(tbs, native, alt,
                                   alt_subject_spki=algs.spki_for_key(decoy))
    _write_cert(workdir / "mis.pem", cert)
    assert run("verify", "mis.pem") == 6
    out = capsys.readouterr().out
    assert "native signature: valid" in out
    assert "alt signature: invalid" in out


def test_broken_composite_exits_7(workdir, capsys, rng):
    material = composite.composite_keygen(
        (algs.parse_alg_spec("ML-DSA:2"), algs.parse_alg_spec("ECDSA")),
        rng=rng)
    cert = composite.issue_composite_certificate(parse_name("CN=c"), material,
                                                 rng=rng)
    raw = bytearray(cert.emit())
    raw[-4] ^= 0x40
    _write_cert(workdir / "c.pem", x509.parse_certificate(bytes(raw)))
    assert run("verify", "c.pem") == 7
    assert "invalid" in capsys.readouterr().out


def test_composite_signature_with_too_few_parts_exits_7(workdir, capsys, rng):
    material = composite.composite_keygen(
        (algs.parse_alg_spec("ML-DSA:2"), algs.parse_alg_spec("ECDSA")),
        rng=rng)
    cert = composite.issue_composite_certificate(parse_name("CN=c"), material,
                                                 rng=rng)
    first_part = composite.CompositeSignatureValue.from_der(cert.signature).parts[0]
    one_part = composite.CompositeSignatureValue((first_part,)).der
    _write_cert(workdir / "c.pem", dataclasses.replace(cert, signature=one_part))
    assert run("verify", "c.pem") == 7
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["composite signature: invalid (structural)"]
    assert "warning: signature has 1 parts for 2 components" in captured.err.splitlines()


def test_verify_with_ca_file(workdir, capsys, rng):
    """A certificate signed by a separate issuer passes only with -CAfile."""
    issuer_key = algs.generate_keypair(algs.parse_alg_spec("ML-DSA:2"), rng=rng)
    leaf_key = algs.generate_keypair(algs.parse_alg_spec("ECDSA"), rng=rng)
    issuer_name = parse_name("CN=Root")
    leaf_name = parse_name("CN=Leaf")

    ca_tbs = x509.build_tbs(issuer_name, issuer_name,
                            algs.spki_for_key(issuer_key),
                            x509.default_validity(30),
                            algs.signature_algorithm_for(issuer_key.spec),
                            rng=rng)
    _write_cert(workdir / "ca.pem", x509.sign_certificate(ca_tbs, issuer_key))

    leaf_tbs = x509.build_tbs(leaf_name, issuer_name,
                              algs.spki_for_key(leaf_key),
                              x509.default_validity(30),
                              algs.signature_algorithm_for(issuer_key.spec),
                              rng=rng)
    _write_cert(workdir / "leaf.pem", x509.sign_certificate(leaf_tbs, issuer_key))

    assert run("verify", "-CAfile", "ca.pem", "leaf.pem") == 0
    capsys.readouterr()
    # without the CA the leaf's own key is the wrong issuer
    assert run("verify", "leaf.pem") == 5
    capsys.readouterr()


@pytest.mark.parametrize("as_der", [False, True], ids=["pem", "der"])
@pytest.mark.parametrize("shape", ["rsa_key", "ec_key", "ml2_key", "slh_key", "composite"])
def test_verify_checks_a_request_as_it_checks_a_certificate(workdir, capsys, request, rng,
                                                            shape, as_der):
    key = (algs.generate_keypair(algs.parse_alg_spec("ml-dsa:2_ecdsa"), rng)
           if shape == "composite" else request.getfixturevalue(shape))
    blob = x509.build_csr(parse_name("CN=device"), key).emit()
    flipped = blob[:-1] + bytes([blob[-1] ^ 1])
    for data, verdict in ((blob, "valid"), (flipped, "invalid")):
        text = data if as_der else pem.encode_pem(pem.LABEL_CSR, data).encode()
        (workdir / "r").write_bytes(text)
        code = run("verify", "r")
        captured = capsys.readouterr()
        assert captured.err == ""
        if shape == "composite":  # the last byte is the ECDSA part's
            assert code == (0 if verdict == "valid" else 7)
            assert captured.out == ("component 1 (ml-dsa:2): valid\n"
                                    f"component 2 (ecdsa:P-256): {verdict}\n")
        else:
            assert code == (0 if verdict == "valid" else 5)
            assert captured.out == f"native signature: {verdict}\n"


def test_a_request_under_a_key_pqcli_does_not_know_warns_of_its_own_key(workdir, capsys,
                                                                         ec_key):
    """A request has no issuer, so the note names its key alone."""
    blob = x509.build_csr(parse_name("CN=device"), ec_key).emit()
    id_ec = der.encode(der.oid_value(oids.EC_PUBLIC_KEY))
    assert blob.count(id_ec) == 1
    (workdir / "r.der").write_bytes(blob.replace(id_ec, id_ec[:-1] + b"\x02"))
    assert run("verify", "r.der") == 5
    assert capsys.readouterr() == ("native signature: unsupported\n",
                                   "warning: key algorithm not recognized\n")


def test_a_request_with_a_ca_file_is_a_usage_error(workdir, capsys):
    """A request is checked under its own key, even when the CA holds it."""
    run("cert", "-newkey", "ECDSA", "-out", "c.pem", "-keyout", "k.pem")
    run("csr", "-key", "k.pem", "-subj", "CN=x", "-out", "r.pem")
    capsys.readouterr()
    assert run("verify", "-CAfile", "c.pem", "r.pem") == 2
    assert capsys.readouterr() == (
        "", "pqcli: a request is checked under its own key, not an issuer's\n")


def test_declared_algorithm_that_disagrees_with_the_ca_key_exits_5(
        workdir, capsys, rng, ec_key, ml2_key):
    """An ECDSA CA signs a leaf whose TBS and outer algorithm both say
    ML-DSA-44. The signature checks out under the CA key, but the declared
    algorithm is not the key's, so the native path is invalid, as openssl
    verify has it."""
    ca_name, leaf_name = parse_name("CN=EC Root"), parse_name("CN=Leaf")
    ca_tbs = x509.build_tbs(ca_name, ca_name, algs.spki_for_key(ec_key),
                            x509.default_validity(30),
                            algs.signature_algorithm_for(ec_key.spec), rng=rng)
    _write_cert(workdir / "ca.pem", x509.sign_certificate(ca_tbs, ec_key))
    leaf_tbs = x509.build_tbs(leaf_name, ca_name, algs.spki_for_key(ml2_key),
                              x509.default_validity(30),
                              algs.signature_algorithm_for(ml2_key.spec), rng=rng)
    signature = algs.sign(ec_key.spec, ec_key, leaf_tbs.der)
    _write_cert(workdir / "leaf.pem", x509.CertificateDocument(
        leaf_tbs, leaf_tbs.der, leaf_tbs.signature_alg, signature))
    assert run("verify", "-CAfile", "ca.pem", "leaf.pem") == 5
    assert capsys.readouterr().out == "native signature: invalid\n"


def test_hybrid_leaf_of_classical_ca_alt_path_unsupported(workdir, capsys, rng):
    """A classical CA has no alternative key, so the leaf's own alternative
    key must not vouch for its alternative signature: exit 6, not 0."""
    ca_key = algs.generate_keypair(algs.parse_alg_spec("ECDSA"), rng=rng)
    leaf_key = algs.generate_keypair(algs.parse_alg_spec("ECDSA"), rng=rng)
    leaf_alt = algs.generate_keypair(algs.parse_alg_spec("ML-DSA:2"), rng=rng)
    ca_name = parse_name("CN=Classical Root")
    ca_tbs = x509.build_tbs(ca_name, ca_name, algs.spki_for_key(ca_key),
                            x509.default_validity(30),
                            algs.signature_algorithm_for(ca_key.spec), rng=rng)
    _write_cert(workdir / "ca.pem", x509.sign_certificate(ca_tbs, ca_key))
    leaf_tbs = x509.build_tbs(parse_name("CN=Hybrid Leaf"), ca_name,
                              algs.spki_for_key(leaf_key), x509.default_validity(30),
                              algs.signature_algorithm_for(ca_key.spec), rng=rng)
    _write_cert(workdir / "leaf.pem", catalyst.issue_catalyst(leaf_tbs, ca_key, leaf_alt))

    assert run("verify", "-CAfile", "ca.pem", "leaf.pem") == 6
    captured = capsys.readouterr()
    assert "native signature: valid" in captured.out
    assert "alt signature: unsupported" in captured.out
    assert "no alternative key" in captured.err


@pytest.mark.parametrize("case, verdict, code", [
    ("ca-alt-key", "valid", 0),
    ("other-alt-key", "invalid", 6),
    ("incomplete-ca-triple", "unsupported", 6),
])
def test_verify_with_a_catalyst_ca(workdir, capsys, rng, case, verdict, code):
    """-CAfile of a Catalyst CA: its alternative key checks the leaf's
    alternative signature, unless its own triple is incomplete."""
    ca_key = algs.generate_keypair(algs.parse_alg_spec("ECDSA"), rng=rng)
    ca_alt = algs.generate_keypair(algs.parse_alg_spec("ML-DSA:2"), rng=rng)
    leaf_key = algs.generate_keypair(algs.parse_alg_spec("ECDSA"), rng=rng)
    leaf_alt = algs.generate_keypair(algs.parse_alg_spec("ML-DSA:2"), rng=rng)
    ca_name = parse_name("CN=Hybrid Root")
    ca_tbs = x509.build_tbs(ca_name, ca_name, algs.spki_for_key(ca_key),
                            x509.default_validity(30),
                            algs.signature_algorithm_for(ca_key.spec), rng=rng)
    ca = catalyst.issue_catalyst(ca_tbs, ca_key, ca_alt)
    if case == "incomplete-ca-triple":
        kept = tuple(e for e in ca.tbs.extensions
                     if e.oid != oids.EXT_ALT_SIGNATURE_VALUE)
        ca = x509.sign_certificate(dataclasses.replace(ca.tbs, extensions=kept), ca_key)
    _write_cert(workdir / "ca.pem", ca)
    alt_signer = leaf_alt if case == "other-alt-key" else ca_alt
    leaf_tbs = x509.build_tbs(parse_name("CN=Hybrid Leaf"), ca_name,
                              algs.spki_for_key(leaf_key), x509.default_validity(30),
                              algs.signature_algorithm_for(ca_key.spec), rng=rng)
    _write_cert(workdir / "leaf.pem", catalyst.issue_catalyst(
        leaf_tbs, ca_key, alt_signer, alt_subject_spki=algs.spki_for_key(leaf_alt)))

    assert run("verify", "-CAfile", "ca.pem", "leaf.pem") == code
    assert capsys.readouterr().out.splitlines() == [
        "native signature: valid", f"alt signature: {verdict}"]


def test_expired_certificate_warns_but_verifies(workdir, capsys, rng):
    import datetime
    key = algs.generate_keypair(algs.parse_alg_spec("ECDSA"), rng=rng)
    name = parse_name("CN=old")
    start = datetime.datetime(2020, 1, 1, tzinfo=datetime.timezone.utc)
    tbs = x509.build_tbs(name, name, algs.spki_for_key(key),
                         (start, start + datetime.timedelta(days=1)),
                         algs.signature_algorithm_for(key.spec), rng=rng)
    _write_cert(workdir / "old.pem", x509.sign_certificate(tbs, key))
    assert run("verify", "old.pem") == 0
    captured = capsys.readouterr()
    assert "native signature: valid" in captured.out
    assert "expired" in captured.err


# -- OID table names ----------------------------------------------------

@pytest.mark.parametrize("table", [
    b"ml-dsa:9 = 2.999.9\n",
    b"slh-dsa:999 = 2.999.9\n",
    b"ml-dsa:x = 2.999.9\n",
    b"\xff\xfe = 1.2.3\n",
    b"composite = notanoid\n",
    b"composite = 1\n",
    b"composite = 3.1.2\n",
    b"rsa:2048 = 2.999.9\n",
    b"ecdsa:P-256 = 2.999.9\n",
    b"mldsa:3 = 2.999.9\n",
    b"ml-dsa:03 = 2.999.9\n",
], ids=["ml-dsa-level", "slh-dsa-set", "ml-dsa-text", "not-utf8", "oid-text", "one-arc",
        "first-arc", "rsa-size", "ecdsa-curve", "ml-dsa-alias", "ml-dsa-leading-zero"])
def test_oid_table_names_must_be_registry_keys(workdir, capsys, monkeypatch, rng,
                                               table):
    # a certificate whose key and signature carry the table's OID
    key = algs.generate_keypair(algs.parse_alg_spec("ML-DSA:2"), rng=rng)
    name = parse_name("CN=table")
    with algs.use_registry(algs.default_registry().with_overrides("ml-dsa:2 = 2.999.9\n")):
        tbs = x509.build_tbs(name, name, algs.spki_for_key(key),
                             x509.default_validity(5),
                             algs.signature_algorithm_for(key.spec), rng=rng)
        _write_cert(workdir / "c.pem", x509.sign_certificate(tbs, key))
    (workdir / "oids.conf").write_bytes(table)
    monkeypatch.setenv(algs.OID_TABLE_ENV, str(workdir / "oids.conf"))
    assert run("verify", "c.pem") == 2
    assert run("view", "c.pem") == 2
    assert "OID table" in capsys.readouterr().err


@pytest.mark.parametrize("table", [b"\xef\xbb\xbfml-dsa:2 = 2.999.9\n",
                                   b"# caf\xe9 \xff\nml-dsa:2 = 2.999.9  # \xe9t\xe9\n"],
                         ids=["byte-order-mark", "latin-1-comment"])
def test_oid_table_is_read_as_pem_input_is(workdir, capsys, monkeypatch, rng, table):
    """A leading UTF-8 BOM is skipped, and a byte that is not UTF-8 in a
    comment is no error: the certificate verifies only under the table."""
    key = algs.generate_keypair(algs.parse_alg_spec("ML-DSA:2"), rng=rng)
    name = parse_name("CN=table")
    with algs.use_registry(algs.default_registry().with_overrides("ml-dsa:2 = 2.999.9\n")):
        tbs = x509.build_tbs(name, name, algs.spki_for_key(key),
                             x509.default_validity(5),
                             algs.signature_algorithm_for(key.spec), rng=rng)
        _write_cert(workdir / "c.pem", x509.sign_certificate(tbs, key))
    (workdir / "oids.conf").write_bytes(table)
    monkeypatch.setenv(algs.OID_TABLE_ENV, str(workdir / "oids.conf"))
    assert run("verify", "c.pem") == 0
    assert capsys.readouterr().out == "native signature: valid\n"
    monkeypatch.delenv(algs.OID_TABLE_ENV)
    assert run("verify", "c.pem") != 0
    capsys.readouterr()


@pytest.mark.parametrize("key_oid", [oids.RSA_ENCRYPTION, oids.EC_PUBLIC_KEY],
                         ids=["rsaEncryption", "id-ecPublicKey"])
def test_oid_table_onto_a_key_algorithm_is_refused(workdir, capsys, monkeypatch, key_oid):
    """Before anything is written: a certificate issued under such a table
    would not verify, since its key reads as RSA or ECDSA."""
    (workdir / "oids.conf").write_text(f"ml-dsa:2 = {key_oid}\n")
    monkeypatch.setenv(algs.OID_TABLE_ENV, str(workdir / "oids.conf"))
    assert run("cert", "-newkey", "ml-dsa:2") == 2
    assert "key algorithm" in capsys.readouterr().err
    assert [p.name for p in workdir.iterdir()] == ["oids.conf"]


def test_oid_table_holds_for_one_command_in_process(workdir, capsys, monkeypatch):
    builtin = algs.default_registry()
    (workdir / "oids.conf").write_text("composite = 2.999.10001\n")
    monkeypatch.setenv(algs.OID_TABLE_ENV, str(workdir / "oids.conf"))
    assert run("cert", "-newkey", "ML-DSA:2_ECDSA") == 0
    cert = x509.parse_certificate((workdir / "certificate.pem").read_bytes())
    assert str(cert.tbs.spki.algorithm.oid) == "2.999.10001"
    assert str(cert.signature_alg.oid) == "2.999.10001"
    capsys.readouterr()
    assert run("verify", "certificate.pem") == 0
    assert "component 1 (ml-dsa:2): valid" in capsys.readouterr().out
    assert algs.default_registry() is builtin
    assert algs.oid_for(algs.parse_alg_spec("ML-DSA:2_ECDSA")) == oids.COMPOSITE_INTERIM


@pytest.mark.parametrize("table, write_argv, written_under_table, standard_oid", [
    ("ml-dsa:2 = 2.999.9\n", ("key", "-t", "ml-dsa:2"), True, oids.ML_DSA_44),
    ("ml-dsa:2 = 2.999.9\n", ("cert", "-newkey", "ml-dsa:2"), True, oids.ML_DSA_44),
    ("slh-dsa:128f = 2.999.8\n", ("key", "-t", "slh-dsa:128f"), False,
     oids.SLH_DSA_SHAKE_128F),
    ("slh-dsa:128f = 2.999.8\n", ("key", "-t", "slh-dsa:128f"), True,
     oids.SLH_DSA_SHAKE_128F),
], ids=["key-ml-dsa", "cert-ml-dsa", "slh-dsa-builtin-key", "slh-dsa-table-key"])
def test_private_keys_load_under_any_oid_table(workdir, capsys, monkeypatch, table,
                                               write_argv, written_under_table,
                                               standard_oid):
    """Key files carry the standard OID whatever the table; the public key
    and the signature follow the table."""
    (workdir / "oids.conf").write_text(table)
    if written_under_table:
        monkeypatch.setenv(algs.OID_TABLE_ENV, str(workdir / "oids.conf"))
    assert run(*write_argv) == 0
    blob = pem.first_block(pem.read_pem(workdir / "private_key.pem"),
                           pem.LABEL_PRIVATE_KEY)
    assert der.decode(blob).children[1].children[0].as_oid() == standard_oid
    monkeypatch.setenv(algs.OID_TABLE_ENV, str(workdir / "oids.conf"))
    assert run("csr", "-key", "private_key.pem", "-subj", "CN=reload") == 0
    doc = x509.parse_csr((workdir / "csr.pem").read_bytes())
    table_oid = table.partition("=")[2].strip()
    assert str(doc.spki.algorithm.oid) == str(doc.signature_alg.oid) == table_oid
    capsys.readouterr()


# -- delta certificates inside paired bases -----------------------------

def _resign_with_descriptor(base, descriptor, key):
    exts = tuple(
        x509.ExtensionBlock(e.oid, e.critical, descriptor.der)
        if e.oid == oids.EXT_DELTA_CERTIFICATE_DESCRIPTOR else e
        for e in base.tbs.extensions)
    return x509.sign_certificate(dataclasses.replace(base.tbs, extensions=exts), key)


@pytest.fixture
def paired_base(ec_key, ml2_key, rng):
    base, _ = chameleon.issue_paired(chameleon.CertParams(), chameleon.CertParams(),
                                     ec_key, ml2_key, rng=rng)
    return base


def test_verify_reports_a_valid_delta(workdir, capsys, paired_base):
    _write_cert(workdir / "base.pem", paired_base)
    assert run("verify", "base.pem") == 0
    assert capsys.readouterr().out.splitlines() == [
        "native signature: valid", "delta signature: valid"]


def test_verify_rejects_a_delta_with_a_flipped_bit(workdir, capsys, paired_base,
                                                   ec_key):
    descriptor = chameleon.descriptor_from_certificate(paired_base)
    sig = bytearray(descriptor.signature_value)
    sig[0] ^= 0x01
    broken = descriptor._replace(signature_value=bytes(sig))
    _write_cert(workdir / "bad.pem", _resign_with_descriptor(paired_base, broken, ec_key))
    assert run("verify", "bad.pem") == 6
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "native signature: valid", "delta signature: invalid"]
    assert "fails signature verification" in captured.err


def test_verify_warns_on_a_delta_it_cannot_check(workdir, capsys, paired_base,
                                                 ec_key):
    descriptor = chameleon.descriptor_from_certificate(paired_base)
    other = descriptor._replace(issuer=parse_name("CN=elsewhere"))
    _write_cert(workdir / "other.pem", _resign_with_descriptor(paired_base, other, ec_key))
    assert run("verify", "other.pem") == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["native signature: valid"]
    assert "not self-signed; its signature was not checked" in captured.err


def test_verify_rejects_a_delta_whose_descriptor_extension_is_malformed(
        workdir, capsys, paired_base, ec_key):
    """An extension of one field inside the descriptor's [4] list is a
    malformed delta (exit 6), not an input that fails to parse (exit 4)."""
    bad_extensions = der.explicit(4, der.seq(der.seq(der.oid_value(oids.EXT_SUBJECT_KEY_ID))))
    fields = list(der.decode(chameleon.descriptor_from_certificate(paired_base).der).children)
    fields.insert(len(fields) - 1, bad_extensions)  # [4] sits just before the signature
    exts = tuple(
        x509.ExtensionBlock(e.oid, e.critical, der.encode(der.seq(*fields)))
        if e.oid == oids.EXT_DELTA_CERTIFICATE_DESCRIPTOR else e
        for e in paired_base.tbs.extensions)
    _write_cert(workdir / "bad.pem", x509.sign_certificate(
        dataclasses.replace(paired_base.tbs, extensions=exts), ec_key))
    assert run("verify", "bad.pem") == 6
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "native signature: valid", "delta signature: invalid"]
    assert "warning: delta certificate: descriptor does not decode" in captured.err


@pytest.mark.parametrize("newkey, message", [
    ("", "empty algorithm spec"),
    ("ECDSA,", "hybrid -newkey takes exactly two comma-joined specs"),
    (",ECDSA", "hybrid -newkey takes exactly two comma-joined specs"),
    (" , ", "hybrid -newkey takes exactly two comma-joined specs"),
    ("ECDSA,,ML-DSA:2", "hybrid -newkey takes exactly two comma-joined specs"),
])
def test_cert_newkey_edge_cases(workdir, capsys, newkey, message):
    assert run("cert", "-newkey", newkey) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"pqcli: {message}\n")
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("command", ["cert", "csr"])
@pytest.mark.parametrize("country", ["Ü", "D@E", "D*"])
def test_country_outside_the_printable_alphabet_exits_2_and_writes_nothing(
        workdir, capsys, command, country):
    assert run(command, "-newkey", "ecdsa", "-subj", f"C={country}") == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"pqcli: attribute C is not a PrintableString: {country!r}\n")
    assert list(workdir.iterdir()) == []


def test_country_in_the_printable_alphabet_is_written_as_before(workdir, capsys):
    assert run("cert", "-newkey", "ecdsa", "-subj", "C=DE,CN=x") == 0
    cert = x509.parse_certificate((workdir / "certificate.pem").read_bytes())
    assert [(a.value, a.tag) for a in cert.tbs.subject.attributes] == [
        ("DE", der.PRINTABLE_STRING), ("x", der.UTF8_STRING)]
    assert run("view", "certificate.pem") == 0
    assert "Subject: C=DE,CN=x\n" in capsys.readouterr().out


def test_serial_number_is_written_as_a_printable_string(workdir):
    """RFC 5280 Appendix A: X520SerialNumber ::= PrintableString, as
    OpenSSL writes it."""
    assert run("cert", "-newkey", "ecdsa", "-subj", "CN=dev,serialNumber=ABC123") == 0
    theirs = cryptography.x509.load_pem_x509_certificate(
        (workdir / "certificate.pem").read_bytes())
    [attr] = theirs.subject.get_attributes_for_oid(NameOID.SERIAL_NUMBER)
    assert (attr.value, attr._type) == ("ABC123", _ASN1Type.PrintableString)


@pytest.mark.parametrize("command", ["cert", "csr"])
def test_serial_number_outside_the_printable_alphabet_exits_2_and_writes_nothing(
        workdir, capsys, command):
    assert run(command, "-newkey", "ecdsa", "-subj", "CN=dev,serialNumber=AB_1") == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "pqcli: attribute SERIALNUMBER is not a PrintableString: 'AB_1'\n")
    assert list(workdir.iterdir()) == []


def test_run_freezes_the_import_heap_then_exits_with_mains_code():
    """The process entry point freezes what importing built before the
    command runs, and exits with the code main returns."""
    code = ("import gc\n"
            "from pqcli import cli\n"
            "def stub(argv=None):\n"
            "    print(gc.get_freeze_count())\n"
            "    return 7\n"
            "cli.main = stub\n"
            "cli.run()\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 7, child.stderr
    assert int(child.stdout) > 0


def test_run_checks_as_the_installed_script(workdir):
    """Commands run through cli.run as the [project.scripts] script calls
    it; the SLH-DSA signer forks its workers after run's gc.freeze."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    for command, code, out in [
            ("cert -newkey slh-dsa:128f -out slh.pem -keyout slh.key", 0,
             "wrote slh.pem and slh.key (slh-dsa:128f, self-signed, 365 days)\n"),
            ("csr -key slh.key -subj CN=ci -out slh-req.pem", 0,
             "wrote slh-req.pem (slh-dsa:128f, subject CN=ci)\n"),
            ("view slh-req.pem", 0, "Certificate Request:\n    Subject: CN=ci\n"),
            ("verify slh.pem", 0, "native signature: valid\n"),
            ("verify tampered.der", 5, "native signature: invalid\n"),
            ("view missing.pem", 3, "")]:
        if "tampered" in command:
            (workdir / "tampered.der").write_bytes(_with_its_last_byte_flipped(workdir / "slh.pem"))
        child = subprocess.run([sys.executable, "-c", "from pqcli.cli import run; run()",
                                *command.split()], env=env, capture_output=True, text=True,
                               timeout=120)
        assert (child.returncode, child.stdout[:len(out)]) == (code, out), child.stderr


def test_main_in_process_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert run("cert", "-newkey", "ecdsa") == 0
    assert gc.get_freeze_count() == before


def test_installed_script_is_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["scripts"]["pqcli"] == "pqcli.cli:run"
