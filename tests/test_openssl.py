"""OpenSSL as an independent check on our encodings and signatures.

The RSA and ECDSA cases need the first `openssl` on PATH to be 3.0 or
later; the post-quantum cases need 3.5 or later, since earlier releases
know neither ML-DSA nor SLH-DSA. Each case is skipped on its own.
"""

import random
import re
import shutil
import subprocess

import cryptography.x509
import pytest
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from pqcli import algs, cli, composite, der, pem, slhdsa, x509
from pqcli.errors import KeyMismatch
from pqcli.names import parse_name

from test_slhdsa import SLH_KEY_PARTS, with_a_flipped_part
from test_x509 import (
    certificate_with_a_repeated_extension,
    certificate_with_another_tbs_algorithm,
)


def _openssl_version():
    path = shutil.which("openssl")
    if path is None:
        return None
    out = subprocess.run([path, "version"], capture_output=True, text=True).stdout
    match = re.match(r"OpenSSL (\d+)\.(\d+)", out)
    return (int(match.group(1)), int(match.group(2))) if match else None


pytestmark = pytest.mark.skipif(
    (_openssl_version() or (0, 0)) < (3, 0),
    reason="needs OpenSSL 3.0 or later as the first openssl on PATH")
post_quantum = pytest.mark.skipif(
    (_openssl_version() or (0, 0)) < (3, 5),
    reason="needs OpenSSL 3.5 or later as the first openssl on PATH")

_SHAPES = {
    "rsa:2048": 201,
    "ecdsa:P-384": 202,
    "ml-dsa:3": 203,
    "slh-dsa:128f": 204,
}
_SHAPE_PARAMS = [pytest.param(text, marks=() if text.startswith(("rsa", "ecdsa")) else
                              post_quantum) for text in sorted(_SHAPES)]


def _openssl(*args, cwd):
    return subprocess.run(["openssl", *args], cwd=cwd, capture_output=True, text=True)


@pytest.fixture(scope="module")
def keys():
    return {text: algs.generate_keypair(algs.parse_alg_spec(text), random.Random(seed))
            for text, seed in _SHAPES.items()}


def _write_self_signed(path, key):
    name = parse_name("CN=openssl check")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(key), x509.default_validity(),
                         algs.signature_algorithm_for(key.spec),
                         rng=random.Random(1))
    pem.write_pem(path, pem.LABEL_CERTIFICATE, x509.sign_certificate(tbs, key).emit())


@pytest.mark.parametrize("text", _SHAPE_PARAMS)
def test_openssl_verifies_self_signed_certificate(text, keys, tmp_path):
    _write_self_signed(tmp_path / "c.pem", keys[text])
    result = _openssl("verify", "-check_ss_sig", "-CAfile", "c.pem", "c.pem", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "c.pem: OK" in result.stdout


@pytest.mark.parametrize("text", _SHAPE_PARAMS)
def test_openssl_reads_private_key(text, keys, tmp_path):
    pem.write_private_key(tmp_path / "key.pem", keys[text].private)
    result = _openssl("pkey", "-in", "key.pem", "-noout", cwd=tmp_path)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("key, newkey", [("rsa:2048", "rsa"), ("ecdsa:P-384", "ecdsa")])
def test_openssl_checks_the_files_the_cli_writes(key, newkey, tmp_path, monkeypatch, capsys):
    """Key files from pqcli's own DER; ECDSA signed through pqcli's ec.ECDSA subclass."""
    monkeypatch.chdir(tmp_path)
    for argv in (["key", "-t", key, "-out", "k.key"],
                 ["csr", "-key", "k.key", "-subj", "CN=ci", "-out", "req.pem"],
                 ["cert", "-newkey", newkey, "-out", "c.pem", "-keyout", "c.key"],
                 ["verify", "c.pem"]):
        assert cli.main(argv) == 0
    for args in (("pkey", "-in", "k.key", "-check", "-noout"),
                 ("req", "-verify", "-in", "req.pem", "-noout"),
                 ("verify", "-check_ss_sig", "-CAfile", "c.pem", "c.pem")):
        result = _openssl(*args, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
    capsys.readouterr()


_MESSAGE = b"the same bytes from two implementations"


def _digest_args(text):
    """pkeyutl hashes the raw input itself only when told the digest; the
    PQC schemes sign the message directly."""
    return ("-digest", "sha256") if text.startswith(("rsa", "ecdsa")) else ()


@pytest.mark.parametrize("text", _SHAPE_PARAMS)
def test_openssl_verifies_our_signature(text, keys, tmp_path):
    key = keys[text]
    pem.write_pem(tmp_path / "pub.pem", pem.LABEL_PUBLIC_KEY, algs.spki_for_key(key).der)
    (tmp_path / "msg").write_bytes(_MESSAGE)
    (tmp_path / "sig").write_bytes(algs.sign(key.spec, key, _MESSAGE))
    result = _openssl("pkeyutl", "-verify", "-rawin", *_digest_args(text),
                      "-pubin", "-inkey", "pub.pem", "-in", "msg", "-sigfile", "sig",
                      cwd=tmp_path)
    assert result.returncode == 0, result.stderr + result.stdout


@pytest.mark.parametrize("text", _SHAPE_PARAMS)
def test_we_verify_openssl_signature(text, keys, tmp_path):
    key = keys[text]
    pem.write_private_key(tmp_path / "key.pem", key.private)
    (tmp_path / "msg").write_bytes(_MESSAGE)
    result = _openssl("pkeyutl", "-sign", "-rawin", *_digest_args(text),
                      "-inkey", "key.pem", "-in", "msg", "-out", "sig", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    signature = (tmp_path / "sig").read_bytes()
    assert algs.verify(key.spec, key.public, _MESSAGE, signature)
    assert not algs.verify(key.spec, key.public, _MESSAGE + b"!", signature)


def test_openssl_refuses_a_repeated_extension(keys, tmp_path):
    """RFC 5280 4.2: one extension of each type. The signature is good, so
    the repeated basicConstraints alone is what openssl refuses."""
    pem.write_pem(tmp_path / "c.pem", pem.LABEL_CERTIFICATE,
                  certificate_with_a_repeated_extension(keys["ecdsa:P-384"]))
    result = _openssl("verify", "-check_ss_sig", "-CAfile", "c.pem", "c.pem", cwd=tmp_path)
    assert result.returncode != 0
    assert "ossl_x509v3_cache_extensions:invalid certificate" in result.stderr


@pytest.mark.parametrize("issuer, inner", [("ec", "sha384"),
                                           pytest.param("ml-dsa", "null", marks=post_quantum)])
def test_openssl_refuses_a_tbs_algorithm_that_differs_from_the_outer_one(
        issuer, inner, ec_key, ml2_key, tmp_path):
    """RFC 5280 4.1.1.2; -check_ss_sig, since openssl does not otherwise
    check a trust anchor's own signature."""
    key = {"ec": ec_key, "ml-dsa": ml2_key}[issuer]
    pem.write_pem(tmp_path / "c.pem", pem.LABEL_CERTIFICATE,
                  certificate_with_another_tbs_algorithm(key, inner))
    result = _openssl("verify", "-check_ss_sig", "-CAfile", "c.pem", "c.pem", cwd=tmp_path)
    assert result.returncode != 0
    assert "certificate signature failure" in result.stdout + result.stderr


def test_explicit_curve_ec_key_is_not_ours_though_openssl_takes_it(tmp_path, capsys):
    """RFC 5480 2.1.1: PKIX uses named curves only, never specifiedCurve."""
    for args in (("ecparam", "-name", "prime256v1", "-param_enc", "explicit", "-genkey",
                  "-out", "ec.pem"),
                 ("pkcs8", "-topk8", "-nocrypt", "-in", "ec.pem", "-out", "key.pem"),
                 ("req", "-new", "-x509", "-key", "key.pem", "-subj", "/CN=explicit",
                  "-out", "c.pem"),
                 ("verify", "-check_ss_sig", "-CAfile", "c.pem", "c.pem")):
        result = _openssl(*args, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
    assert cli.main(["verify", str(tmp_path / "c.pem")]) == 5
    assert "native signature: unsupported" in capsys.readouterr().out
    assert _csr_from_key(tmp_path / "key.pem", tmp_path) == 4
    assert "EC key without a named curve" in capsys.readouterr().err


# 192s and 256s are left out: each adds seconds of signing.
@post_quantum
@pytest.mark.parametrize("name", ["128f", "128s", "192f", "256f"])
def test_deterministic_slh_dsa_signature_matches_openssl(name, tmp_path):
    key = algs.generate_keypair(algs.parse_alg_spec(f"slh-dsa:{name}"), random.Random(206))
    pem.write_private_key(tmp_path / "key.pem", key.private)
    (tmp_path / "msg").write_bytes(_MESSAGE)
    result = _openssl("pkeyutl", "-sign", "-rawin", "-inkey", "key.pem", "-in", "msg",
                      "-pkeyopt", "deterministic:1", "-out", "sig", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    ours = slhdsa.sign(slhdsa.PARAMETER_SETS[name], _MESSAGE, key.key, deterministic=True)
    assert (tmp_path / "sig").read_bytes() == ours


@post_quantum
@pytest.mark.parametrize("part", SLH_KEY_PARTS)
def test_openssl_checks_the_slh_dsa_key_parts_pqcli_refuses_to_sign_with(part, keys,
                                                                          tmp_path):
    """The parts whose flip makes pqcli refuse at the first signature are
    those openssl pkey -check finds invalid; SK.prf is free in both."""
    pem.write_private_key(tmp_path / "key.pem",
                          with_a_flipped_part(keys["slh-dsa:128f"].private, 16, part))
    result = _openssl("pkey", "-in", "key.pem", "-check", "-noout", cwd=tmp_path)
    if part == "SK.prf":
        assert result.returncode == 0, result.stderr
        assert "Key is valid" in result.stdout + result.stderr
    else:
        assert result.returncode != 0
        assert "Key is invalid" in result.stdout + result.stderr


# SLH-DSA-SHA2 holds here until the SHA2 parameter sets share the Merkle core.
@pytest.mark.parametrize("algorithm, oid", [
    ("ED25519", "1.3.101.112"),
    pytest.param("SLH-DSA-SHA2-128f", "2.16.840.1.101.3.4.3.21", marks=post_quantum),
])
def test_algorithms_pqcli_does_not_implement(algorithm, oid, tmp_path, capsys):
    """An OpenSSL certificate under such a key is shown and reported
    unsupported, and its key file is refused, by OID."""
    result = _openssl("req", "-x509", "-newkey", algorithm, "-nodes", "-subj", "/CN=other",
                      "-keyout", "key.pem", "-out", "c.pem", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert cli.main(["verify", str(tmp_path / "c.pem")]) == 5
    out, err = capsys.readouterr()
    assert "native signature: unsupported" in out
    assert "warning: issuer key algorithm not recognized" in err
    assert cli.main(["view", str(tmp_path / "c.pem")]) == 0
    capsys.readouterr()
    assert _csr_from_key(tmp_path / "key.pem", tmp_path) == 4
    assert f"unrecognized key algorithm {oid}" in capsys.readouterr().err
    assert not (tmp_path / "req.pem").exists()


@post_quantum
def test_openssl_rejects_composite_certificate(keys, tmp_path):
    """OpenSSL cannot decode a key under the interim composite OID; if a
    release learns to, this test says so."""
    material = composite.composite_keygen(
        (keys["ml-dsa:3"].spec, keys["ecdsa:P-384"].spec), random.Random(205))
    cert = composite.issue_composite_certificate(parse_name("CN=composite"), material,
                                                 rng=random.Random(2))
    pem.write_pem(tmp_path / "c.pem", pem.LABEL_CERTIFICATE, cert.emit())
    result = _openssl("verify", "-check_ss_sig", "-CAfile", "c.pem", "c.pem", cwd=tmp_path)
    assert result.returncode != 0
    assert "unable to get certs public key" in result.stderr


# -- requests: openssl req -verify and pqcli verify agree ---------------

# each shape: the conftest key fixture pqcli signs with, and openssl req's -newkey
_REQUEST_SHAPES = {
    "rsa": ("rsa_key", ["rsa:2048"]),
    "ecdsa": ("ec_key", ["ec", "-pkeyopt", "ec_paramgen_curve:P-256"]),
    "ml-dsa-44": ("ml2_key", ["ML-DSA-44"]),
    "slh-dsa-shake-128f": ("slh_key", ["SLH-DSA-SHAKE-128f"]),
}


@pytest.mark.parametrize("flipped", [False, True], ids=["intact", "flipped"])
@pytest.mark.parametrize("maker", ["pqcli", "openssl"])
@pytest.mark.parametrize("shape", [
    pytest.param(shape, marks=() if shape in ("rsa", "ecdsa") else post_quantum)
    for shape in _REQUEST_SHAPES])
def test_openssl_and_pqcli_verify_agree_on_a_request(shape, maker, flipped, request, tmp_path,
                                                     capsys):
    fixture, newkey = _REQUEST_SHAPES[shape]
    if maker == "pqcli":
        blob = x509.build_csr(parse_name("CN=oracle"), request.getfixturevalue(fixture)).emit()
    else:
        made = _openssl("req", "-new", "-newkey", *newkey, "-nodes", "-keyout", "k.pem",
                        "-subj", "/CN=oracle", "-outform", "DER", "-out", "r.der", cwd=tmp_path)
        assert made.returncode == 0, made.stderr
        blob = (tmp_path / "r.der").read_bytes()
    if flipped:
        blob = blob[:-1] + bytes([blob[-1] ^ 1])
    pem.write_pem(tmp_path / "r.pem", pem.LABEL_CSR, blob)
    # OpenSSL 3.0 exits 0 after "verify failure", so its verdict is read from the text
    theirs = _openssl("req", "-verify", "-in", "r.pem", "-noout", cwd=tmp_path)
    said = theirs.stdout + theirs.stderr
    assert ("verify OK" in said, "verify failure" in said) == (not flipped, flipped), said
    assert cli.main(["verify", str(tmp_path / "r.pem")]) == (5 if flipped else 0)
    assert capsys.readouterr().out == f"native signature: {'invalid' if flipped else 'valid'}\n"


# -- ML-DSA private keys in the forms OpenSSL writes --------------------

_ML_DSA_LEVELS = {"ML-DSA-44": 2, "ML-DSA-65": 3, "ML-DSA-87": 5}


def _openssl_ml_dsa_key(tmp_path, name, form=None):
    """An OpenSSL key file: its default form (seed-priv) unless form is given."""
    args = ("-provparam", f"ml-dsa.output_formats={form}") if form else ()
    result = _openssl("genpkey", "-algorithm", name, *args, "-out", "key.pem", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    return tmp_path / "key.pem"


def _csr_from_key(path, tmp_path):
    return cli.main(["csr", "-key", str(path), "-subj", "CN=openssl key",
                     "-out", str(tmp_path / "req.pem")])


@post_quantum
@pytest.mark.parametrize("form", ["seed-priv", "seed-only", None],
                         ids=["seed-priv", "seed-only", "default"])
@pytest.mark.parametrize("name", sorted(_ML_DSA_LEVELS))
def test_openssl_ml_dsa_key_signs_a_request_openssl_accepts(name, form, tmp_path, capsys):
    path = _openssl_ml_dsa_key(tmp_path, name, form)
    record = algs.load_private_key(pem.first_block(pem.read_pem(path), pem.LABEL_PRIVATE_KEY))
    assert record.spec == algs.parse_alg_spec(f"ml-dsa:{_ML_DSA_LEVELS[name]}")
    public = _openssl("pkey", "-in", "key.pem", "-pubout", "-outform", "DER", "-out", "pub.der",
                      cwd=tmp_path)
    assert public.returncode == 0, public.stderr
    assert record.public == algs.SubjectPublicKeyInfo.from_der(
        (tmp_path / "pub.der").read_bytes()).key_bits
    assert _csr_from_key(path, tmp_path) == 0, capsys.readouterr().err
    result = _openssl("req", "-in", "req.pem", "-verify", "-noout", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "verify OK" in result.stdout + result.stderr
    capsys.readouterr()
    assert cli.main(["verify", str(tmp_path / "req.pem")]) == 0
    assert capsys.readouterr().out == "native signature: valid\n"


@post_quantum
@pytest.mark.parametrize("name", sorted(_ML_DSA_LEVELS))
def test_openssl_expanded_only_ml_dsa_key_is_refused(name, tmp_path, capsys):
    path = _openssl_ml_dsa_key(tmp_path, name, "priv-only")
    assert _csr_from_key(path, tmp_path) == 4
    assert "is an expanded key without its seed" in capsys.readouterr().err
    assert not (tmp_path / "req.pem").exists()


def _with_expanded_key(blob, edit):
    """The PKCS#8 key blob in the both form, its expandedKey passed through edit."""
    version, algorithm, private = der.decode(blob).children
    seed, expanded = der.decode(private.content).children
    both = der.seq(seed, der.octet_string(edit(expanded.content)))
    return der.encode(der.seq(version, algorithm, der.octet_string(der.encode(both))))


def _flip(where):
    return lambda key: key[:where] + bytes([key[where] ^ 1]) + key[where + 1:]


@post_quantum
@pytest.mark.parametrize("edit", [_flip(0), _flip(31), _flip(64), _flip(127),
                                  lambda key: key[:-1], lambda key: key + b"\0"],
                         ids=["rho", "rho-end", "tr", "tr-end", "short", "long"])
@pytest.mark.parametrize("name", sorted(_ML_DSA_LEVELS))
def test_both_form_key_whose_expanded_key_disagrees_is_refused(name, edit, tmp_path, capsys):
    blob = pem.first_block(pem.read_pem(_openssl_ml_dsa_key(tmp_path, name)),
                           pem.LABEL_PRIVATE_KEY)
    assert _with_expanded_key(blob, lambda key: key) == blob
    edited = _with_expanded_key(blob, edit)
    with pytest.raises(KeyMismatch, match="does not match its seed"):
        algs.load_private_key(edited)
    pem.write_pem(tmp_path / "bad.pem", pem.LABEL_PRIVATE_KEY, edited)
    assert _csr_from_key(tmp_path / "bad.pem", tmp_path) == 4
    assert "does not match its seed" in capsys.readouterr().err


@post_quantum
def test_both_form_key_of_another_level_or_seed_size_is_refused(tmp_path):
    blob = pem.first_block(pem.read_pem(_openssl_ml_dsa_key(tmp_path, "ML-DSA-44")),
                           pem.LABEL_PRIVATE_KEY)
    with pytest.raises(KeyMismatch, match="the private key is ml-dsa:2, not ml-dsa:3"):
        algs.keypair_from_private(algs.parse_alg_spec("ml-dsa:3"), blob)
    version, algorithm, private = der.decode(blob).children
    seed, expanded = der.decode(private.content).children
    short_seed = der.seq(der.octet_string(seed.content[:31]), expanded)
    with pytest.raises(KeyMismatch, match="cannot load private key for ml-dsa:2"):
        algs.load_private_key(der.encode(der.seq(
            version, algorithm, der.octet_string(der.encode(short_seed)))))


def test_three_subjects_that_once_printed_alike_view_apart(tmp_path, capsys):
    """One CN holding a comma, one RDN of two attributes, and two RDNs."""
    subjects = []
    for i, args in enumerate((["-subj", "/CN=a,O=evil"],
                              ["-multivalue-rdn", "-subj", "/CN=a+O=evil"],
                              ["-subj", "/CN=a/O=evil"])):
        result = _openssl("req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:P-256",
                          "-nodes", "-keyout", f"{i}.key", "-out", f"{i}.pem", *args,
                          cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert cli.main(["view", str(tmp_path / f"{i}.pem")]) == 0
        subjects += [line.split("Subject: ", 1)[1]
                     for line in capsys.readouterr().out.splitlines() if "Subject: " in line]
    assert subjects == ["CN=a\\,O=evil", "CN=a+O=evil", "CN=a,O=evil"]


def test_view_spells_serial_number_as_openssl_does(tmp_path, capsys):
    """OpenSSL's RFC 2253 form lists the RDNs last first; view keeps the order written."""
    assert cli.main(["cert", "-newkey", "ecdsa", "-subj", "CN=dev,serialNumber=ABC123",
                     "-out", str(tmp_path / "c.pem"), "-keyout", str(tmp_path / "k.pem")]) == 0
    result = _openssl("x509", "-in", "c.pem", "-noout", "-subject", "-nameopt", "RFC2253",
                      cwd=tmp_path)
    assert result.stdout == "subject=serialNumber=ABC123,CN=dev\n", result.stderr
    capsys.readouterr()
    assert cli.main(["view", str(tmp_path / "c.pem")]) == 0
    assert "        Subject: CN=dev,serialNumber=ABC123\n" in capsys.readouterr().out


# -- PEM as OpenSSL writes it ---------------------------------------------

@post_quantum
def test_pem_that_openssl_writes_takes_the_one_call_path(tmp_path):
    for args in (("genpkey", "-algorithm", "ML-DSA-65", "-out", "key.pem"),
                 ("req", "-new", "-key", "key.pem", "-subj", "/CN=pem", "-out", "req.pem"),
                 ("x509", "-req", "-in", "req.pem", "-key", "key.pem", "-outform", "PEM",
                  "-out", "cert.pem")):
        result = _openssl(*args, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
    for name, label in (("key.pem", pem.LABEL_PRIVATE_KEY), ("req.pem", pem.LABEL_CSR),
                        ("cert.pem", pem.LABEL_CERTIFICATE)):
        text = (tmp_path / name).read_text()
        blocks = pem._decode_lines(text)
        assert [block_label for block_label, _ in blocks] == [label]
        assert pem._decode_canonical(text) == blocks


# -- PEM input as OpenSSL reads it ----------------------------------------

@pytest.fixture(scope="module")
def openssl_ec_files(tmp_path_factory):
    """An ECDSA key, request and self-signed certificate as OpenSSL writes them."""
    where = tmp_path_factory.mktemp("openssl-ec")
    for args in (("genpkey", "-algorithm", "EC", "-pkeyopt", "ec_paramgen_curve:P-256",
                  "-out", "key.pem"),
                 ("req", "-new", "-key", "key.pem", "-subj", "/CN=pem", "-out", "req.pem"),
                 ("req", "-new", "-x509", "-key", "key.pem", "-subj", "/CN=pem",
                  "-out", "cert.pem")):
        result = _openssl(*args, cwd=where)
        assert result.returncode == 0, result.stderr
    return where


# per file: the OpenSSL command that reads it and writes its DER (a key's as
# its SPKI), and the pqcli command that reads it
_PEM_READERS = {
    "cert": (("x509",), ["verify"]),
    "req": (("req",), ["view"]),
    "key": (("pkey", "-pubout"), ["csr", "-subj", "CN=pem", "-out", "out.pem", "-key"]),
}


def _pqcli_der(kind, path):
    """The DER pqcli read from path: a key's as the SPKI of the request it made."""
    if kind != "key":
        return pem.read_block(path.read_bytes(), (pem.LABEL_CERTIFICATE, pem.LABEL_CSR))[1]
    request = cryptography.x509.load_pem_x509_csr((path.parent / "out.pem").read_bytes())
    return request.public_key().public_bytes(Encoding.DER, PublicFormat.SubjectPublicKeyInfo)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda data: b"caf\xe9 before\n" + data + b"caf\xe9 after\n",
                 id="latin-1-lines"),
    pytest.param(lambda data: b"\xef\xbb\xbf" + data, id="byte-order-mark"),
])
@pytest.mark.parametrize("kind", sorted(_PEM_READERS))
def test_pem_input_openssl_reads_pqcli_reads(kind, edit, openssl_ec_files, tmp_path,
                                             monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / f"{kind}.pem"
    path.write_bytes(edit((openssl_ec_files / f"{kind}.pem").read_bytes()))
    openssl_args, pqcli_argv = _PEM_READERS[kind]
    result = _openssl(*openssl_args, "-in", path.name, "-outform", "DER", "-out", "o.der",
                      cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert cli.main([*pqcli_argv, str(path)]) == 0
    assert _pqcli_der(kind, path) == (tmp_path / "o.der").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("kind", sorted(_PEM_READERS))
def test_a_byte_that_is_not_utf8_inside_a_body_line_is_refused(kind, openssl_ec_files,
                                                               tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    data = (openssl_ec_files / f"{kind}.pem").read_bytes()
    at = data.index(b"\n", data.index(b"-----\n") + 6) - 1  # the first body line's end
    path = tmp_path / f"{kind}.pem"
    path.write_bytes(data[:at] + b"\xe9" + data[at:])
    openssl_args, pqcli_argv = _PEM_READERS[kind]
    assert _openssl(*openssl_args, "-in", path.name, "-noout", cwd=tmp_path).returncode != 0
    assert cli.main([*pqcli_argv, str(path)]) == 4
    assert "bad base64" in capsys.readouterr().err
    assert not (tmp_path / "out.pem").exists()


# -- OpenSSL's -subj form -------------------------------------------------

@pytest.mark.parametrize("subject", ["/O=y/CN=x", "/CN=x\\/z/O=q", "/C=DE/ST=Bayern/CN=dev 1"])
def test_the_openssl_subj_form_makes_the_name_openssl_makes(subject, tmp_path, capsys):
    result = _openssl("req", "-new", "-x509", "-newkey", "ec", "-pkeyopt",
                      "ec_paramgen_curve:P-256", "-nodes", "-keyout", "o.key", "-out", "o.pem",
                      "-subj", subject, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert cli.main(["cert", "-newkey", "ecdsa", "-subj", subject,
                     "-out", str(tmp_path / "p.pem"), "-keyout", str(tmp_path / "p.key")]) == 0
    names = [cryptography.x509.load_pem_x509_certificate((tmp_path / name).read_bytes())
             .subject.public_bytes() for name in ("o.pem", "p.pem")]
    assert names[0] == names[1]
    capsys.readouterr()
