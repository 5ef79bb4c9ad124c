"""OpenSSL 3.5 as an independent check on our encodings and signatures.

Skipped unless the first `openssl` on PATH is 3.5 or later: earlier
releases know neither ML-DSA nor SLH-DSA.
"""

import random
import re
import shutil
import subprocess

import pytest

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
    (_openssl_version() or (0, 0)) < (3, 5),
    reason="needs OpenSSL 3.5 or later as the first openssl on PATH")

_SHAPES = {
    "rsa:2048": 201,
    "ecdsa:P-384": 202,
    "ml-dsa:3": 203,
    "slh-dsa:128f": 204,
}


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


@pytest.mark.parametrize("text", sorted(_SHAPES))
def test_openssl_verifies_self_signed_certificate(text, keys, tmp_path):
    _write_self_signed(tmp_path / "c.pem", keys[text])
    result = _openssl("verify", "-check_ss_sig", "-CAfile", "c.pem", "c.pem", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "c.pem: OK" in result.stdout


@pytest.mark.parametrize("text", sorted(_SHAPES))
def test_openssl_reads_private_key(text, keys, tmp_path):
    pem.write_private_key(tmp_path / "key.pem", keys[text].private)
    result = _openssl("pkey", "-in", "key.pem", "-noout", cwd=tmp_path)
    assert result.returncode == 0, result.stderr


_MESSAGE = b"the same bytes from two implementations"


def _digest_args(text):
    """pkeyutl hashes the raw input itself only when told the digest; the
    PQC schemes sign the message directly."""
    return ("-digest", "sha256") if text.startswith(("rsa", "ecdsa")) else ()


@pytest.mark.parametrize("text", sorted(_SHAPES))
def test_openssl_verifies_our_signature(text, keys, tmp_path):
    key = keys[text]
    pem.write_pem(tmp_path / "pub.pem", pem.LABEL_PUBLIC_KEY, algs.spki_for_key(key).der)
    (tmp_path / "msg").write_bytes(_MESSAGE)
    (tmp_path / "sig").write_bytes(algs.sign(key.spec, key, _MESSAGE))
    result = _openssl("pkeyutl", "-verify", "-rawin", *_digest_args(text),
                      "-pubin", "-inkey", "pub.pem", "-in", "msg", "-sigfile", "sig",
                      cwd=tmp_path)
    assert result.returncode == 0, result.stderr + result.stdout


@pytest.mark.parametrize("text", sorted(_SHAPES))
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


@pytest.mark.parametrize("issuer, inner", [("ec", "sha384"), ("ml-dsa", "null")])
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
    ("SLH-DSA-SHA2-128f", "2.16.840.1.101.3.4.3.21"),
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
