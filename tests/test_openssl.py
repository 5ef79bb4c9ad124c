"""OpenSSL 3.5 as an independent check on our encodings and signatures.

Skipped unless the first `openssl` on PATH is 3.5 or later: earlier
releases know neither ML-DSA nor SLH-DSA.
"""

import random
import re
import shutil
import subprocess

import pytest

from pqcli import algs, composite, pem, slhdsa, x509
from pqcli.names import parse_name


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
    pem.write_public_key(tmp_path / "pub.pem", algs.spki_for_key(key).der)
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
