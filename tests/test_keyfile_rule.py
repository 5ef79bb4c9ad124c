"""Every family's key file is read by one rule, SLH-DSA's included: a
PKCS#8 v1 key (RFC 5208) of version 0, the privateKeyAlgorithm pqcli
writes, the privateKey octets and at most a [0] attributes field. A file
that breaks it is a KeyMismatch, alone or as a composite component, and
pqcli csr -key exits 4 on it and writes no request.

Version 1, the OneAsymmetricKey of RFC 5958, is refused for every family,
as cryptography's load_der_private_key refuses it (tests/test_keyfiles.py
checks that for RSA, ECDSA and ML-DSA). OpenSSL 3.5 reads it, so only
version 5 and the trailing field are checked against OpenSSL here."""

import random
import subprocess

import pytest

from pqcli import algs, cli, composite, der, pem
from pqcli.errors import KeyMismatch

from test_openssl import _openssl_version


def _edited(edit):
    def make(blob):
        fields = list(der.decode(blob).children)
        edit(fields)
        return der.encode(der.seq(*fields))
    return make


def _set(index, value):
    return _edited(lambda fields: fields.__setitem__(index, value(fields[index])))


EDITS = {
    "version 1": _set(0, lambda _: der.integer(1)),
    "version 5": _set(0, lambda _: der.integer(5)),
    "a trailing field": _edited(lambda fields: fields.append(der.integer(5))),
    "NULL parameters": _set(1, lambda alg: der.seq(alg.children[0], der.null())),
}


@pytest.fixture(scope="module")
def slh128s_key():
    return algs.generate_keypair(algs.parse_alg_spec("slh-dsa:128s"), random.Random(107))


def _container(*privates):
    return der.wrap_sequence(b"".join(privates))


def _csr_exits_4(blob, path):
    """Whether csr -key exits 4 on the key file, as PEM and as DER, and
    writes no request."""
    pem.write_private_key(path / "k.pem", blob)
    (path / "k.der").write_bytes(blob)
    return all(cli.main(["csr", "-key", str(path / name), "-subj", "CN=rule",
                         "-out", str(path / "req.pem")]) == 4
               and not (path / "req.pem").exists() for name in ("k.pem", "k.der"))


@pytest.mark.parametrize("case", list(EDITS))
def test_an_edited_slh_dsa_key_file_is_refused(case, slh_key, tmp_path, capsys):
    blob = EDITS[case](slh_key.private)
    assert blob != slh_key.private
    with pytest.raises(KeyMismatch, match="cannot load private key for slh-dsa:128f"):
        algs.load_private_key(blob)
    with pytest.raises(KeyMismatch):
        algs.keypair_from_private(slh_key.spec, blob)
    assert _csr_exits_4(blob, tmp_path)
    assert "cannot load private key for slh-dsa:128f" in capsys.readouterr().err


@pytest.mark.parametrize("case", list(EDITS))
def test_an_edited_slh_dsa_component_is_refused(case, ec_key, slh_key, tmp_path, capsys):
    blob = _container(ec_key.private, EDITS[case](slh_key.private))
    spec = algs.parse_alg_spec("ecdsa_slh-dsa:128f")
    assert algs.load_private_key(_container(ec_key.private, slh_key.private)).spec == spec
    with pytest.raises(KeyMismatch, match="cannot load private key for slh-dsa:128f"):
        algs.load_private_key(blob)
    with pytest.raises(KeyMismatch):
        composite.material_from_private(spec, blob)
    assert _csr_exits_4(blob, tmp_path)
    capsys.readouterr()


def test_a_key_of_another_parameter_set_is_refused(ec_key, slh_key, slh128s_key):
    assert algs.load_private_key(slh128s_key.private) == slh128s_key
    with pytest.raises(KeyMismatch, match="is slh-dsa:128s, not slh-dsa:128f"):
        algs.keypair_from_private(slh_key.spec, slh128s_key.private)
    with pytest.raises(KeyMismatch, match="slh-dsa:128s, not ecdsa:P-256_slh-dsa:128f"):
        composite.material_from_private(algs.parse_alg_spec("ecdsa_slh-dsa:128f"),
                                        _container(ec_key.private, slh128s_key.private))


@pytest.mark.skipif((_openssl_version() or (0, 0)) < (3, 5),
                    reason="needs OpenSSL 3.5 or later as the first openssl on PATH")
@pytest.mark.parametrize("case", ["version 5", "a trailing field"])
def test_openssl_refuses_the_edited_slh_dsa_key_file_too(case, slh_key, tmp_path):
    pem.write_private_key(tmp_path / "k.pem", EDITS[case](slh_key.private))
    result = subprocess.run(["openssl", "pkey", "-in", "k.pem", "-noout"], cwd=tmp_path,
                            capture_output=True, text=True)
    assert result.returncode != 0
