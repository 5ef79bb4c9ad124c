"""A private key is parsed and checked once: records from load_private_key
and generate_keypair carry the loaded key, and signing through a record
loads no key again. sign takes no encoded key."""

import dataclasses
import random
import types

import pytest

from pqcli import algs, catalyst, chameleon, composite, der, slhdsa, x509
from pqcli.errors import KeyMismatch
from pqcli.names import parse_name


@pytest.fixture
def key_loads(monkeypatch):
    """Counts the private-key loads of the single-algorithm families, each
    a read of one encoded key with the package's own DER."""
    counter = types.SimpleNamespace(loads=0)

    def counting(load):
        def wrapper(spec, private):
            counter.loads += 1
            return load(spec, private)
        return wrapper

    for name, family in algs._FAMILIES.items():
        if name != algs.FAMILY_COMPOSITE:
            monkeypatch.setattr(family, "load", counting(family.load))
    return counter


def _composite_private(*records):
    return composite.CompositeKeyMaterial(tuple(
        composite.CompositeComponent(r.spec, algs.spki_for_key(r), r.private)
        for r in records)).private_der()


def _issue_every_shape(rsa, ml3, ec, hybrid_alt, cmp):
    """Five certificates (RSA, RSA+ML-DSA:3 Catalyst, ML-DSA:3_RSA composite,
    an ECDSA/ML-DSA:3 chameleon pair) and one CSR, each checked."""
    name = parse_name("CN=keyload")

    def tbs(key):
        return x509.build_tbs(name, name, algs.spki_for_key(key),
                              x509.default_validity(1),
                              algs.signature_algorithm_for(key.spec))

    certs = [x509.sign_certificate(tbs(rsa), rsa),
             catalyst.issue_catalyst(tbs(rsa), rsa, hybrid_alt),
             x509.sign_certificate(tbs(cmp), cmp)]
    certs.extend(chameleon.issue_paired(
        chameleon.CertParams(subject=name), chameleon.CertParams(), ec, ml3))
    for cert in certs:
        parsed = x509.parse_certificate(cert.emit())
        assert x509.verify_certificate(parsed, parsed.tbs.spki).all_valid
    assert x509.verify_csr(x509.parse_csr(x509.build_csr(name, cmp).emit()))


def test_loaded_records_sign_without_loading(rsa_key, ml3_key, ec_key, key_loads):
    rsa = algs.load_private_key(rsa_key.private)
    assert key_loads.loads == 1
    cmp = algs.load_private_key(_composite_private(ml3_key, rsa_key))
    assert key_loads.loads == 3      # one per component
    ml3 = algs.load_private_key(ml3_key.private)
    ec = algs.load_private_key(ec_key.private)
    key_loads.loads = 0
    _issue_every_shape(rsa, ml3, ec, ml3, cmp)
    assert key_loads.loads == 0


def test_generated_records_never_load(key_loads):
    rng = random.Random(11)
    rsa = algs.generate_keypair(algs.parse_alg_spec("rsa:2048"))
    ml3 = algs.generate_keypair(algs.parse_alg_spec("ml-dsa:3"), rng)
    ec = algs.generate_keypair(algs.parse_alg_spec("ecdsa"), rng)
    cmp = algs.generate_keypair(algs.parse_alg_spec("ml-dsa:3_rsa:2048"))
    _issue_every_shape(rsa, ml3, ec, ml3, cmp)
    assert key_loads.loads == 0


def test_sign_refuses_encoded_keys(rsa_key, key_loads):
    for private in (rsa_key.private, bytearray(rsa_key.private)):
        with pytest.raises(AttributeError):
            algs.sign(rsa_key.spec, private, b"m")
    assert key_loads.loads == 0


def test_signatures_match_the_encoded_key_path(rsa_key, slh_key):
    loaded = algs.load_private_key(rsa_key.private)
    for record in (rsa_key, loaded):
        assert (algs.sign(record.spec, record, b"same bytes")
                == algs.sign(record.spec, algs.keypair_from_private(record.spec, record.private),
                             b"same bytes"))
    ps = slhdsa.PARAMETER_SETS["128f"]
    sk = algs.load_private_key(slh_key.private).key
    assert slh_key.key == sk
    assert (slhdsa.sign(ps, b"m", slh_key.key, deterministic=True)
            == slhdsa.sign(ps, b"m", sk, deterministic=True))


def test_record_of_another_spec_is_rejected(ec_key, ec384_key, ml3_key, rsa_key, key_loads):
    cmp = algs.load_private_key(_composite_private(ml3_key, ec_key))
    key_loads.loads = 0
    for spec, record in ((ec_key.spec, ec384_key),
                         (algs.parse_alg_spec("rsa:3072"), rsa_key),
                         (algs.parse_alg_spec("ecdsa_ml-dsa:3"), cmp),
                         (ml3_key.spec, cmp),
                         (ec_key.spec, cmp.key.components[0])):
        with pytest.raises(KeyMismatch):
            algs.sign(spec, record, b"m")
    assert key_loads.loads == 0


def test_rsa_key_with_wrong_crt_coefficient_rejected(rsa_key):
    outer = der.decode(rsa_key.private)
    inner = der.decode(outer.children[2].as_octets())
    iqmp = inner.children[8].as_int()
    bad_inner = inner._replace(children=inner.children[:8] + (der.integer(iqmp ^ 2),))
    bad = der.encode(outer._replace(children=outer.children[:2] + (
        der.octet_string(der.encode(bad_inner)),) + outer.children[3:]))
    with pytest.raises(KeyMismatch):
        algs.load_private_key(bad)


def test_records_compare_on_spec_public_private(rsa_key):
    loaded = algs.load_private_key(rsa_key.private)
    assert loaded.key is not None and loaded.key is not rsa_key.key
    assert loaded == rsa_key and hash(loaded) == hash(rsa_key)
    with pytest.raises(TypeError):
        algs.KeyPairRecord(rsa_key.spec, rsa_key.public, rsa_key.private)
    assert dataclasses.replace(rsa_key, private=rsa_key.private + b"\x00") != rsa_key


def _leaks(text: str, private: bytes, public: bytes) -> bool:
    """Whether text shows any 16-byte run of the private encoding that is
    not also part of the public key."""
    for i in range(len(private) - 15):
        chunk = private[i:i + 16]
        if chunk not in public and (chunk.hex() in text or repr(chunk)[2:-1] in text):
            return True
    return False


def test_repr_hides_private_keys(ec_key, ml3_key, rsa_key, slh_key):
    cmp = algs.load_private_key(_composite_private(ml3_key, ec_key))
    for record in (ec_key, ml3_key, rsa_key, slh_key, cmp):
        assert not _leaks(repr(record), record.private, record.public), record.spec
    for c in cmp.key.components:
        assert not _leaks(repr(c), c.private, c.spki.key_bits), c.spec
    # the check can fail
    assert _leaks(repr(rsa_key.private), rsa_key.private, rsa_key.public)
