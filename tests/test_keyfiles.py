"""Key files of the cryptography-backed families (RSA, ECDSA, ML-DSA) are
written and read by the package's own DER: byte for byte as cryptography's
private_bytes(DER, PKCS8, NoEncryption()) writes them, and every key that
cryptography's load_der_private_key refuses is a KeyMismatch. cryptography's
serialization package is the oracle here; the package never imports it."""

import random

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ec

from pqcli import algs, der, oids, pem
from pqcli.errors import KeyMismatch

SPECS = ["rsa:1024", "rsa:2048", "ecdsa:P-256", "ecdsa:P-384", "ecdsa:P-521",
         "ml-dsa:2", "ml-dsa:3", "ml-dsa:5"]
P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


@pytest.fixture(scope="module")
def records():
    """Each spec, seeded and unseeded."""
    return {(text, seeded): algs.generate_keypair(algs.parse_alg_spec(text),
                                                  random.Random(text) if seeded else None)
            for text in SPECS for seeded in (True, False)}


def _pkcs8(key):
    return key.private_bytes(serialization.Encoding.DER, serialization.PrivateFormat.PKCS8,
                             serialization.NoEncryption())


def _public(key):
    """The subjectPublicKey content of a cryptography key, as cryptography writes it."""
    public = key.public_key()
    if isinstance(public, ec.EllipticCurvePublicKey):
        return public.public_bytes(serialization.Encoding.X962,
                                   serialization.PublicFormat.UncompressedPoint)
    if hasattr(public, "public_numbers"):
        return public.public_bytes(serialization.Encoding.DER, serialization.PublicFormat.PKCS1)
    return public.public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "unseeded"])
@pytest.mark.parametrize("text", SPECS)
def test_key_files_and_public_keys_are_cryptography_s_bytes(records, text, seeded):
    record = records[text, seeded]
    assert record.private == _pkcs8(record.key)
    assert record.public == _public(record.key)


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "unseeded"])
@pytest.mark.parametrize("text", SPECS)
def test_a_loaded_key_is_the_key_cryptography_loads(records, text, seeded):
    record = records[text, seeded]
    oracle = serialization.load_der_private_key(record.private, password=None)
    loaded = algs.load_private_key(record.private)
    assert loaded.spec == record.spec
    assert loaded.public == _public(oracle) == record.public
    assert loaded.private == record.private
    assert _pkcs8(loaded.key) == record.private


@pytest.mark.parametrize("text", SPECS)
def test_cryptography_s_pem_takes_the_one_call_path(records, text):
    key = records[text, True].key
    public, spki = key.public_key(), serialization.PublicFormat.SubjectPublicKeyInfo
    for label, written, payload in (
            (pem.LABEL_PRIVATE_KEY, key.private_bytes(serialization.Encoding.PEM,
                                                      serialization.PrivateFormat.PKCS8,
                                                      serialization.NoEncryption()), _pkcs8(key)),
            (pem.LABEL_PUBLIC_KEY, public.public_bytes(serialization.Encoding.PEM, spki),
             public.public_bytes(serialization.Encoding.DER, spki))):
        assert pem._decode_lines(written.decode()) == [(label, payload)]
        assert pem._decode_canonical(written.decode()) == [(label, payload)]


def _children(blob):
    return list(der.decode(blob).children)


def _outer(edit):
    """A case that edits the PKCS#8 fields."""
    def make(blob):
        fields = _children(blob)
        edit(fields)
        return der.encode(der.seq(*fields))
    return make


def _inner(edit):
    """A case that edits the fields inside the privateKey octets."""
    def make(blob):
        fields = _children(blob)
        inner = list(der.decode(fields[2].as_octets()).children)
        edit(inner)
        fields[2] = der.octet_string(der.encode(der.seq(*inner)))
        return der.encode(der.seq(*fields))
    return make


def _set(index, value):
    def edit(fields):
        fields[index] = value(fields[index]) if callable(value) else value
    return edit


def _p256_scalar(value):
    return _inner(_set(slice(1, None), [der.octet_string(value.to_bytes(32, "big"))]))


def _compressed(point_field):
    point = point_field.children[0].as_bits()
    return der.explicit(1, der.bit_string(bytes([2 + point[-1] % 2]) + point[1:33]))


_ATTRIBUTES = der.DerValue(0, der.CONTEXT, True)
_ANOTHER_P256_POINT = ec.derive_private_key(7, ec.SECP256R1()).public_key().public_bytes(
    serialization.Encoding.X962, serialization.PublicFormat.UncompressedPoint)

# (family, edit of that family's PKCS#8 key file, whether cryptography loads it)
_EDITED_KEYS = {
    "version 1": (None, _outer(_set(0, der.integer(1))), False),
    "version 2": (None, _outer(_set(0, der.integer(2))), False),
    "a trailing INTEGER": (None, _outer(lambda f: f.append(der.integer(5))), False),
    "version 1 with a public key": (None, _outer(lambda f: f.__setitem__(
        slice(None), [der.integer(1)] + f[1:] + [der.DerValue(1, der.CONTEXT, content=b"\0k")])),
        False),
    "attributes": (None, _outer(lambda f: f.append(_ATTRIBUTES)), True),
    "RSAPrivateKey v1": ("rsa", _inner(_set(0, der.integer(1))), False),
    "an extra RSA field": ("rsa", _inner(lambda f: f.append(der.integer(1))), False),
    "an even exponent": ("rsa", _inner(_set(2, der.integer(65538))), False),
    "a negative d": ("rsa", _inner(_set(3, lambda v: der.integer(-v.as_int()))), False),
    "a changed p": ("rsa", _inner(_set(4, lambda v: der.integer(v.as_int() + 2))), False),
    "a changed dmp1": ("rsa", _inner(_set(6, lambda v: der.integer(v.as_int() ^ 2))), False),
    "a changed iqmp": ("rsa", _inner(_set(8, lambda v: der.integer(v.as_int() ^ 2))), False),
    "no [1] point": ("ec", _inner(lambda f: f.pop()), True),
    "[0] naming its curve": ("ec", _inner(lambda f: f.insert(2, der.explicit(
        0, der.oid_value(oids.CURVE_P256)))), True),
    "its point compressed": ("ec", _inner(_set(2, _compressed)), True),
    "[0] naming P-384": ("ec", _inner(lambda f: f.insert(2, der.explicit(
        0, der.oid_value(oids.CURVE_P384)))), False),
    "ECPrivateKey v0": ("ec", _inner(_set(0, der.integer(0))), False),
    "a short scalar": ("ec", _inner(_set(1, lambda v: der.octet_string(v.content[1:]))), False),
    "a long scalar": ("ec", _inner(_set(1, lambda v: der.octet_string(b"\0" + v.content))),
                      False),
    "scalar 0": ("ec", _p256_scalar(0), False),
    "scalar n": ("ec", _p256_scalar(P256_ORDER), False),
    "scalar n + 1": ("ec", _p256_scalar(P256_ORDER + 1), False),
    "a flipped point": ("ec", lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]), False),
    "another key's point": ("ec", _inner(_set(2, der.explicit(1, der.bit_string(
        _ANOTHER_P256_POINT)))), False),
    "NULL ML-DSA parameters": ("ml", _outer(_set(1, lambda v: der.seq(v.children[0],
                                                                     der.null()))), False),
}


@pytest.fixture(scope="module")
def oracle_keys():
    return {"rsa": algs.generate_keypair(algs.parse_alg_spec("rsa:1024"), random.Random(3)),
            "ec": algs.generate_keypair(algs.parse_alg_spec("ecdsa"), random.Random(4)),
            "ml": algs.generate_keypair(algs.parse_alg_spec("ml-dsa:3"), random.Random(5))}


@pytest.mark.parametrize("case, family", [
    (case, family) for case, (only, _, _) in _EDITED_KEYS.items()
    for family in ((only,) if only else ("rsa", "ec", "ml"))])
def test_an_edited_key_loads_exactly_when_cryptography_loads_it(oracle_keys, case, family):
    _, edit, loads = _EDITED_KEYS[case]
    record = oracle_keys[family]
    blob = edit(record.private)
    assert blob != record.private
    if not loads:
        with pytest.raises(ValueError):
            serialization.load_der_private_key(blob, password=None)
        with pytest.raises(KeyMismatch):
            algs.keypair_from_private(record.spec, blob)
        with pytest.raises(KeyMismatch):
            algs.load_private_key(blob)
        return
    oracle = serialization.load_der_private_key(blob, password=None)
    assert algs.keypair_from_private(record.spec, blob).public == _public(oracle) == record.public
    assert algs.load_private_key(blob).public == record.public


def test_an_rsa_key_without_null_parameters_is_refused(oracle_keys):
    """RFC 8017 A.1 makes the parameters NULL, and every key file written
    here or by cryptography or OpenSSL has it; cryptography also reads a key
    without it, which is the one key the loaders here refuse that it takes."""
    record = oracle_keys["rsa"]
    blob = _outer(_set(1, der.seq(der.oid_value(oids.RSA_ENCRYPTION))))(record.private)
    assert _public(serialization.load_der_private_key(blob, password=None)) == record.public
    with pytest.raises(KeyMismatch, match="privateKeyAlgorithm"):
        algs.keypair_from_private(record.spec, blob)


def test_a_key_file_keeps_the_built_in_oids_under_an_override(oracle_keys):
    table = algs.Registry.default().with_overrides("ml-dsa:3 = 1.3.6.1.4.1.99999.1")
    with algs.use_registry(table):
        record = algs.generate_keypair(algs.parse_alg_spec("ml-dsa:3"), random.Random(5))
        assert algs.load_private_key(record.private) == record
    assert record.private == oracle_keys["ml"].private
