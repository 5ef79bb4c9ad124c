import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
from cryptography.exceptions import UnsupportedAlgorithm as UnsupportedKeyType
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import dsa, ec

from pqcli import algs, cli, der, oids, pem, slhdsa, x509
from pqcli.errors import (
    BadValue,
    InvalidParameter,
    KeyMismatch,
    MalformedSpec,
    NestedComposite,
    TooFewComponents,
    TooManyComponents,
    UnknownAlgorithm,
    UnsupportedAlgorithm,
)
from pqcli.names import parse_name


# -- spec grammar -------------------------------------------------------

def test_parse_defaults():
    assert algs.parse_alg_spec("rsa") == algs.AlgorithmSpec("rsa", 2048)
    assert algs.parse_alg_spec("RSA") == algs.AlgorithmSpec("rsa", 2048)
    assert algs.parse_alg_spec("ml-dsa") == algs.AlgorithmSpec("ml-dsa", 2)
    assert algs.parse_alg_spec("ecdsa") == algs.AlgorithmSpec("ecdsa", "P-256")
    assert algs.parse_alg_spec("ec") == algs.AlgorithmSpec("ecdsa", "P-256")


def test_parse_parameters():
    assert algs.parse_alg_spec("rsa:3072").parameter == 3072
    assert algs.parse_alg_spec("ML-DSA:3").parameter == 3
    assert algs.parse_alg_spec("mldsa:5").parameter == 5
    assert algs.parse_alg_spec("slh-dsa:192f").parameter == "192f"
    assert algs.parse_alg_spec("SLH-DSA:128S").parameter == "128s"
    assert algs.parse_alg_spec("ecdsa:p384").parameter == "P-384"
    assert algs.parse_alg_spec("ecdsa:P-521").parameter == "P-521"


def test_parse_composite():
    spec = algs.parse_alg_spec("ML-DSA_RSA")
    assert spec.family == "composite"
    assert spec.components == (algs.AlgorithmSpec("ml-dsa", 2),
                               algs.AlgorithmSpec("rsa", 2048))
    assert spec.render() == "ml-dsa:2_rsa:2048"
    three = algs.parse_alg_spec("ml-dsa:3_rsa:3072_ecdsa:P-384")
    assert len(three.components) == 3


def test_parse_errors():
    with pytest.raises(MalformedSpec):
        algs.parse_alg_spec("")
    with pytest.raises(MalformedSpec):
        algs.parse_alg_spec("rsa:")
    with pytest.raises(MalformedSpec):
        algs.parse_alg_spec("ml-dsa__rsa")
    with pytest.raises(UnknownAlgorithm):
        algs.parse_alg_spec("ed25519")
    with pytest.raises(InvalidParameter):
        algs.parse_alg_spec("ml-dsa:4")
    with pytest.raises(InvalidParameter):
        algs.parse_alg_spec("ml-dsa:x")
    with pytest.raises(InvalidParameter):
        algs.parse_alg_spec("rsa:100")
    with pytest.raises(InvalidParameter):
        algs.parse_alg_spec("rsa:512")  # below the 1024 bits key generation accepts
    with pytest.raises(InvalidParameter):
        algs.parse_alg_spec("ecdsa:P-224")
    with pytest.raises(InvalidParameter):
        algs.parse_alg_spec("slh-dsa")  # parameter set is mandatory
    with pytest.raises(InvalidParameter):
        algs.parse_alg_spec("slh-dsa:512x")


# every spec name of each family, canonical first, with a parameter it takes
SPEC_NAMES = {"rsa": (("rsa",), "3072"), "ecdsa": (("ecdsa", "ec"), "P-384"),
              "ml-dsa": (("ml-dsa", "mldsa"), "5"), "slh-dsa": (("slh-dsa", "slhdsa"), "192f")}


@pytest.mark.parametrize("canonical", sorted(SPEC_NAMES))
def test_every_name_of_a_family_parses_as_its_canonical_name(canonical):
    names, param = SPEC_NAMES[canonical]
    expected = algs.parse_alg_spec(f"{canonical}:{param}")
    assert expected.family == canonical
    for name in names:
        for spelling in (name, name.upper(), name.title(), f" {name} "):
            assert algs.parse_alg_spec(f"{spelling}:{param}") == expected
            if canonical != "slh-dsa":  # the only family without a default
                assert algs.parse_alg_spec(spelling) == algs.parse_alg_spec(canonical)


@pytest.mark.parametrize("text", [
    *(name for name in oids.SIGNATURE_ALGORITHMS if name != "composite"),
    "rsa", "ecdsa", "ml-dsa", "MLDSA:3_ec:p384"])
def test_a_parsed_spec_renders_as_text_that_parses_to_it(text):
    spec = algs.parse_alg_spec(text)
    assert algs.parse_alg_spec(str(spec)) == spec


@pytest.mark.parametrize("text, curve", [
    ("P-256", "P-256"), ("p256", "P-256"), ("P384", "P-384"), ("p-521", "P-521")])
def test_curve_spellings_with_or_without_the_dash(text, curve):
    assert algs.parse_alg_spec(f"ecdsa:{text}") == algs.AlgorithmSpec("ecdsa", curve)


@pytest.mark.parametrize("text", ["P0256", "P-224", "secp256r1", "P٢٥٦"])
def test_other_curve_spellings_are_refused(text):
    with pytest.raises(InvalidParameter, match="unsupported curve"):
        algs.parse_alg_spec(f"ecdsa:{text}")


def test_composite_structure_rules():
    single = algs.AlgorithmSpec("rsa", 2048)
    with pytest.raises(TooFewComponents):
        algs.AlgorithmSpec("composite", components=(single,))
    with pytest.raises(TooManyComponents):
        algs.AlgorithmSpec("composite", components=(single,) * 5)
    comp = algs.AlgorithmSpec("composite", components=(single, single))
    with pytest.raises(NestedComposite):
        algs.AlgorithmSpec("composite", components=(comp, single))
    with pytest.raises(MalformedSpec):
        algs.AlgorithmSpec("rsa", 2048, components=(single, single))


# -- registry and OID mapping ------------------------------------------

def test_oid_for_known_specs():
    assert algs.oid_for(algs.parse_alg_spec("rsa")) == oids.SHA256_WITH_RSA
    assert algs.oid_for(algs.parse_alg_spec("ml-dsa:3")) == oids.ML_DSA_65
    assert algs.oid_for(algs.parse_alg_spec("slh-dsa:256f")) == oids.SLH_DSA_SHAKE_256F
    assert algs.oid_for(algs.parse_alg_spec("ml-dsa_rsa")) == oids.COMPOSITE_INTERIM
    assert algs.oid_for(algs.parse_alg_spec("rsa_ecdsa")) == oids.COMPOSITE_INTERIM


def test_oid_for_injective_over_non_composite():
    registry = algs.default_registry()
    seen = {}
    for name in registry.names():
        if name == "composite":
            continue
        value = registry.oid_for_name(name)
        assert value not in seen, f"{name} and {seen[value]} share an OID"
        seen[value] = name


def test_catalogue_names_are_the_canonical_registry_keys():
    """Each row but composite is the oid_name() of the spec it parses to,
    the check Registry made of every name before the catalogue."""
    for name in oids.SIGNATURE_ALGORITHMS:
        if name != "composite":
            assert algs._parse_single(name).oid_name() == name


def test_catalogue_rows_are_exactly_the_implemented_parameter_sets():
    names = set(oids.SIGNATURE_ALGORITHMS)
    assert {n for n in names if n.startswith("slh-dsa:")} == {
        f"slh-dsa:{ps}" for ps in slhdsa.PARAMETER_SETS}
    assert {n for n in names if n.startswith("ml-dsa:")} == {
        f"ml-dsa:{level}" for level in algs._ML_DSA_PRIVATE}
    assert names - {n for n in names if n.startswith(("slh-dsa:", "ml-dsa:"))} == {
        "rsa", "ecdsa", "composite"}


def test_default_registry_and_display_names_come_from_the_catalogue():
    registry = algs.Registry.default()
    assert registry.names() == tuple(oids.SIGNATURE_ALGORITHMS)
    for name, (value, display) in oids.SIGNATURE_ALGORITHMS.items():
        assert registry.oid_for_name(name) == value
        assert registry.name_for_oid(value) == name
        assert oids.algorithm_name(value) == display
    # the other display names are the key algorithms and curves only
    signature_oids = {value for value, _ in oids.SIGNATURE_ALGORITHMS.values()}
    assert set(oids.ALGORITHM_NAMES) - signature_oids == {
        oids.RSA_ENCRYPTION, oids.EC_PUBLIC_KEY,
        oids.CURVE_P256, oids.CURVE_P384, oids.CURVE_P521}


def test_registry_override_and_injectivity():
    registry = algs.default_registry()
    changed = registry.with_overrides("composite = 2.999.1  # placeholder\n")
    assert changed.oid_for_name("composite") == oids.ObjectIdentifier("2.999.1")
    # default instance untouched
    assert registry.oid_for_name("composite") == oids.COMPOSITE_INTERIM
    with pytest.raises(InvalidParameter):
        registry.with_overrides("composite = 1.2.840.113549.1.1.11\n")  # collides with rsa
    with pytest.raises(InvalidParameter):
        registry.with_overrides("not a mapping line\n")
    with pytest.raises(UnknownAlgorithm):
        registry.oid_for_name("nonesuch")


@pytest.mark.parametrize("name, key_oid", [
    ("ml-dsa:2", oids.RSA_ENCRYPTION), ("composite", oids.EC_PUBLIC_KEY)])
def test_registry_refuses_a_key_algorithm_oid(name, key_oid):
    """A key under rsaEncryption or id-ecPublicKey is read as RSA or ECDSA,
    so no signature algorithm may be mapped onto either."""
    with pytest.raises(InvalidParameter, match="key algorithm$"):
        algs.default_registry().with_overrides(f"{name} = {key_oid}\n")


def test_registry_from_environment(tmp_path):
    table = tmp_path / "oids.txt"
    table.write_text("# test table\nml-dsa:2 = 2.999.7\n")
    registry = algs.Registry.from_environment({"PQCLI_OID_TABLE": str(table)})
    assert registry.oid_for_name("ml-dsa:2") == oids.ObjectIdentifier("2.999.7")
    plain = algs.Registry.from_environment({})
    assert plain.oid_for_name("ml-dsa:2") == oids.ML_DSA_44


def test_signature_algorithm_params():
    rsa_alg = algs.signature_algorithm_for(algs.parse_alg_spec("rsa"))
    assert rsa_alg.parameters is not None and rsa_alg.parameters.tag == der.NULL
    for text in ("ecdsa", "ml-dsa:2", "slh-dsa:128f"):
        assert algs.signature_algorithm_for(algs.parse_alg_spec(text)).parameters is None


# -- keygen / sign / verify per family ----------------------------------

@pytest.mark.parametrize("spec_text,fixture", [
    ("ecdsa", "ec_key"),
    ("ml-dsa:2", "ml2_key"),
    ("rsa:2048", "rsa_key"),
    ("slh-dsa:128f", "slh_key"),
])
def test_sign_verify_round_trip(spec_text, fixture, request):
    record = request.getfixturevalue(fixture)
    assert record.spec == algs.parse_alg_spec(spec_text)
    message = b"round trip " + spec_text.encode()
    signature = algs.sign(record.spec, record, message)
    assert algs.verify(record.spec, record.public, message, signature)
    assert not algs.verify(record.spec, record.public, message + b"x", signature)
    mangled = bytearray(signature)
    mangled[len(mangled) // 2] ^= 0x40
    assert not algs.verify(record.spec, record.public, message, bytes(mangled))


def test_verify_is_total_on_garbage():
    record = algs.generate_keypair(algs.parse_alg_spec("ecdsa"), random.Random(3))
    assert algs.verify(record.spec, record.public, b"m", b"") is False
    assert algs.verify(record.spec, record.public, b"m", b"\x00" * 70) is False
    assert algs.verify(record.spec, b"not a point", b"m", b"sig") is False


def test_ecdsa_signs_and_verifies_as_ecdsa_with_sha256(ec_key):
    ours, = algs._FAMILIES[algs.FAMILY_ECDSA].sign_args
    theirs = ec.ECDSA(hashes.SHA256())
    assert isinstance(ours, ec.ECDSA)
    assert (type(ours.algorithm), ours.deterministic_signing) == (
        type(theirs.algorithm), theirs.deterministic_signing)
    public = ec_key.key.public_key()
    for signer, checker in ((ours, theirs), (theirs, ours)):
        signature = ec_key.key.sign(b"either object", signer)
        public.verify(signature, b"either object", checker)
    public.verify(algs.sign(ec_key.spec, ec_key, b"m"), b"m", theirs)
    assert algs.verify(ec_key.spec, ec_key.public, b"m", ec_key.key.sign(b"m", theirs))


def test_deterministic_keygen_reproducible():
    for text in ("ecdsa", "ml-dsa:2", "slh-dsa:128f", "rsa:1024"):
        spec = algs.parse_alg_spec(text)
        one = algs.generate_keypair(spec, random.Random(42))
        two = algs.generate_keypair(spec, random.Random(42))
        other = algs.generate_keypair(spec, random.Random(43))
        assert one.public == two.public and one.private == two.private, text
        assert one.public != other.public, text


def test_deterministic_rsa_key_is_usable():
    spec = algs.parse_alg_spec("rsa:1024")
    record = algs.generate_keypair(spec, random.Random(7))
    sig = algs.sign(spec, record, b"small modulus check")
    assert algs.verify(spec, record.public, b"small modulus check", sig)
    # PKCS#1 public modulus has the requested size
    numbers = algs._decode_pkcs1_public(record.public)
    assert numbers.n.bit_length() == 1024
    assert numbers.e == 65537


# -- seeded RSA prime search ---------------------------------------------

def _reference_is_probable_prime(n: int) -> bool:
    """The test before the sieve: trial division by the twelve bases, then
    Miller-Rabin to each of them."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Carmichael numbers below 520,000, then Chernick's (6k+1)(12k+1)(18k+1)
# with three prime factors, some of them above the sieve bound
_CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
               46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401,
               172081, 188461, 252601, 278545, 294409, 314821, 334153, 340561,
               399001, 410041, 449065, 488881, 512461)
# the least strong pseudoprime to the first eleven prime bases, which
# only base 37 rejects, and the least to all twelve (both above the bound)
_PSI_11 = 3825123056546413051
_PSI_12 = 318665857834031151167461


def _chernick_carmichaels():
    for k in (1, 6, 35, 45, 51, 55, 56, 100, 2876, 2960, 3020, 3075, 3131):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        assert all(map(_reference_is_probable_prime, factors)), k
        yield math.prod(factors)


def test_prime_sieve_agrees_with_miller_rabin_alone():
    small = range(20_000)
    rng = random.Random(2024)
    seeded = [rng.getrandbits(bits) | 1 << (bits - 1) | 1
              for bits in (512, 1024) for _ in range(1000)]
    sieve_primes = [p for p in range(38, algs._SIEVE_BOUND) if _reference_is_probable_prime(p)]
    products = [rng.choice(sieve_primes) * rng.choice(sieve_primes) for _ in range(2000)]
    products += [41 * 41, 41 * sieve_primes[-1], sieve_primes[-1] ** 2]
    carmichael = [*_CARMICHAEL, *_chernick_carmichaels()]
    for n in (*small, *seeded, *products, *carmichael, _PSI_11, _PSI_12):
        assert algs._is_probable_prime(n) == _reference_is_probable_prime(n), n
    assert not any(map(algs._is_probable_prime, products + carmichael))
    assert algs._is_probable_prime(_PSI_12)       # accepted by both, as before
    assert not algs._is_probable_prime(_PSI_11)   # the twelfth round still runs


def test_sieve_product_is_built_on_first_use():
    src = pathlib.Path(algs.__file__).parents[1]
    code = ("import pqcli.cli, pqcli.algs as a; "
            "print(a._sieve_product.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "0"
    product = algs._sieve_product()
    assert product.bit_length() > 23_000
    assert all(product % p for p in algs._MR_BASES)
    assert product % 41 == 0 and product % 16_381 == 0


def test_seeded_rsa_keys_are_pinned():
    """Seeded keys are fixtures: the prime search draws the same candidates
    and keeps the same ones whatever test rejects a composite first."""
    digest = hashlib.sha256()
    for text, seeds in (("rsa:2048", (0, 1)), ("rsa:1024", range(8))):
        for seed in seeds:
            record = algs.generate_keypair(algs.parse_alg_spec(text), random.Random(seed))
            digest.update(record.private)
    assert digest.hexdigest() == (
        "4be2c4b0ec3844a8d767f0f9651c5340ea750984fe3369380af8d7b0763a2861")


def test_ml_dsa_level_sizes(ml2_key, ml3_key):
    assert len(ml2_key.public) == 1312
    assert len(ml3_key.public) == 1952


# -- SPKI round trips ---------------------------------------------------

@pytest.mark.parametrize("fixture", ["ec_key", "ml2_key", "rsa_key", "slh_key"])
def test_spki_spec_recovery(fixture, request):
    record = request.getfixturevalue(fixture)
    spki = algs.spki_for_key(record)
    back = algs.SubjectPublicKeyInfo.from_der(spki.der)
    assert back == spki
    assert algs.read_spki(back).spec == record.spec


def test_spec_from_spki_unknown_oid_is_none():
    spki = algs.SubjectPublicKeyInfo(
        algs.AlgorithmIdentifier(oids.ObjectIdentifier("1.2.3.4.5")), b"\x00")
    assert algs.read_spki(spki) is None


def test_rsa_spki_records_modulus_bits(rsa_key):
    spki = algs.spki_for_key(rsa_key)
    assert algs.read_spki(spki).spec.parameter == 2048


@pytest.mark.parametrize("fields, message", [
    ((0xC0FFEE, 65537, 1), "RSAPublicKey needs modulus and exponent"),
    ((0, 65537), "RSA modulus and exponent must be positive"),
])
def test_malformed_rsa_public_key_is_unsupported(tmp_path, capsys, fields, message):
    """The key is not recognized, so a certificate that carries it verifies
    as unsupported (exit 5) rather than failing to parse."""
    key_bits = der.encode(der.seq(*map(der.integer, fields)))
    with pytest.raises(BadValue, match=f"^{message}$"):
        algs._decode_pkcs1_public(key_bits)
    spki = algs.SubjectPublicKeyInfo(
        algs.AlgorithmIdentifier(oids.RSA_ENCRYPTION, der.null()), key_bits)
    assert algs.read_spki(spki) is None
    name = parse_name("CN=rsa")
    alg = algs.signature_algorithm_for(algs.parse_alg_spec("rsa:2048"))
    tbs = x509.build_tbs(name, name, spki, x509.default_validity(1), alg)
    path = tmp_path / "c.pem"
    pem.write_pem(path, pem.LABEL_CERTIFICATE, der.encode(der.seq(
        tbs.to_der_value(), alg.to_der_value(), der.bit_string(bytes(256)))))
    assert cli.main(["verify", str(path)]) == 5
    assert capsys.readouterr().out == "native signature: unsupported\n"


# -- private key loading ------------------------------------------------

@pytest.mark.parametrize("fixture", ["ec_key", "ml2_key", "rsa_key", "slh_key"])
def test_load_private_key_round_trip(fixture, request):
    record = request.getfixturevalue(fixture)
    loaded = algs.load_private_key(record.private)
    assert loaded.spec == record.spec
    assert loaded.public == record.public
    assert loaded.private == record.private
    # reloaded key can still sign
    sig = algs.sign(loaded.spec, loaded, b"reload")
    assert algs.verify(loaded.spec, loaded.public, b"reload", sig)


def test_load_private_key_rejects_garbage():
    with pytest.raises(KeyMismatch):
        algs.load_private_key(b"junk")
    with pytest.raises(KeyMismatch):
        algs.load_private_key(der.encode(der.seq(der.integer(0))))


def _pkcs8(key, encryption=serialization.NoEncryption()):
    return key.private_bytes(serialization.Encoding.DER,
                             serialization.PrivateFormat.PKCS8, encryption)


def _with_key_algorithm(private, *algorithm):
    """The PKCS#8 key private with a privateKeyAlgorithm made of algorithm."""
    info = der.decode(private)
    return der.encode(info._replace(
        children=(info.children[0], der.seq(*algorithm)) + info.children[2:]))


# each key, from a P-256 key, and what load_der_private_key raises (None: it loads)
_UNREADABLE_OR_UNMATCHED_KEYS = {
    "garbage": (lambda p256: b"junk", ValueError),
    "truncated": (lambda p256: _pkcs8(p256)[:-5], ValueError),
    # the last octet is the public point's: flipping its low bit leaves the curve
    "point off the curve": (lambda p256: _pkcs8(p256)[:-1] + bytes([_pkcs8(p256)[-1] ^ 1]),
                            ValueError),
    "unknown curve": (lambda p256: _with_key_algorithm(
        _pkcs8(p256), der.oid_value(oids.EC_PUBLIC_KEY), der.oid_value(oids.oid("1.3.132.0.99"))),
        UnsupportedKeyType),
    "encrypted": (lambda p256: _pkcs8(p256, serialization.BestAvailableEncryption(b"pw")),
                  TypeError),
    "key OID 1.2.3.4": (lambda p256: _with_key_algorithm(
        _pkcs8(p256), der.oid_value(oids.oid("1.2.3.4"))), UnsupportedKeyType),
    "DSA": (lambda p256: _pkcs8(dsa.generate_private_key(1024)), None),
    "brainpoolP256r1": (lambda p256: _pkcs8(ec.generate_private_key(ec.BrainpoolP256R1())), None),
    "P-192": (lambda p256: _pkcs8(ec.generate_private_key(ec.SECP192R1())), None),
}


@pytest.mark.parametrize("row", list(_UNREADABLE_OR_UNMATCHED_KEYS))
def test_unreadable_or_unmatched_key_is_a_key_mismatch(ec_key, row):
    """The loader catches only what cryptography raises for a key it cannot
    read; a key it reads that is not the spec's fails the match."""
    make, raised = _UNREADABLE_OR_UNMATCHED_KEYS[row]
    private = make(ec_key.key)
    if raised is None:
        serialization.load_der_private_key(private, password=None)
    else:
        with pytest.raises(raised):
            serialization.load_der_private_key(private, password=None)
    with pytest.raises(KeyMismatch):
        algs.keypair_from_private(ec_key.spec, private)


def test_sign_with_mismatched_key_raises(ec_key):
    for text in ("ml-dsa:2", "slh-dsa:128f"):
        spec = algs.parse_alg_spec(text)
        with pytest.raises(KeyMismatch):
            algs.sign(spec, ec_key, b"m")
        with pytest.raises(KeyMismatch):
            algs.keypair_from_private(spec, ec_key.private)


def test_explicit_spec_rejects_a_key_of_another_curve(ec_key, ec384_key):
    with pytest.raises(KeyMismatch):
        algs.keypair_from_private(ec_key.spec, ec384_key.private)


def test_explicit_spec_rejects_a_key_of_another_modulus_size(rsa_key):
    with pytest.raises(KeyMismatch):
        algs.keypair_from_private(algs.parse_alg_spec("rsa:3072"), rsa_key.private)


def test_rsa_key_without_its_modulus_is_a_key_mismatch():
    rsa_private_key = der.encode(der.seq(der.integer(0)))
    private = der.encode(der.seq(
        der.integer(0), algs.AlgorithmIdentifier(oids.RSA_ENCRYPTION, der.null()).to_der_value(),
        der.octet_string(rsa_private_key)))
    with pytest.raises(KeyMismatch, match="RSA private key is missing the modulus"):
        algs.load_private_key(private)


def test_slh_dsa_key_that_is_not_der_is_a_key_mismatch():
    with pytest.raises(KeyMismatch, match="cannot decode private key"):
        algs.keypair_from_private(algs.parse_alg_spec("slh-dsa:128f"), b"junk")


def test_keygen_of_an_unknown_family_is_unsupported():
    with pytest.raises(UnsupportedAlgorithm):
        algs.generate_keypair(algs.AlgorithmSpec("foo"))
