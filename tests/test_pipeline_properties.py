"""Property test of the whole certificate pipeline on mutated input.

One seeded certificate of each shape is mutated by byte flips, insertions
and truncation. Every mutant goes through parse, verify, render and delta
reconstruction in-process; a smaller sample goes through the CLI. Only a
PqcliError may escape the library, verify_certificate never raises, and
the CLI exits only with a documented code. Requests, PKCS#8 key files and
certificate PEM text are mutated the same way, each through its reader;
the CLI sample draws requests too.
Composite public keys, arbitrary or one byte off a real one, go through
algs.read_spki and, as the issuer key, through verify_certificate.
"""

import contextlib
import datetime
import io
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqcli import algs, catalyst, chameleon, cli, composite, pem, x509
from pqcli.errors import PqcliError
from pqcli.names import parse_name

_VALIDITY = (datetime.datetime(2026, 1, 1, tzinfo=datetime.timezone.utc),
             datetime.datetime(2027, 1, 1, tzinfo=datetime.timezone.utc))
_CLI_EXIT_CODES = {0, 2, 3, 4, 5, 6, 7}
_SETTINGS = dict(database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _self_signed(key, rng):
    name = parse_name("CN=fuzz")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(key), _VALIDITY,
                         algs.signature_algorithm_for(key.spec), rng=rng)
    return x509.sign_certificate(tbs, key)


@pytest.fixture(scope="module")
def rsa1024_key():
    return algs.generate_keypair(algs.parse_alg_spec("rsa:1024"), random.Random(4))


@pytest.fixture(scope="module")
def composite_material(ec_key, ml2_key):
    return composite.composite_keygen((ml2_key.spec, ec_key.spec), random.Random(5))


@pytest.fixture(scope="module")
def corpus(ec_key, ml2_key, slh_key, rsa1024_key, composite_material):
    rng = random.Random(7)
    rsa_key, material = rsa1024_key, composite_material
    name = parse_name("CN=catalyst")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(ec_key), _VALIDITY,
                         algs.signature_algorithm_for(ec_key.spec), rng=rng)
    base, _ = chameleon.issue_paired(chameleon.CertParams(validity=_VALIDITY),
                                     chameleon.CertParams(), ec_key, ml2_key, rng=rng)
    certs = {
        "rsa": _self_signed(rsa_key, rng),
        "ecdsa": _self_signed(ec_key, rng),
        "ml-dsa": _self_signed(ml2_key, rng),
        "slh-dsa-128f": _self_signed(slh_key, rng),
        "catalyst": catalyst.issue_catalyst(tbs, ec_key, ml2_key),
        "composite": composite.issue_composite_certificate(
            parse_name("CN=composite"), material, validity=_VALIDITY, rng=rng),
        "paired-base": base,
    }
    return {shape: cert.emit() for shape, cert in certs.items()}


@st.composite
def mutants(draw, corpus):
    data = bytearray(corpus[draw(st.sampled_from(sorted(corpus)))])
    for _ in range(draw(st.integers(1, 3))):
        # half the edits land in the first 400 bytes: versions, serials,
        # names, validity and algorithm identifiers rather than key bytes
        limit = draw(st.sampled_from((min(len(data), 400), len(data))))
        pos = draw(st.integers(0, limit))
        kind = draw(st.sampled_from(("flip", "insert", "truncate")))
        if kind == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=4))
        elif kind == "truncate":
            del data[pos:]
        elif pos < len(data):
            data[pos] ^= draw(st.integers(1, 255))
    return bytes(data)


@settings(max_examples=2000, **_SETTINGS)
@given(data=st.data())
def test_mutated_certificates_raise_only_pqcli_errors(corpus, data):
    blob = data.draw(mutants(corpus))
    try:
        cert = x509.parse_certificate(blob)
    except PqcliError:
        return
    report = x509.verify_certificate(cert, cert.tbs.spki)  # never raises
    assert isinstance(report, x509.VerificationReport)
    with contextlib.suppress(PqcliError):
        x509.render_text(cert)
    with contextlib.suppress(PqcliError):
        chameleon.reconstruct_delta(cert)


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutant") / "cert.der"


@settings(max_examples=150, **_SETTINGS)
@given(data=st.data(), command=st.sampled_from(("verify", "view")),
       of_requests=st.booleans())
def test_cli_exits_with_documented_codes_on_mutants(corpus, requests, mutant_path, data,
                                                    command, of_requests):
    mutant_path.write_bytes(data.draw(mutants(requests if of_requests else corpus)))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, str(mutant_path)])
    assert code in _CLI_EXIT_CODES


@pytest.fixture(scope="module")
def key_files(ec_key, ml2_key, slh_key, rsa1024_key, composite_material):
    """PKCS#8 files of RSA-1024, P-256, ML-DSA-44, SLH-DSA-128f and the
    ML-DSA-44+P-256 composite."""
    return {"rsa": rsa1024_key.private, "ecdsa": ec_key.private, "ml-dsa": ml2_key.private,
            "slh-dsa-128f": slh_key.private,
            "composite": composite_material.to_record().private}


@pytest.fixture(scope="module")
def requests(key_files):
    name = parse_name("CN=fuzz,O=requests")
    return {shape: x509.build_csr(name, algs.load_private_key(private)).emit()
            for shape, private in key_files.items()}


@settings(max_examples=300, **_SETTINGS)
@given(data=st.data())
def test_mutated_requests_raise_only_pqcli_errors(requests, data):
    try:
        doc = x509.parse_csr(data.draw(mutants(requests)))
        x509.verify_csr(doc)
        x509.render_csr_text(doc)
    except PqcliError:
        pass


@settings(max_examples=300, **_SETTINGS)
@given(data=st.data())
def test_mutated_key_files_raise_only_pqcli_errors(key_files, data):
    with contextlib.suppress(PqcliError):
        algs.load_private_key(data.draw(mutants(key_files)))


@pytest.fixture(scope="module")
def pem_texts(corpus):
    return {shape: pem.encode_pem(pem.LABEL_CERTIFICATE, blob).encode()
            for shape, blob in corpus.items()}


@settings(max_examples=300, **_SETTINGS)
@given(data=st.data())
def test_mutated_pem_text_raises_only_pqcli_errors(pem_texts, data):
    with contextlib.suppress(PqcliError):
        pem.read_block(data.draw(mutants(pem_texts)), (pem.LABEL_CERTIFICATE,))


@pytest.fixture(scope="module")
def composite_cert(composite_material):
    return composite.issue_composite_certificate(parse_name("CN=issuer key"), composite_material,
                                                 validity=_VALIDITY, rng=random.Random(9))


@st.composite
def composite_key_bits(draw, real):
    """Arbitrary bytes, or the real key bits with one byte changed."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    data = bytearray(real)
    data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


@settings(max_examples=300, **_SETTINGS)
@given(data=st.data())
def test_composite_public_keys_read_or_are_unsupported(composite_cert, data):
    spki = composite_cert.tbs.spki
    spki = spki._replace(key_bits=data.draw(composite_key_bits(spki.key_bits)))
    key = algs.read_spki(spki)  # never raises
    if key is not None:
        assert isinstance(key, algs.CompositeKeyMaterial)
        assert 2 <= len(key.components) <= algs.MAX_COMPOSITE_COMPONENTS
        assert all(c.spec.family != algs.FAMILY_COMPOSITE for c in key.components)
    report = x509.verify_certificate(composite_cert, issuer_spki=spki)  # never raises
    assert (report.native_sig == x509.UNSUPPORTED) == (key is None)
