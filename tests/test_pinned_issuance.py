"""Seeded issuance pinned to one digest.

Every byte that issuance derives from a seeded rng and a fixed validity is
fed, in a fixed order, into one SHA-256: the PKCS#8 keys, the TBS of every
single-key and composite shape, each Catalyst certificate's alternative
preimage and extension order, and for paired certificates the delta TBS,
the descriptor with an empty signature value and the base TBS without its
descriptor. ECDSA, hedged ML-DSA and SLH-DSA signatures differ from run to
run, so every signature is verified instead of hashed. Moving any of these
bytes, or changing how much of the rng issuance reads, error paths
included, changes the digest."""

import dataclasses
import datetime
import hashlib
import random

import pytest

from pqcli import algs, catalyst, chameleon, oids, x509
from pqcli.errors import FieldConflict
from pqcli.names import parse_name

PINNED = "033dd283badca2ddd2dd9373b524e39c50f72c2c72b07bda3c9d62995635a25a"

UTC = datetime.timezone.utc
VALIDITY = (datetime.datetime(2025, 1, 1, tzinfo=UTC),
            datetime.datetime(2026, 1, 1, tzinfo=UTC))
OTHER_VALIDITY = (datetime.datetime(2025, 6, 1, tzinfo=UTC),
                  datetime.datetime(2025, 12, 1, tzinfo=UTC))
SPECS = ("rsa:1024", "ecdsa", "ecdsa:P-384", "ml-dsa:2", "ml-dsa:3",
         "slh-dsa:128f", "ml-dsa:2_rsa:1024", "ml-dsa:2_ecdsa")
CATALYST = (("ecdsa", "ml-dsa:2"), ("rsa:1024", "ml-dsa:3"), ("ecdsa", "slh-dsa:128f"))
DESCRIPTOR = oids.EXT_DELTA_CERTIFICATE_DESCRIPTOR


def _feed(digest, label: str, data: bytes) -> None:
    for part in (label.encode(), data):
        digest.update(len(part).to_bytes(4, "big") + part)


def _tbs(key, rng):
    name = parse_name("CN=pinned")
    return x509.build_tbs(name, name, algs.spki_for_key(key), VALIDITY,
                          algs.signature_algorithm_for(key.spec), rng=rng)


def _assert_valid(cert, issuer_spki, alt_issuer_spki=None):
    report = x509.verify_certificate(cert, issuer_spki, at_time=VALIDITY[0],
                                     alt_issuer_spki=alt_issuer_spki)
    assert report.all_valid, report


def _paired_cases(keys):
    bc = x509.basic_constraints_extension()
    ski = x509.subject_key_id_extension(algs.spki_for_key(keys["ecdsa"]))
    poison = x509.ExtensionBlock(DESCRIPTOR, False, b"\x30\x00")
    params = chameleon.CertParams
    return (
        (params(validity=VALIDITY), params(), "ecdsa", "ml-dsa:2", False),
        (params(subject=parse_name("CN=base,O=Plant"), validity=VALIDITY,
                extensions=(bc,)),
         params(subject=parse_name("CN=delta"), validity=OTHER_VALIDITY,
                extensions=(bc, ski)),
         "rsa:1024", "ml-dsa:3", False),
        (params(validity=VALIDITY, serial=7, extensions=(ski,)), params(serial=8),
         "ml-dsa:2", "rsa:1024", False),
        (params(validity=VALIDITY, extensions=(bc,)), params(extensions=()),
         "ecdsa", "ml-dsa:2", True),
        (params(validity=VALIDITY), params(extensions=(poison,)),
         "ecdsa", "ml-dsa:2", True),
        (params(validity=VALIDITY, extensions=(bc,)), params(),
         "ml-dsa:2_ecdsa", "ecdsa", False),
    )


def _seeded_issuance() -> str:
    rng = random.Random(0x5EED)
    digest = hashlib.sha256()
    keys = {text: algs.generate_keypair(algs.parse_alg_spec(text), rng) for text in SPECS}
    for text, key in keys.items():
        _feed(digest, f"key {text}", key.private)

    for text, key in keys.items():
        tbs = _tbs(key, rng)
        _feed(digest, f"tbs {text}", tbs.der)
        _assert_valid(x509.sign_certificate(tbs, key), tbs.spki)

    other_subject = algs.spki_for_key(keys["ml-dsa:2"])
    for native, alt in CATALYST:
        for alt_subject in (None, other_subject):
            cert = catalyst.issue_catalyst(_tbs(keys[native], rng), keys[native],
                                           keys[alt], alt_subject_spki=alt_subject)
            _feed(digest, f"catalyst {native},{alt}", x509.alt_preimage(cert.tbs_der))
            _feed(digest, "extension order", ",".join(
                e.oid.dotted() for e in cert.tbs.extensions).encode())
            _assert_valid(cert, cert.tbs.spki, algs.spki_for_key(keys[alt]))

    for base_params, delta_params, base_key, delta_key, conflict in _paired_cases(keys):
        label = f"paired {base_key}/{delta_key}"
        if conflict:
            # both serials are drawn before the check, so the rng has moved on
            with pytest.raises(FieldConflict):
                chameleon.issue_paired(base_params, delta_params,
                                       keys[base_key], keys[delta_key], rng=rng)
            _feed(digest, f"{label} rng after the conflict", rng.randbytes(16))
            continue
        base, delta = chameleon.issue_paired(base_params, delta_params,
                                             keys[base_key], keys[delta_key], rng=rng)
        descriptor = x509.descriptor_from_certificate(base)
        _feed(digest, f"{label} delta", delta.tbs_der)
        _feed(digest, f"{label} descriptor",
                    dataclasses.replace(descriptor, signature_value=b"").der)
        _feed(digest, f"{label} base", dataclasses.replace(base.tbs, extensions=tuple(
            e for e in base.tbs.extensions if e.oid != DESCRIPTOR)).der)
        assert x509.reconstruct_delta(base).emit() == delta.emit()
        _assert_valid(base, base.tbs.spki)
        _assert_valid(delta, delta.tbs.spki)
    return digest.hexdigest()


def test_pinned_digest():
    assert _seeded_issuance() == PINNED
