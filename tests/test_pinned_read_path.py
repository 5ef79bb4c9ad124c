"""The relying-party read path pinned to one digest.

Certificates of the eight benchmark issuance shapes are issued from a
seeded rng, with one tampered copy among them, and read back the way a
relying party reads them: from PEM through parse_certificate. One SHA-256
covers, for each, the re-emitted DER, render_text, and for the paired base
the reconstructed delta's DER. ECDSA and ML-DSA signatures differ from run
to run, so this test replaces signing and verifying with a deterministic
stand-in keyed by the public key; the signature bytes are opaque to every
reader pinned here. Any change to how a certificate is read, emitted,
rendered or rebuilt moves the digest."""

import dataclasses
import datetime
import hashlib
import random

from pqcli import algs, catalyst, chameleon, pem, x509
from pqcli.names import parse_name

PINNED = "87a6b54b0539c98e7ce72184d73726f68c2a8fa96236f9efb473053826683312"

UTC = datetime.timezone.utc
VALIDITY = (datetime.datetime(2025, 1, 1, tzinfo=UTC),
            datetime.datetime(2050, 1, 1, tzinfo=UTC))
SHAPES = (("single", "rsa:1024"), ("single", "ecdsa"), ("single", "ml-dsa:3"),
          ("hybrid", "rsa:1024", "ml-dsa:3"), ("hybrid", "ecdsa", "ml-dsa:3"),
          ("single", "ml-dsa:3_rsa:1024"), ("single", "ml-dsa:3_ecdsa"),
          ("paired", "ecdsa", "ml-dsa:3"))


def _stand_in_signature(spec, public: bytes, message: bytes) -> bytes:
    size = 3309 if spec.family == algs.FAMILY_ML_DSA else 72
    return hashlib.shake_256(str(spec).encode() + public + message).digest(size)


def _feed(digest, label: str, data: bytes) -> None:
    for part in (label.encode(), data):
        digest.update(len(part).to_bytes(4, "big") + part)


def _issue(kind, specs, keys, rng):
    first = keys[specs[0]]
    subject = parse_name(f"CN=device-{rng.randrange(10**6)},O=Plant {rng.randrange(99)}")
    if kind == "paired":
        base, _ = chameleon.issue_paired(
            chameleon.CertParams(subject=subject, validity=VALIDITY),
            chameleon.CertParams(serial=rng.getrandbits(120)),
            first, keys[specs[1]], rng=rng)
        return base
    tbs = x509.build_tbs(subject, subject, algs.spki_for_key(first), VALIDITY,
                         algs.signature_algorithm_for(first.spec), rng=rng)
    if kind == "hybrid":
        return catalyst.issue_catalyst(tbs, first, keys[specs[1]])
    return x509.sign_certificate(tbs, first)


def _read_path_digest() -> str:
    rng = random.Random(0x2EAD)
    keys = {}
    for _, *specs in SHAPES:
        for text in specs:
            if text not in keys:
                keys[text] = algs.generate_keypair(algs.parse_alg_spec(text), rng)
    certs = [(f"{kind} {','.join(specs)}", _issue(kind, specs, keys, rng))
             for kind, *specs in SHAPES]
    label, paired = certs[-1]
    flipped = bytearray(paired.signature)
    flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
    certs.append((f"tampered {label}", dataclasses.replace(paired, signature=bytes(flipped))))

    digest = hashlib.sha256()
    for label, cert in certs:
        read = x509.parse_certificate(pem.encode_pem(pem.LABEL_CERTIFICATE,
                                                     cert.emit()).encode("ascii"))
        _feed(digest, f"{label} emit", read.emit())
        _feed(digest, f"{label} text", x509.render_text(read).encode())
        if label.startswith(("paired", "tampered")):
            _feed(digest, f"{label} delta", x509.reconstruct_delta(read).emit())
    return digest.hexdigest()


def test_read_path_digest(monkeypatch):
    monkeypatch.setattr(algs, "sign", lambda spec, key, message: _stand_in_signature(
        spec, key.public, message))
    monkeypatch.setattr(algs, "verify", lambda spec, public, message, signature:
                        signature == _stand_in_signature(spec, public, message))
    assert _read_path_digest() == PINNED
