import os

import pytest

from pqcli import pem
from pqcli.errors import MalformedPem


def test_encode_decode_round_trip(rng):
    for size in (0, 1, 47, 48, 49, 1000):
        payload = rng.randbytes(size)
        text = pem.encode_pem("CERTIFICATE", payload)
        assert pem.decode_pem(text) == [("CERTIFICATE", payload)]


def test_64_column_wrapping():
    text = pem.encode_pem("CERTIFICATE", bytes(100))
    lines = text.strip().splitlines()
    assert lines[0] == "-----BEGIN CERTIFICATE-----"
    assert lines[-1] == "-----END CERTIFICATE-----"
    for line in lines[1:-2]:
        assert len(line) == 64
    assert len(lines[-2]) <= 64


def test_crlf_tolerated(rng):
    payload = rng.randbytes(120)
    text = pem.encode_pem("PRIVATE KEY", payload).replace("\n", "\r\n")
    assert pem.decode_pem(text) == [("PRIVATE KEY", payload)]


def test_multiple_blocks_ordered(rng):
    a, b, c = rng.randbytes(30), rng.randbytes(40), rng.randbytes(50)
    text = (pem.encode_pem("CERTIFICATE", a)
            + pem.encode_pem("PRIVATE KEY", b)
            + pem.encode_pem("CERTIFICATE", c))
    blocks = pem.decode_pem(text)
    assert blocks == [("CERTIFICATE", a), ("PRIVATE KEY", b), ("CERTIFICATE", c)]
    assert pem.first_block(blocks, "PRIVATE KEY") == b


def test_first_block_without_the_label():
    blocks = [("CERTIFICATE", b"\x30\x00")]
    with pytest.raises(MalformedPem, match="^no PRIVATE KEY block present$"):
        pem.first_block(blocks, "PRIVATE KEY")


def test_unknown_label_preserved(rng):
    payload = rng.randbytes(25)
    text = pem.encode_pem("X509 CRL", payload)
    assert pem.decode_pem(text) == [("X509 CRL", payload)]


def test_surrounding_junk_ignored(rng):
    payload = rng.randbytes(33)
    text = ("Subject: something informative\n\n"
            + pem.encode_pem("CERTIFICATE", payload)
            + "trailing commentary\n")
    assert pem.decode_pem(text) == [("CERTIFICATE", payload)]


def test_mismatched_end_label():
    text = "-----BEGIN CERTIFICATE-----\nAAAA\n-----END PRIVATE KEY-----\n"
    with pytest.raises(MalformedPem):
        pem.decode_pem(text)


def test_unterminated_block():
    with pytest.raises(MalformedPem):
        pem.decode_pem("-----BEGIN CERTIFICATE-----\nAAAA\n")


def test_begin_inside_an_open_block():
    """A second BEGIN before the first block's END is malformed, even when
    what follows it would close as one good block."""
    text = ("-----BEGIN CERTIFICATE-----\nAAAA\n"
            "-----BEGIN CERTIFICATE-----\nAAAA\n-----END CERTIFICATE-----\n")
    with pytest.raises(MalformedPem, match="BEGIN CERTIFICATE inside open CERTIFICATE block"):
        pem.decode_pem(text)


def test_end_without_begin():
    with pytest.raises(MalformedPem):
        pem.decode_pem("-----END CERTIFICATE-----\n")


def test_bad_base64():
    text = "-----BEGIN CERTIFICATE-----\n!!!!\n-----END CERTIFICATE-----\n"
    with pytest.raises(MalformedPem):
        pem.decode_pem(text)


def test_no_blocks():
    with pytest.raises(MalformedPem):
        pem.decode_pem("plain text only\n")


def test_file_round_trip(tmp_path, rng):
    payload = rng.randbytes(64)
    path = tmp_path / "blob.pem"
    pem.write_pem(path, "CERTIFICATE", payload)
    assert pem.read_pem(path) == [("CERTIFICATE", payload)]
    # idempotent persistence: re-writing what was read is byte-identical
    first = path.read_bytes()
    label, data = pem.read_pem(path)[0]
    pem.write_pem(path, label, data)
    assert path.read_bytes() == first


def test_private_key_permissions(tmp_path, rng):
    path = tmp_path / "key.pem"
    pem.write_private_key(path, rng.randbytes(80))
    assert os.stat(path).st_mode & 0o777 == 0o600
    # overwrite keeps the restricted mode
    pem.write_private_key(path, rng.randbytes(80))
    assert os.stat(path).st_mode & 0o777 == 0o600


def test_read_binary_file_raises(tmp_path):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00\x01")
    with pytest.raises(MalformedPem):
        pem.read_pem(path)
