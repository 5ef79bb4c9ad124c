import errno
import os
import random

import cryptography.x509
import pytest
from cryptography.hazmat.primitives.serialization import Encoding
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqcli import algs, cli, pem, x509
from pqcli.errors import MalformedPem
from pqcli.names import parse_name


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
    for end in ("\r\n", "\r"):  # RFC 7468's line ends, a lone CR included
        text = pem.encode_pem("PRIVATE KEY", payload).replace("\n", end)
        assert pem.decode_pem(text) == [("PRIVATE KEY", payload)]


# the line breaks of str.splitlines other than CR and LF
@pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                  "\u2029"], ids=lambda char: f"U+{ord(char):04X}")
def test_a_line_break_rfc_7468_does_not_know_is_bad_base64(char, tmp_path, capsys):
    text = f"-----BEGIN CERTIFICATE-----\nMII{char}A\n-----END CERTIFICATE-----\n"
    with pytest.raises(MalformedPem, match="^bad base64 in CERTIFICATE block"):
        pem.decode_pem(text)
    (tmp_path / "c.pem").write_bytes(text.encode())
    assert cli.main(["view", str(tmp_path / "c.pem")]) == 4
    assert capsys.readouterr().err.startswith("pqcli: bad base64 in CERTIFICATE block")


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


def test_open_private_closes_its_descriptor_when_fchmod_fails(tmp_path, monkeypatch):
    given = []

    def refuse(fd, mode):
        given.append(fd)
        raise PermissionError("fchmod refused")

    monkeypatch.setattr(os, "fchmod", refuse)
    with pytest.raises(PermissionError, match="fchmod refused"):
        pem.open_private(tmp_path / "key.pem")
    with pytest.raises(OSError) as closed:
        os.fstat(given[0])
    assert closed.value.errno == errno.EBADF


def test_read_binary_file_raises(tmp_path):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00\x01")
    with pytest.raises(MalformedPem):
        pem.read_pem(path)


# -- one rule for every PEM input ---------------------------------------

_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("before, after", [
    (b"", b""),
    (_BOM, b""),
    (b"caf\xe9 \xff\n", b"\xe9t\xe9\n"),
    (_BOM + b"\xe9\r\n", b"\r\nn\xe4chste"),
], ids=["plain", "byte-order-mark", "latin-1-lines", "both"])
def test_read_pem_and_read_block_read_the_same_bytes_alike(before, after, rng, tmp_path):
    cert, key = rng.randbytes(70), rng.randbytes(50)
    text = pem.encode_pem("CERTIFICATE", cert) + "junk\n" + pem.encode_pem("PRIVATE KEY", key)
    data = before + text.encode() + after
    (tmp_path / "in.pem").write_bytes(data)
    blocks = pem.read_pem(tmp_path / "in.pem")
    assert blocks == [("CERTIFICATE", cert), ("PRIVATE KEY", key)]
    for label, payload in blocks:
        assert pem.read_block(data, (label,)) == (label, payload)


@pytest.mark.parametrize("line", [0, 1, -1], ids=["begin", "body", "end"])
def test_a_byte_that_is_not_utf8_on_an_armor_or_body_line_is_refused(line, rng, tmp_path):
    lines = pem.encode_pem("CERTIFICATE", rng.randbytes(70)).encode().split(b"\n")[:-1]
    lines[line] += b"\xe9"
    data = b"\n".join(lines) + b"\n"
    (tmp_path / "in.pem").write_bytes(data)
    with pytest.raises(MalformedPem) as from_file:
        pem.read_pem(tmp_path / "in.pem")
    with pytest.raises(MalformedPem) as from_bytes:
        pem.read_block(data, ("CERTIFICATE",))
    assert str(from_file.value) == str(from_bytes.value)


@pytest.fixture(scope="module")
def ec_certificate(ec_key):
    name = parse_name("CN=spaces")
    tbs = x509.build_tbs(name, name, algs.spki_for_key(ec_key), x509.default_validity(),
                         algs.signature_algorithm_for(ec_key.spec), rng=random.Random(1))
    return x509.sign_certificate(tbs, ec_key).emit()


# RFC 7468 section 3 lets a parser ignore them; OpenSSL reads them at a line's
# end and refuses them inside a line, as pqcli does, while cryptography reads both
@pytest.mark.parametrize("where", ["end", "inside"])
@pytest.mark.parametrize("char", ["\xa0", "\x85", "\v", "\f", "\u2028"],
                         ids=lambda char: f"U+{ord(char):04X}")
def test_unicode_whitespace_is_read_at_a_line_end_and_refused_inside(
        char, where, ec_certificate, tmp_path, capsys):
    lines = pem.encode_pem(pem.LABEL_CERTIFICATE, ec_certificate).split("\n")
    lines[1] = lines[1] + char if where == "end" else lines[1][:10] + char + lines[1][10:]
    data = "\n".join(lines).encode()
    (tmp_path / "c.pem").write_bytes(data)
    oracle = cryptography.x509.load_pem_x509_certificate(data).public_bytes(Encoding.DER)
    assert oracle == ec_certificate
    if where == "end":
        assert pem.read_block(data, (pem.LABEL_CERTIFICATE,))[1] == oracle
        assert cli.main(["view", str(tmp_path / "c.pem")]) == 0
    else:
        assert cli.main(["view", str(tmp_path / "c.pem")]) == 4
        assert capsys.readouterr().err.startswith("pqcli: bad base64 in CERTIFICATE block")


# -- the one-call path against the line loop ----------------------------

def _outcome(decoder, text):
    """The blocks, or the message of the MalformedPem raised."""
    try:
        return decoder(text)
    except MalformedPem as exc:
        return str(exc)


def test_encode_pem_output_takes_the_one_call_path(rng):
    for label in ("CERTIFICATE", "CERTIFICATE REQUEST", "PRIVATE KEY", "X"):
        for size in (0, 1, 2, 3, 47, 48, 49, 5462):
            payload = rng.randbytes(size)
            text = pem.encode_pem(label, payload)
            assert pem._decode_canonical(text) == [(label, payload)]
            assert pem._decode_lines(text) == [(label, payload)]


def test_a_crlf_copy_takes_the_line_loop_with_the_same_payload(rng):
    payload = rng.randbytes(500)
    text = pem.encode_pem("CERTIFICATE", payload).replace("\n", "\r\n")
    assert pem._decode_canonical(text) is None
    assert pem.decode_pem(text) == [("CERTIFICATE", payload)]


@pytest.mark.parametrize("text", [
    "-----BEGIN A-----\n",                            # the END would overlap the BEGIN
    "-----BEGIN A-----\n-----END A-----",             # no final LF
    "-----BEGIN A-----\nAAAA-----END A-----\n",       # END inside the last body line
    "-----BEGIN A-----\nAA==\nAA==\n-----END A-----\n",  # padding mid-body
    "-----BEGIN A-----\nAAAA\n-----END B-----\n",
    "-----BEGIN A-----\nAA AA\n-----END A-----\n",
    "-----BEGIN A-----\nAAAA\n-----END A-----\n-----BEGIN A-----\nAAAA\n-----END A-----\n",
    "-----BEGIN x509 CRL-----\nAAAA\n-----END x509 CRL-----\n",
    "-----BEGIN A-----\nAA\u2028AA\n-----END A-----\n",
])
def test_texts_the_one_call_path_leaves_to_the_loop(text):
    assert pem._decode_canonical(text) is None
    assert _outcome(pem.decode_pem, text) == _outcome(pem._decode_lines, text)


_LABELS = st.lists(st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=6),
                   min_size=1, max_size=3).map(" ".join)
# Line breaks and blanks that str.splitlines or str.strip see and LF-only
# parsing does not, a non-ASCII letter, and the padding character
_INSERTS = ("\r", "\t", " ", "\v", "\f", "\x1c", "\x85", "\u2028", "\u00c9", "=", "\n")


@st.composite
def _pem_texts(draw):
    label = draw(_LABELS)
    payload = draw(st.one_of(st.just(b""), st.binary(max_size=200)))
    text = pem.encode_pem(label, payload)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("insert", "relabel", "before", "after", "second",
                                     "cut", "delete")))
        pos = draw(st.integers(0, len(text)))
        if kind == "insert":
            text = text[:pos] + draw(st.sampled_from(_INSERTS)) + text[pos:]
        elif kind == "relabel":
            other = draw(st.sampled_from((label.lower(), label + "2", "X509 CRL", label + " ")))
            text = text.replace(label, other, draw(st.integers(1, 2)))
        elif kind == "before":
            text = draw(st.sampled_from(("junk\n", "\n", " "))) + text
        elif kind == "after":
            text += draw(st.sampled_from(("junk\n", "\n", "junk", " ")))
        elif kind == "second":
            text += pem.encode_pem(draw(_LABELS), draw(st.binary(max_size=20)))
        elif kind == "cut":
            text = text[:-1] if draw(st.booleans()) else text[:pos]
        else:
            text = text[:pos] + text[pos + 1:]
    return text


@settings(max_examples=400, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_pem_texts())
def test_decode_pem_agrees_with_the_line_loop(text):
    assert _outcome(pem.decode_pem, text) == _outcome(pem._decode_lines, text)
    fast = pem._decode_canonical(text)
    assert fast is None or fast == pem._decode_lines(text)
