"""RFC 7468 style PEM armor and file helpers.

Lines are wrapped at 64 columns. Reading tolerates CRLF endings and
surrounding junk text; block order is preserved and labels this tool does
not know are passed through untouched.
"""

from __future__ import annotations

import base64
import binascii
import os
import re

from . import der
from .errors import DerError, MalformedPem

LABEL_CERTIFICATE = "CERTIFICATE"
LABEL_PRIVATE_KEY = "PRIVATE KEY"
LABEL_PUBLIC_KEY = "PUBLIC KEY"
LABEL_CSR = "CERTIFICATE REQUEST"

_BEGIN = re.compile(r"^-----BEGIN ([^-]+)-----$")
_END = re.compile(r"^-----END ([^-]+)-----$")


def encode_pem(label: str, payload: bytes) -> str:
    body = base64.b64encode(payload).decode("ascii")
    lines = [f"-----BEGIN {label}-----"]
    lines.extend(body[i:i + 64] for i in range(0, len(body), 64))
    lines.append(f"-----END {label}-----")
    return "\n".join(lines) + "\n"


def decode_pem(text: str) -> list[tuple[str, bytes]]:
    """All (label, der) blocks in order of appearance."""
    blocks: list[tuple[str, bytes]] = []
    label: str | None = None
    body: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        armor = line.startswith("-----")  # both patterns are anchored on it
        begin = armor and _BEGIN.match(line)
        end = armor and _END.match(line)
        if begin:
            if label is not None:
                raise MalformedPem(f"BEGIN {begin.group(1)} inside open {label} block")
            label = begin.group(1)
            body = []
        elif end:
            if label is None:
                raise MalformedPem(f"END {end.group(1)} without matching BEGIN")
            if end.group(1) != label:
                raise MalformedPem(f"BEGIN {label} closed by END {end.group(1)}")
            try:
                payload = base64.b64decode("".join(body), validate=True)
            except (binascii.Error, ValueError) as exc:
                raise MalformedPem(f"bad base64 in {label} block: {exc}") from exc
            blocks.append((label, payload))
            label = None
        elif label is not None:
            if line:
                body.append(line)
    if label is not None:
        raise MalformedPem(f"unterminated {label} block")
    if not blocks:
        raise MalformedPem("no PEM blocks found")
    return blocks


def read_block(data: bytes, labels, errors: str = "strict") -> tuple[str | None, bytes]:
    """(label, DER) of the first block whose label comes earliest in labels,
    the armor decoded once; DER passes through unchanged as (None, data).
    The text is UTF-8 under errors, as for bytes.decode."""
    # DER certificates, requests and keys are one SEQUENCE, and their names
    # may hold the BEGIN text
    if b"-----BEGIN" not in data or _is_one_sequence(data):
        return None, bytes(data)
    try:
        blocks = dict(reversed(decode_pem(data.decode("utf-8", errors))))
    except UnicodeDecodeError:
        raise MalformedPem("input is neither DER nor readable PEM") from None
    for label in labels:
        if label in blocks:
            return label, blocks[label]
    raise MalformedPem(f"no {' or '.join(labels)} block in PEM input")


def _is_one_sequence(data: bytes) -> bool:
    try:
        return data.startswith(b"\x30") and der.tlv_bounds(data, 0)[1] == len(data)
    except DerError:
        return False


def write_pem(path, label: str, payload: bytes) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(encode_pem(label, payload))


def open_private(path):
    """Binary write handle whose file is owner read/write only, with the
    mode applied before any bytes land."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        os.fchmod(fd, 0o600)  # O_CREAT mode is masked by umask, fchmod is not
        return os.fdopen(fd, "wb")
    except Exception:
        os.close(fd)
        raise


def write_private_key(path, payload: bytes) -> None:
    with open_private(path) as handle:
        handle.write(encode_pem(LABEL_PRIVATE_KEY, payload).encode("ascii"))


def read_pem(path) -> list[tuple[str, bytes]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return decode_pem(handle.read())
    except UnicodeDecodeError as exc:
        raise MalformedPem(f"{path} is not text: {exc}") from exc


def first_block(blocks, label: str) -> bytes:
    for block_label, payload in blocks:
        if block_label == label:
            return payload
    raise MalformedPem(f"no {label} block present")
