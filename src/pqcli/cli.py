"""pqcli command line: cert, key, csr, view, verify.

Exit codes are stable: 0 success, 2 usage, algorithm-spec or OID table
errors, 3 file IO, 4 parse failures, 5 native signature invalid, 6
alternative (Catalyst) signature invalid or unsupported (the issuer has
no alternative key), or delta signature invalid, 7 composite signature
invalid. All diagnostics go to stderr, warnings as "warning: ..." lines;
artifacts and reports go to stdout. No prompts anywhere.
Commands only print: pem.read_block, x509.read_document and x509.verify_issued
read the inputs, a certificate or a request alike, and make every decision.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys
import warnings

from . import algs, pem, x509
from .errors import (
    DerError,
    KeyMismatch,
    MalformedPem,
    MalformedSpec,
    NotACertificate,
    NotACsr,
    PqcliError,
)
from .names import parse_name

_PARSE_ERRORS = (NotACertificate, NotACsr, MalformedPem, DerError, KeyMismatch)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqcli", allow_abbrev=False,
        description="Generate, inspect, and verify classical, post-quantum, "
                    "hybrid, and composite X.509 certificates.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    cert = sub.add_parser(
        "cert", allow_abbrev=False,
        help="issue a self-signed certificate with a fresh key")
    cert.add_argument("-newkey", required=True, metavar="SPEC",
                      help="algorithm spec; NATIVE,ALT adds the alternative-"
                           "extension pair, A_B fuses a composite")
    cert.add_argument("-subj", metavar="NAME",
                      help=f'subject (default "{x509.DEFAULT_SUBJECT}")')
    cert.add_argument("-days", type=int, default=x509.DEFAULT_DAYS, metavar="N",
                      help="validity in days (default %(default)s)")
    cert.add_argument("-out", metavar="PATH", help="certificate output (default certificate.pem)")
    cert.add_argument("-keyout", metavar="PATH", help="key output (default private_key.pem)")
    cert.add_argument("--der", action="store_true", help="write DER instead of PEM")
    cert.set_defaults(func=cmd_cert)

    key = sub.add_parser("key", allow_abbrev=False, help="generate a keypair")
    key.add_argument("-t", required=True, metavar="SPEC", help="algorithm spec")
    key.add_argument("-out", metavar="PATH", help="private key output (default private_key.pem)")
    key.add_argument("--der", action="store_true", help="write DER instead of PEM")
    key.set_defaults(func=cmd_key)

    csr = sub.add_parser("csr", allow_abbrev=False,
                         help="build a certificate signing request")
    source = csr.add_mutually_exclusive_group(required=True)
    source.add_argument("-newkey", metavar="SPEC", help="generate a fresh key")
    source.add_argument("-key", metavar="PATH", help="use an existing private key")
    csr.add_argument("-subj", required=True, metavar="NAME", help="subject name")
    csr.add_argument("-out", metavar="PATH", help="request output (default csr.pem)")
    csr.add_argument("-keyout", metavar="PATH",
                     help="key output with -newkey (default private_key.pem)")
    csr.add_argument("--der", action="store_true", help="write DER instead of PEM")
    csr.set_defaults(func=cmd_csr)

    view = sub.add_parser("view", allow_abbrev=False,
                          help="print a certificate or request as text")
    view.add_argument("path", metavar="PATH")
    view.set_defaults(func=cmd_view)

    verify = sub.add_parser("verify", allow_abbrev=False,
                            help="check every signature path of a certificate or request")
    verify.add_argument("-CAfile", metavar="PATH",
                        help="issuer certificate (default: the document itself)")
    verify.add_argument("path", metavar="PATH")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return code if isinstance(code, int) else 2
    try:
        with algs.use_registry(algs.Registry.from_environment()), \
                warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _print_warning
            return args.func(args)
    except _PARSE_ERRORS as exc:
        print(f"pqcli: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"pqcli: {exc}", file=sys.stderr)
        return 3
    except PqcliError as exc:
        # spec grammar, bad parameters, name syntax, issuance conflicts
        print(f"pqcli: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run one pqcli process: ``python -m pqcli`` and the installed script.

    Everything importing built lives until the process exits, so no
    collection should walk it, the full collections at interpreter shutdown
    included: gc.freeze() moves it out of the collector's generations, and
    gc.enable() ends the gc.disable() that ``python -m pqcli`` imports under.
    Both come before the SLH-DSA workers fork, as the gc documentation
    advises. main() does neither: tests call it in-process, and the freeze
    would exempt their heap for good.
    """
    gc.freeze()
    gc.enable()
    sys.exit(main())


# -- output helpers -----------------------------------------------------

def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _encode(label: str, payload: bytes, as_der: bool) -> bytes:
    return payload if as_der else pem.encode_pem(label, payload).encode("ascii")


def _key_paths(path: pathlib.Path, count: int, as_der: bool) -> list[pathlib.Path]:
    """Files for one or two private keys: one file of PEM blocks, or for
    DER, which has no framing for two keys, the second in a .alt file."""
    if as_der and count == 2:
        return [path, path.with_name(f"{path.stem}.alt{path.suffix}")]
    return [path]


def _check_distinct(*paths: pathlib.Path) -> None:
    """Refuse, before anything is written, paths that name one file: the
    later write would destroy the earlier."""
    seen = {}
    for path in paths:
        key = path.resolve()
        if key in seen:
            raise PqcliError(f"{seen[key]} and {path} are the same file; nothing written")
        seen[key] = path


def _write_files(files) -> None:
    """Write each (path, bytes, private) in order, a private file owner-only.
    When a write fails, remove every file this call opened, so a command
    that fails leaves no output."""
    opened = []
    try:
        for path, data, private in files:
            with (pem.open_private(path) if private else open(path, "wb")) as handle:
                opened.append(path)
                handle.write(data)
    except OSError:
        for path in opened:
            path.unlink(missing_ok=True)
        raise


# -- commands -----------------------------------------------------------

def cmd_cert(args) -> int:
    subject = parse_name(args.subj if args.subj else x509.DEFAULT_SUBJECT)
    validity = x509.default_validity(args.days)
    out = pathlib.Path(args.out or "certificate.pem")
    keyout = pathlib.Path(args.keyout or "private_key.pem")

    texts = [args.newkey]
    if "," in args.newkey:
        texts = [p.strip() for p in args.newkey.split(",")]
        if len(texts) != 2 or not all(texts):
            raise MalformedSpec("hybrid -newkey takes exactly two comma-joined specs")
    specs = [algs.parse_alg_spec(text) for text in texts]
    key_paths = _key_paths(keyout, len(specs), args.der)
    _check_distinct(out, *key_paths)
    records = [algs.generate_keypair(spec) for spec in specs]
    tbs = x509.build_tbs(subject, subject, algs.spki_for_key(records[0]), validity,
                         algs.signature_algorithm_for(specs[0]))
    cert = x509.sign_certificate(tbs, *records)
    prefix = ("hybrid " if len(specs) == 2 else
              "composite " if specs[0].family == algs.FAMILY_COMPOSITE else "")
    kind = prefix + "+".join(map(str, specs))

    keys = [_encode(pem.LABEL_PRIVATE_KEY, r.private, args.der) for r in records]
    if len(key_paths) < len(keys):  # PEM: every key in one file
        keys = [b"".join(keys)]
    _write_files([(out, _encode(pem.LABEL_CERTIFICATE, cert.emit(), args.der), False),
                  *((path, key, True) for path, key in zip(key_paths, keys))])
    print(f"wrote {out} and {', '.join(str(p) for p in key_paths)} "
          f"({kind}, self-signed, {args.days} days)")
    return 0


def cmd_key(args) -> int:
    spec = algs.parse_alg_spec(args.t)
    out = pathlib.Path(args.out or "private_key.pem")
    pub = out.with_suffix(".pub")
    _check_distinct(out, pub)
    keypair = algs.generate_keypair(spec)
    public = algs.spki_for_key(keypair).der
    _write_files([(out, _encode(pem.LABEL_PRIVATE_KEY, keypair.private, args.der), True),
                  (pub, _encode(pem.LABEL_PUBLIC_KEY, public, args.der), False)])
    print(f"wrote {out} and {pub} ({spec})")
    return 0


def cmd_csr(args) -> int:
    subject = parse_name(args.subj)
    out = pathlib.Path(args.out or "csr.pem")
    # written with -newkey; with -key, read, and the request must not replace it
    key_path = pathlib.Path((args.keyout or "private_key.pem") if args.newkey else args.key)
    _check_distinct(key_path, out)
    if args.newkey:
        keypair = algs.generate_keypair(algs.parse_alg_spec(args.newkey))
        keys = [(key_path, _encode(pem.LABEL_PRIVATE_KEY, keypair.private, args.der), True)]
    else:
        _, blob = pem.read_block(key_path.read_bytes(), (pem.LABEL_PRIVATE_KEY,))
        keypair = algs.load_private_key(blob)
        keys = []
    doc = x509.build_csr(subject, keypair)
    _write_files([*keys, (out, _encode(pem.LABEL_CSR, doc.emit(), args.der), False)])
    extra = f" and {key_path}" if args.newkey else ""
    print(f"wrote {out}{extra} ({keypair.spec}, subject {subject})")
    return 0


def cmd_view(args) -> int:
    doc = x509.read_document(pathlib.Path(args.path).read_bytes())
    render = x509.render_csr_text if isinstance(doc, x509.CsrDocument) else x509.render_text
    print(render(doc), end="")
    return 0


def cmd_verify(args) -> int:
    doc = x509.read_document(pathlib.Path(args.path).read_bytes())
    ca = (x509.parse_certificate(pathlib.Path(args.CAfile).read_bytes())
          if args.CAfile else doc)
    report = x509.verify_issued(doc, ca)

    if report.composite_components is not None:
        if not report.composite_components:
            print("composite signature: invalid (structural)")
        for i, (part, verdict) in enumerate(zip(report.composite_parts,
                                                report.composite_components), 1):
            print(f"component {i} ({part.spec}): {verdict}")
    else:
        print(f"native signature: {report.native_sig}")
    if report.alt_sig is not None:
        print(f"alt signature: {report.alt_sig}")
    if report.delta_sig is not None:
        print(f"delta signature: {report.delta_sig}")
    for note in report.chain_notes:
        print(f"warning: {note}", file=sys.stderr)

    if report.native_sig != x509.VALID:
        return 7 if report.composite_components is not None else 5
    return 0 if report.all_valid else 6
