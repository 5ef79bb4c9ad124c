"""The four benchmark workloads: issue, issue_slh, verify and cli.

Every workload is a closed loop with one client: one process, one thread,
each operation waiting for the previous one, as a CA script or a relying
party does. A workload has three parts:

* ``setup(seed, workdir)`` builds every input from the seed: issuer keys
  (seeded ``random.Random``, written as PEM and loaded back through
  ``algs.load_private_key``), subjects, serials, the verify corpus and its
  tampered positions, and the files the CLI reads.
* ``plan(state, seed)`` lists the operations of one run. The multiset of
  operation kinds is fixed; only their order and the subjects come from the
  seed, so the reported percentiles sit at the same place in the mix on
  every run.
* ``run(state, op)`` is the timed operation and ``check(state, op, out)``
  the untimed proof that its output is correct.

The library is driven only through its public module functions; the CLI
only as a subprocess.
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec, padding, rsa

import pqcli
from pqcli import algs, catalyst, chameleon, composite, names, pem, x509
from pqcli.errors import PqcliError

VALIDITY = (datetime.datetime(2026, 1, 1, tzinfo=datetime.timezone.utc),
            datetime.datetime(2036, 1, 1, tzinfo=datetime.timezone.utc))
CHILD_TIMEOUT_S = 120


@dataclasses.dataclass(frozen=True)
class Shape:
    """One certificate shape: ``single`` signs with one key (composites
    included), ``hybrid`` is Catalyst native plus alternative, ``paired``
    is a chameleon base with its delta."""

    name: str
    kind: str
    specs: tuple[str, ...]


def _shape(name, kind, *specs):
    return Shape(name, kind, specs)


ISSUE_SHAPES = (
    _shape("rsa", "single", "RSA"),
    _shape("ecdsa", "single", "ECDSA"),
    _shape("mldsa3", "single", "ML-DSA:3"),
    _shape("hyb-rsa-mldsa3", "hybrid", "RSA", "ML-DSA:3"),
    _shape("hyb-ecdsa-mldsa3", "hybrid", "ECDSA", "ML-DSA:3"),
    _shape("cmp-mldsa3-rsa", "single", "ML-DSA:3_RSA"),
    _shape("cmp-mldsa3-ecdsa", "single", "ML-DSA:3_ECDSA:P-256"),
    _shape("pair-ecdsa-mldsa3", "paired", "ECDSA", "ML-DSA:3"),
)
SLH_SHAPES = (
    _shape("slh128f", "single", "SLH-DSA:128f"),
    _shape("slh192f", "single", "SLH-DSA:192f"),
    _shape("hyb-ecdsa-slh128f", "hybrid", "ECDSA", "SLH-DSA:128f"),
    _shape("slh128s", "single", "SLH-DSA:128s"),
)
ALL_SHAPES = ISSUE_SHAPES + SLH_SHAPES
SHAPES = {s.name: s for s in ALL_SHAPES}


def _canon(text: str) -> str:
    return str(algs.parse_alg_spec(text))


def uses_rsa(shape: Shape) -> bool:
    specs = [algs.parse_alg_spec(text) for text in shape.specs]
    return any(c.family == algs.FAMILY_RSA for s in specs for c in s.components or (s,))


# -- reference kernels ----------------------------------------------------
#
# On a shared host the speed of a vCPU drifts by up to 2x, changing level
# within a second and holding one for up to a minute, and code of different
# kinds slows by different amounts: scaled by OBJECTS alone, SLH-DSA signing
# and CLI calls spread 5x or more between runs than scaled by SHAKE and
# INTERPRETER, and the RSA shapes' tail 1.7x more than scaled by BIGNUM.
# Each workload therefore names, per operation, a fixed kernel of the same
# kind of code that runs no pqcli code; run.py times the kernels between
# operations and within long ones, and scales every operation's time by its
# kernel's nominal time over the kernel's local time.

class _Node:
    __slots__ = ("tag", "body", "children")

    def __init__(self, tag, body, children):
        self.tag = tag
        self.body = body
        self.children = children


@functools.cache
def _kernel_keys():
    ec_key = ec.generate_private_key(ec.SECP256R1())
    return (rsa.generate_private_key(public_exponent=65537, key_size=2048),
            ec_key.public_key(), ec_key.sign(b"kernel", ec.ECDSA(hashes.SHA256())))


def objects_kernel():
    """Small objects built from byte slices, as DER and certificate code
    does, and one ECDSA P-256 verification."""
    data = bytes(range(256)) * 4
    nodes = []
    for i in range(0, 1000, 2):
        leaf = _Node(data[i], data[i:i + 8], ())
        nodes.append(_Node(leaf.tag & 31, leaf.body[1:], (leaf,)))
    _, ec_public, ec_signature = _kernel_keys()
    ec_public.verify(ec_signature, b"kernel", ec.ECDSA(hashes.SHA256()))
    return sum(n.tag for n in nodes)


def bignum_kernel():
    """One RSA-2048 signature: OpenSSL's modular arithmetic, as in the RSA
    key checks of ``cryptography``."""
    return _kernel_keys()[0].sign(b"kernel", padding.PKCS1v15(), hashes.SHA256())


def python_bignum_kernel():
    """Modular exponentiation on 1024-bit Python integers: the seeded RSA
    prime search that dominates set-up."""
    return pow(3, (1 << 85) - 3, (1 << 1023) + 1155)


def shake_kernel():
    """Short SHAKE-256 calls, the unit of work of SLH-DSA."""
    digest = b"r" * 32
    for _ in range(1000):
        digest = hashlib.shake_256(digest).digest(16)
    return digest


def interpreter_kernel():
    """A bare interpreter start, ``python -c pass``, in the CLI's environment."""
    proc = run_child(["-c", "pass"], None, child_env())
    if proc.returncode != 0:
        raise RuntimeError(f"python -c pass failed: {proc.stderr}")


# (name, function, nominal ms). Nominal times are the kernels' medians on
# the 2-vCPU reference machine.
OBJECTS = ("objects", objects_kernel, 0.47)
BIGNUM = ("bignum", bignum_kernel, 0.39)
PYTHON_BIGNUM = ("python-bignum", python_bignum_kernel, 0.36)
SHAKE = ("shake", shake_kernel, 1.5)
INTERPRETER = ("interpreter", interpreter_kernel, 70.0)


# -- inputs -------------------------------------------------------------

_HOSTS = ("api", "mail", "vpn", "edge", "db", "auth", "cdn", "git")
_COUNTRIES = ("US", "DE", "JP", "FR", "BR", "CA")


def subject_text(rng: random.Random) -> str:
    return (f"CN={rng.choice(_HOSTS)}-{rng.randrange(10**6)}.example.net,"
            f"O=Bench Org {rng.randrange(1000)},C={rng.choice(_COUNTRIES)}")


def serial(rng: random.Random) -> int:
    return rng.getrandbits(120) | 1


def issuer_keys(shapes, rng: random.Random, workdir: pathlib.Path) -> dict:
    """Seeded issuer keys for every spec the shapes use, keyed by canonical
    spec text. Each is written as a PEM file and loaded back through
    algs.load_private_key, as a CA process would. Composite keys reuse the
    component keys, so one seeded RSA key serves every RSA shape."""
    wanted = []
    for shape in shapes:
        for text in shape.specs:
            spec = algs.parse_alg_spec(text)
            parts = spec.components or (spec,)
            wanted.extend(str(p) for p in parts if str(p) not in wanted)
            if str(spec) not in wanted:
                wanted.append(str(spec))
    fresh = {}
    for text in wanted:
        spec = algs.parse_alg_spec(text)
        if spec.family == algs.FAMILY_COMPOSITE:
            material = composite.CompositeKeyMaterial(tuple(
                composite.CompositeComponent(fresh[str(c)].spec,
                                             algs.spki_for_key(fresh[str(c)]),
                                             fresh[str(c)].private)
                for c in spec.components))
            fresh[text] = material.to_record()
        else:
            fresh[text] = algs.generate_keypair(spec, rng)
    loaded = {}
    for i, (text, record) in enumerate(fresh.items()):
        path = workdir / f"issuer-{i}.pem"
        pem.write_private_key(path, record.private)
        key = algs.load_private_key(pem.first_block(pem.read_pem(path),
                                                    pem.LABEL_PRIVATE_KEY))
        if key.public != record.public or str(key.spec) != text:
            raise RuntimeError(f"issuer key {text} did not survive a PEM round trip")
        loaded[text] = key
    return loaded


# -- issuance and its check --------------------------------------------

def issue_one(shape: Shape, keys: dict, subject: str, serial_no: int,
              delta_serial: int):
    """Issue one certificate and emit it as PEM. Returns the PEM text and,
    for a paired base, the delta certificate it must reconstruct to."""
    dn = names.parse_name(subject)
    first = keys[_canon(shape.specs[0])]
    if shape.kind == "paired":
        base, delta = chameleon.issue_paired(
            chameleon.CertParams(subject=dn, validity=VALIDITY, serial=serial_no),
            chameleon.CertParams(serial=delta_serial),
            first, keys[_canon(shape.specs[1])])
        return base.emit_pem(), delta
    tbs = x509.build_tbs(dn, dn, algs.spki_for_key(first), VALIDITY,
                         algs.signature_algorithm_for(first.spec), serial=serial_no)
    if shape.kind == "hybrid":
        cert = catalyst.issue_catalyst(tbs, first, keys[_canon(shape.specs[1])])
    else:
        cert = x509.sign_certificate(tbs, first)
    return cert.emit_pem(), None


def certificate_ok(shape: Shape, cert, delta=None) -> bool:
    """Every signature path of a self-signed certificate of this shape is
    present and valid; a paired base reconstructs its delta byte-exactly."""
    report = x509.verify_certificate(cert, cert.tbs.spki)
    is_composite = algs.parse_alg_spec(shape.specs[0]).family == algs.FAMILY_COMPOSITE
    ok = (report.all_valid
          and (report.alt_sig is not None) == (shape.kind == "hybrid")
          and (report.composite_components is not None) == is_composite)
    if shape.kind == "paired":
        rebuilt = chameleon.reconstruct_delta(cert)
        ok = (ok and (delta is None or rebuilt.emit() == delta.emit())
              and x509.verify_certificate(rebuilt, rebuilt.tbs.spki).all_valid)
    return ok


# -- workload: issue / issue_slh ------------------------------------------

@dataclasses.dataclass(frozen=True)
class IssueOp:
    shape: str
    subject: str
    serial: int
    delta_serial: int


class IssueWorkload:
    """Issue one certificate per operation with issuer keys loaded at
    set-up, rotating over a weighted mix of shapes."""

    def __init__(self, name: str, mix: dict[str, int], setup_kernel, kernels):
        self.name = name
        self.mix = mix          # shape -> operations per run
        self.setup_kernel = setup_kernel
        self.kernels = kernels  # the first scales every operation BIGNUM does not

    def setup(self, seed, workdir):
        rng = random.Random(f"{self.name}:keys:{seed}")
        return {"keys": issuer_keys([SHAPES[s] for s in self.mix], rng, workdir)}

    def plan(self, state, seed):
        rng = random.Random(f"{self.name}:ops:{seed}")
        kinds = [shape for shape, count in self.mix.items() for _ in range(count)]
        rng.shuffle(kinds)
        return [IssueOp(k, subject_text(rng), serial(rng), serial(rng)) for k in kinds]

    def run(self, state, op):
        return issue_one(SHAPES[op.shape], state["keys"], op.subject,
                         op.serial, op.delta_serial)

    def check(self, state, op, out):
        pem_text, delta = out
        cert = x509.parse_certificate(pem_text.encode("ascii"))
        return (cert.tbs.serial == op.serial
                and cert.tbs.subject == names.parse_name(op.subject)
                and certificate_ok(SHAPES[op.shape], cert, delta))

    def shape_of(self, state, op):
        return op.shape

    def kernel_of(self, op):
        """RSA shapes spend their time in OpenSSL's RSA key checks, the
        rest in Python object code and the other algorithms."""
        if BIGNUM in self.kernels and uses_rsa(SHAPES[op.shape]):
            return BIGNUM[0]
        return self.kernels[0][0]


# -- workload: verify -----------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CorpusEntry:
    shape: str
    pem: bytes
    valid: bool
    text: str           # what render_text must print
    delta_der: bytes | None


@dataclasses.dataclass(frozen=True)
class VerifyOp:
    entry: int
    mode: str           # "verify" or "view"


class VerifyWorkload:
    """Parse one PEM certificate from a seeded corpus, then either check
    every signature path (reconstructing the delta of a paired base) or
    render it as ``pqcli view`` does. A tenth of the corpus carries one
    flipped signature byte and must come back invalid."""

    name = "verify"
    setup_kernel = PYTHON_BIGNUM
    kernels = (OBJECTS,)

    def __init__(self, per_shape: int, tampered: int, cycles: int,
                 views_per_cycle: int, verifies_per_cycle: int):
        self.per_shape = per_shape
        self.tampered = tampered
        self.cycles = cycles
        self.views = views_per_cycle
        self.verifies = verifies_per_cycle

    def setup(self, seed, workdir):
        rng = random.Random(f"verify:keys:{seed}")
        keys = issuer_keys(ISSUE_SHAPES, rng, workdir)
        rng = random.Random(f"verify:corpus:{seed}")
        tampered = set(rng.sample(range(len(ISSUE_SHAPES) * self.per_shape), self.tampered))
        corpus = []
        for shape in ISSUE_SHAPES:
            for _ in range(self.per_shape):
                text, delta = issue_one(shape, keys, subject_text(rng), serial(rng), serial(rng))
                doc = x509.parse_certificate(text.encode("ascii"))
                blob = doc.emit()
                valid = len(corpus) not in tampered
                if not valid:
                    # flip one byte of the outer signature, which ends the DER
                    at = rng.randrange(len(doc.signature))
                    flipped = bytearray(doc.signature)
                    flipped[at] ^= 1 << rng.randrange(8)
                    doc = dataclasses.replace(doc, signature=bytes(flipped))
                    blob = blob[:len(blob) - len(flipped)] + bytes(flipped)
                corpus.append(CorpusEntry(
                    shape.name, pem.encode_pem(pem.LABEL_CERTIFICATE, blob).encode("ascii"),
                    valid, x509.render_text(doc), delta.emit() if delta else None))
        return {"corpus": corpus}

    def plan(self, state, seed):
        rng = random.Random(f"verify:ops:{seed}")
        ops = []
        for _ in range(self.cycles):
            cycle = [VerifyOp(i, mode) for i in range(len(state["corpus"]))
                     for mode in ["verify"] * self.verifies + ["view"] * self.views]
            rng.shuffle(cycle)
            ops.extend(cycle)
        return ops

    def run(self, state, op):
        entry = state["corpus"][op.entry]
        cert = x509.parse_certificate(entry.pem)
        if op.mode == "view":
            return x509.render_text(cert)
        valid = x509.verify_certificate(cert, cert.tbs.spki).all_valid
        delta = None
        if entry.delta_der is not None:
            try:
                delta = chameleon.reconstruct_delta(cert)
            except PqcliError:
                valid = False
        return valid, delta

    def check(self, state, op, out):
        entry = state["corpus"][op.entry]
        if op.mode == "view":
            return out == entry.text
        valid, delta = out
        return (valid == entry.valid
                and (entry.delta_der is None
                     or (delta is not None and delta.emit() == entry.delta_der)))

    def shape_of(self, state, op):
        return state["corpus"][op.entry].shape

    def kernel_of(self, op):
        return OBJECTS[0]


# -- workload: cli ----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CliOp:
    command: str        # cert, csr, verify or view
    arg: str            # algorithm spec, key file or certificate shape
    subject: str


CLI_CERT_SPECS = ("ECDSA", "ML-DSA:3", "ECDSA,ML-DSA:3", "ML-DSA:3_ECDSA", "slh-dsa:128f")
CLI_CSR_KEYS = ("RSA", "ML-DSA:3")


def child_env() -> dict:
    """The child's environment: the parent's, with the absolute directory
    that holds the imported pqcli package first on PYTHONPATH so the child
    runs the code under test from any working directory.
    PYTHONDONTWRITEBYTECODE passes through as the environment sets it."""
    env = dict(os.environ)
    src = str(pathlib.Path(pqcli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(args, cwd, env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


class CliWorkload:
    """Run ``python -m pqcli`` as a fresh subprocess per operation, one at
    a time, each in its own temporary directory."""

    name = "cli"
    setup_kernel = PYTHON_BIGNUM
    kernels = (INTERPRETER,)

    def __init__(self, cycles: int):
        self.cycles = cycles

    def setup(self, seed, workdir):
        env = child_env()
        probe = run_child(["-c", "import pqcli; print(pqcli.__file__)"], workdir, env)
        if (probe.returncode != 0 or pathlib.Path(probe.stdout.strip()).resolve()
                != pathlib.Path(pqcli.__file__).resolve()):
            raise RuntimeError(f"CLI child imports another pqcli: {probe.stdout}{probe.stderr}")
        rng = random.Random(f"cli:keys:{seed}")
        keys = issuer_keys(ISSUE_SHAPES, rng, workdir)
        key_files = {}
        for text in CLI_CSR_KEYS:
            key_files[text] = workdir / f"csr-{_canon(text).replace(':', '-')}.pem"
            pem.write_private_key(key_files[text], keys[_canon(text)].private)
        rng = random.Random(f"cli:certs:{seed}")
        certs = {}
        for shape in ISSUE_SHAPES:
            text, _ = issue_one(shape, keys, subject_text(rng), serial(rng), serial(rng))
            path = workdir / f"cert-{shape.name}.pem"
            path.write_text(text, encoding="ascii")
            certs[shape.name] = (path, x509.render_text(x509.parse_certificate(path.read_bytes())))
        return {"env": env, "workdir": workdir, "key_files": key_files,
                "certs": certs, "calls": 0}

    def plan(self, state, seed):
        rng = random.Random(f"cli:ops:{seed}")
        ops = []
        for _ in range(self.cycles):
            cycle = ([CliOp("cert", s, "") for s in CLI_CERT_SPECS]
                     + [CliOp("csr", k, "") for k in CLI_CSR_KEYS]
                     + [CliOp(c, s.name, "") for c in ("verify", "view") for s in ISSUE_SHAPES])
            rng.shuffle(cycle)
            ops.extend(dataclasses.replace(op, subject=subject_text(rng)) for op in cycle)
        return ops

    def run(self, state, op):
        state["calls"] += 1
        cwd = state["workdir"] / f"call-{state['calls']}"
        cwd.mkdir()
        if op.command == "cert":
            args = ["cert", "-newkey", op.arg, "-subj", op.subject,
                    "-out", "cert.pem", "-keyout", "key.pem"]
        elif op.command == "csr":
            args = ["csr", "-key", str(state["key_files"][op.arg]), "-subj", op.subject,
                    "-out", "req.pem"]
        else:
            args = [op.command, str(state["certs"][op.arg][0])]
        return cwd, run_child(["-m", "pqcli", *args], cwd, state["env"])

    def check(self, state, op, out):
        cwd, proc = out
        if proc.returncode != 0:
            return False
        if op.command == "view":
            return proc.stdout == state["certs"][op.arg][1]
        if op.command == "verify":
            lines = proc.stdout.splitlines()
            return bool(lines) and all(line.endswith(": valid") for line in lines)
        subject = names.parse_name(op.subject)
        if op.command == "csr":
            doc = x509.parse_csr((cwd / "req.pem").read_bytes())
            return doc.subject == subject and x509.verify_csr(doc)
        cert = x509.parse_certificate((cwd / "cert.pem").read_bytes())
        blocks = [b for label, b in pem.read_pem(cwd / "key.pem")
                  if label == pem.LABEL_PRIVATE_KEY]
        publics = [cert.tbs.spki.key_bits]
        if "," in op.arg:
            shape = Shape("cli", "hybrid", tuple(op.arg.split(",")))
            publics.append(catalyst.CatalystExtensionTriple.from_certificate(cert)
                           .alt_spki.key_bits)
        else:
            shape = Shape("cli", "single", (op.arg,))
        return (cert.tbs.subject == subject and certificate_ok(shape, cert)
                and [algs.load_private_key(b).public for b in blocks] == publics)

    def shape_of(self, state, op):
        return None

    def kernel_of(self, op):
        return INTERPRETER[0]


# -- percentiles ---------------------------------------------------------------

def tail_percentile(n: int) -> int:
    """Highest whole percentile up to p95 with at least ten samples beyond
    it (nearest-rank), never below the median. Beyond p95, a run of
    thousands of one-millisecond operations measures host stalls rather
    than the slowest kind of operation."""
    for p in range(95, 50, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def percentile(samples, p: int) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]
