"""pqcli benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload issue --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # the four in turn

Workloads (see bench_workloads.py):

  issue      issue one certificate per operation over eight shapes with
             seeded issuer keys loaded through algs.load_private_key; the
             RSA key re-check sets the tail, the fast shapes the median
  issue_slh  SLH-DSA-SHAKE issuance (128f, 192f, ECDSA+128f, one 128s),
             where slhdsa.sign does nearly all the work
  verify     parse a seeded PEM corpus and check every signature path or
             render it; about one certificate in ten is tampered
  cli        ``python -m pqcli`` as a fresh subprocess per operation

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json, untraced. With ``--trace 1`` it runs the same operations
once untraced and once with every listed library function wrapped in a
span (bench_trace.py), and reports the per-layer split. Every output is
checked; a wrong one counts in ``failed``. The last line of standard
output is the JSON result; the lines before it list each metric by name
and unit, the raw wall-clock figures, the error ratio and the environment.

Times at nominal speed. On a shared host the speed of a vCPU drifts by up
to 2x, changing level within a second and holding one for up to a minute,
so raw wall-clock figures of two runs differ by more than any useful
bound. Each workload therefore times reference kernels (bench_workloads.py;
they run no pqcli code) between operations at least every
REFERENCE_EVERY_S, and within any operation or set-up that runs longer
than LONG_OP_S. Every operation's wall time, less the kernels run within
it, is multiplied by the nominal time of the kernel of its kind of code
over the median of that kernel's samples taken within it or within
REFERENCE_WINDOW_S of it. The end-to-end times,
``setup_s`` included, are these scaled times: what the run would have
taken with the kernels at their nominal speed. A program change moves
them as it moves wall time; a host that is slower for a while does not.

Each run does a fixed number of operations, sized so that a run takes
about RUN_SECONDS on a 2-vCPU machine, so the reported tail percentile is
the same on every run; ``--seconds`` accepts only that length.
``setup_s`` is the import time plus the median of SETUP_REPEATS set-ups
from fixed seeds; the run then sets up once more from ``--seed`` for its
own inputs. Fixed seeds, because the seeded RSA prime search alone makes
one set-up vary from 0.3 to 2.6 s with the seed.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import hashlib
import importlib.util
import json
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_SECONDS = 15        # the operation counts below take about this long
SETUP_REPEATS = 5
PROBE_REPEATS = 5       # interpreter-floor and import probes of the cli layer
REFERENCE_EVERY_S = 0.025
REFERENCE_WINDOW_S = 0.1
LONG_OP_S = 1.0         # from this long into an operation or set-up, the
IN_OP_EVERY_S = 0.1     # kernels are also sampled within it, this often
SETUP_SAMPLING_S = 0.1      # kernel sampling before and after each set-up
# Per-layer times come from the spans of the timed operations, except for
# functions the workloads call only while setting up or checking outputs.
SETUP_SPANS = ("algs.generate_keypair", "algs.load_private_key", "slhdsa.keygen")
CHECK_SPANS = ("slhdsa.verify",)

WORKLOADS = ("issue", "issue_slh", "verify", "cli")
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _workloads(bw):
    return {
        # 558 operations: the doubled ECDSA+ML-DSA hybrid puts the median in
        # the middle of the paired-issuance block, not on a shape boundary;
        # the tail (p95) falls inside the ML-DSA:3_RSA composite block.
        "issue": bw.IssueWorkload(
            "issue", {s.name: 124 if s.name == "hyb-ecdsa-mldsa3" else 62
                      for s in bw.ISSUE_SHAPES},
            bw.PYTHON_BIGNUM, (bw.OBJECTS, bw.BIGNUM)),
        # 31 operations: the median and the tail (p67) both fall inside the
        # 128f/hybrid block, clear of the jumps to 192f and to the one 128s.
        "issue_slh": bw.IssueWorkload(
            "issue_slh",
            {"slh128f": 21, "hyb-ecdsa-slh128f": 4, "slh192f": 5, "slh128s": 1},
            bw.SHAKE, (bw.SHAKE,)),
        "verify": bw.VerifyWorkload(per_shape=4, tampered=3, cycles=80,
                                    views_per_cycle=1, verifies_per_cycle=3),
        "cli": bw.CliWorkload(cycles=2),
    }


def per_layer_names(bw) -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []

    def add(names, unit="ms", better="lower"):
        out.extend((n, unit, better) for n in names)

    add(f"algs.sign.{f}.ms" for f in ("rsa", "ecdsa", "ml-dsa", "slh-dsa"))
    add(["algs.sign.composite.self_ms"])
    add(f"algs.verify.{f}.ms" for f in ("rsa", "ecdsa", "ml-dsa"))
    add(["algs.verify.composite.self_ms", "algs.load_private_key.ms"])
    add(f"algs.generate_keypair.{f}.ms" for f in ("ecdsa", "ml-dsa", "slh-dsa"))
    add(["algs.key_loads_per_op"], "count")
    add((f"algs.key_loads_per_op.{s.name}" for s in bw.ALL_SHAPES), "count")
    add(f"slhdsa.sign.{p}.ms" for p in ("128f", "192f", "128s"))
    add(["slhdsa.verify.128f.ms", "slhdsa.keygen.128s.ms"])
    add(["der.decode.self_ms_per_op", "der.encode.self_ms_per_op"])
    add(["der.decode.calls_per_op", "der.encode.calls_per_op"], "count")
    add(["pem.decode_pem.ms", "pem.encode_pem.ms", "names.parse_name.ms"])
    add(f"x509.{f}.self_ms" for f in ("parse_certificate", "build_tbs",
                                      "sign_certificate", "verify_certificate"))
    add(["x509.render_text.ms"])
    add(f"catalyst.{f}.self_ms" for f in ("issue_catalyst", "alt_verdict", "alt_preimage"))
    add(["composite.material_from_private.ms", "composite.composite_sign.self_ms",
         "composite.verify_certificate_signature.self_ms"])
    add(["chameleon.issue_paired.self_ms", "chameleon.reconstruct_delta.self_ms"])
    add(["cli.interpreter_floor_ms", "cli.import_ms"])
    add(f"cli.{c}.ms" for c in ("cert", "csr", "verify", "view"))
    add(["cli.bytecode_cached"], "flag", "higher")
    add(["run.cpu_s_per_op"], "s")
    add(["trace.overhead_ratio"], "ratio")
    return out


# -- measuring -----------------------------------------------------------

class Reference:
    """Samples of a workload's reference kernels, and the factor that scales
    a measured interval to a kernel's nominal speed."""

    def __init__(self, kernels):
        self._kernels = kernels     # (name, function, nominal ms)
        for _, kernel, _ in kernels:
            kernel()                # create its keys before any timing
        self._mid: list[float] = []
        self.seconds = {name: [] for name, _, _ in kernels}
        self._last = -REFERENCE_EVERY_S

    def sample(self):
        t0 = time.perf_counter()
        for name, kernel, _ in self._kernels:
            k0 = time.perf_counter()
            kernel()
            self.seconds[name].append(time.perf_counter() - k0)
        t1 = time.perf_counter()
        self._mid.append((t0 + t1) / 2)
        self._last = t1

    def sample_for(self, seconds: float):
        """Sample at least once, and until ``seconds`` have passed."""
        end = time.perf_counter() + seconds
        self.sample()
        while time.perf_counter() < end:
            self.sample()

    def sample_if_due(self):
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample()

    def timed(self, fn):
        """Run ``fn()``; return its result, its start and end, and its
        seconds without the kernel samples taken within it. From LONG_OP_S
        on, a SIGALRM handler samples the kernels every IN_OP_EVERY_S, so
        that a long operation, during which the host's speed may change, is
        scaled by samples of its own."""
        in_kernels = 0.0

        def sample_within(signum, frame):
            nonlocal in_kernels
            k0 = time.perf_counter()
            self.sample()
            in_kernels += time.perf_counter() - k0

        previous = signal.signal(signal.SIGALRM, sample_within)
        signal.setitimer(signal.ITIMER_REAL, LONG_OP_S, IN_OP_EVERY_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return out, t0, t1, t1 - t0 - in_kernels

    def scale(self, start: float, end: float, name: str) -> float:
        lo = bisect.bisect_left(self._mid, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(self._mid, end + REFERENCE_WINDOW_S)
        if hi - lo < 2:   # no kernel ran close by: take the nearest on each side
            lo = max(0, min(lo, bisect.bisect_left(self._mid, start) - 1))
            hi = min(len(self._mid), max(hi, bisect.bisect_right(self._mid, end) + 1))
        nominal_ms = next(ms for n, _, ms in self._kernels if n == name)
        return nominal_ms / 1000 / statistics.median(self.seconds[name][lo:hi])

    def summary(self) -> str:
        return ", ".join(f"{name} median {1000 * statistics.median(self.seconds[name]):.4f} ms "
                         f"(nominal {ms} ms)" for name, _, ms in self._kernels)


class Loop:
    """One timed pass over the planned operations, then the untimed checks."""

    def __init__(self, workload, state, ops, reference, tracer=None):
        self.ops = ops
        self.samples = []       # raw wall seconds per operation
        self.cpu_s = 0.0        # user + system, children included, of the operations
        outputs = []
        spans = []
        live = live_descendants()
        reference.sample()
        for i, op in enumerate(ops):
            reference.sample_if_due()
            if tracer is not None:
                tracer.op = i
            cpu0 = os.times()
            out, t0, t1, seconds = reference.timed(lambda: _attempt(workload, state, op))
            cpu1 = os.times()
            self.cpu_s += sum(b - a for a, b in zip(cpu0[:4], cpu1[:4])) - (t1 - t0 - seconds)
            self.samples.append(seconds)
            spans.append((t0, t1))
            outputs.append(out)
        reference.sample()
        # children still running, such as a process pool's workers, are not
        # in os.times() or getrusage() until they are reaped
        still_live = live_descendants()
        self.cpu_s += sum(cpu - live.get(pid, (0.0, 0.0))[0]
                          for pid, (cpu, _) in still_live.items())
        self.live_rss_mb = sum(rss for _, rss in still_live.values())
        self.scaled = [s * reference.scale(*span, workload.kernel_of(op))
                       for s, span, op in zip(self.samples, spans, ops)]
        if tracer is not None:
            tracer.op = tracer.CHECK
        self.failed = 0
        for op, out in zip(ops, outputs):
            if not isinstance(out, _Failure):
                try:
                    if workload.check(state, op, out):
                        continue
                    out = _Failure(f"wrong output for {op}")
                except Exception:
                    out = _Failure(traceback.format_exc())
            if not self.failed:
                print(f"perfbench: first failure: {out.text}", file=sys.stderr)
            self.failed += 1

    @property
    def throughput(self) -> float:
        """Operations per second at nominal speed (closed loop, one client)."""
        return len(self.ops) / sum(self.scaled)


class _Failure:
    def __init__(self, text):
        self.text = text


def _attempt(workload, state, op):
    try:
        return workload.run(state, op)
    except Exception:  # a failed operation is counted, not fatal
        return _Failure(traceback.format_exc())


def _child_probe_ms(bw, code: str, cwd) -> float:
    samples = []
    env = bw.child_env()
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        proc = bw.run_child(["-c", code], cwd, env)
        samples.append((time.perf_counter() - t0) * 1000)
        if proc.returncode != 0:
            raise RuntimeError(f"probe {code!r} failed: {proc.stderr}")
    return statistics.median(samples)


def _bytecode_cached() -> bool:
    """Whether the CLI children find compiled bytecode for pqcli.cli."""
    return os.path.exists(importlib.util.cache_from_source(str(SRC / "pqcli" / "cli.py")))


def live_descendants() -> dict[int, tuple[float, float]]:
    """CPU seconds (user + system) and peak RSS in MB of every live
    descendant of this process, from /proc; empty where there is no /proc."""
    children = collections.defaultdict(list)
    cpu = {}
    for entry in os.scandir("/proc") if os.path.isdir("/proc") else ():
        try:
            with open(f"/proc/{int(entry.name)}/stat") as f:
                fields = f.read().rpartition(")")[2].split()
        except (ValueError, OSError):    # not a process, or it has ended
            continue
        children[int(fields[1])].append(int(entry.name))
        cpu[int(entry.name)] = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    found, todo = {}, [os.getpid()]
    while todo:
        for pid in children[todo.pop()]:
            try:
                with open(f"/proc/{pid}/status") as f:
                    hwm_kb = next((int(line.split()[1]) for line in f
                                   if line.startswith("VmHWM:")), 0)
            except OSError:
                continue
            found[pid] = (cpu[pid], hwm_kb / 1024)
            todo.append(pid)
    return found


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def _setup(workload, seed, workdir):
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    state = workload.setup(seed, workdir)
    return state, workload.plan(state, seed)


def run_untraced(bw, workload, args, import_span, workdir, setup_repeats=SETUP_REPEATS):
    setup_reference = Reference((workload.setup_kernel,))
    setup_kernel = workload.setup_kernel[0]
    setup_s = []
    for rep in range(1, setup_repeats + 1):
        setup_reference.sample_for(SETUP_SAMPLING_S)
        _, t0, t1, seconds = setup_reference.timed(
            lambda: _setup(workload, f"setup-{rep}", workdir / f"setup-{rep}"))
        setup_reference.sample_for(SETUP_SAMPLING_S)
        setup_s.append(seconds * setup_reference.scale(t0, t1, setup_kernel))
        shutil.rmtree(workdir / f"setup-{rep}")
    state, ops = _setup(workload, args.seed, workdir / "run")
    import_s = ((import_span[1] - import_span[0])
                * setup_reference.scale(*import_span, setup_kernel))
    reference = Reference(workload.kernels)
    loop = Loop(workload, state, ops, reference)
    n = len(ops)
    p = bw.tail_percentile(n)
    lat_ms = [s * 1000 for s in loop.scaled]
    raw_ms = [s * 1000 for s in loop.samples]
    metrics = {
        "setup_s": import_s + statistics.median(setup_s),
        "throughput_ops_s": loop.throughput,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": bw.percentile(lat_ms, p),
        # a process pool's live workers add their peaks to the process's
        "peak_rss_mb": _peak_rss_mb(children=workload.name == "cli") + loop.live_rss_mb,
    }
    notes = [f"latency_tail_ms is p{p} over {n} operations",
             f"error_ratio {loop.failed}/{n} = {loop.failed / n}",
             f"setup_s = import {import_s:.4f} s + median of {setup_repeats} set-ups "
             f"{[round(s, 4) for s in setup_s]}",
             f"reference kernels: {setup_reference.summary()}, {reference.summary()}",
             f"raw wall clock: throughput {n / sum(loop.samples):.4f} 1/s, "
             f"p50 {statistics.median(raw_ms):.4f} ms, p{p} {bw.percentile(raw_ms, p):.4f} ms"]
    units = dict(END_TO_END)
    return {k: (v, units[k]) for k, v in metrics.items()}, n, loop.failed, notes


def run_traced(bw, trace, workload, args, workdir):
    reference = Reference(workload.kernels)
    state, ops = _setup(workload, args.seed, workdir / "untraced")
    plain = Loop(workload, state, ops, reference)
    with trace.Tracer() as tracer:
        state, ops = _setup(workload, args.seed, workdir / "traced")
        traced = Loop(workload, state, ops, reference, tracer)
    n = len(ops)
    self_ms = {phase: tracer.median_self_ms(phase)
               for phase in (trace.OPS, trace.SETUP, trace.CHECK)}
    shapes = [workload.shape_of(state, op) for op in ops]
    loads = tracer.key_loads_by_op(n)
    values = {}
    for name, _, _ in per_layer_names(bw):
        if name == "algs.key_loads_per_op":
            values[name] = sum(loads) / n
        elif name.startswith("algs.key_loads_per_op."):
            shape = name.rpartition(".")[2]
            mine = [c for c, s in zip(loads, shapes) if s == shape]
            values[name] = sum(mine) / len(mine) if mine else 0.0
        elif name.startswith("der."):
            func, _, kind = name[len("der."):].partition(".")
            calls, ms = tracer.per_op(f"der.{func}", n)
            values[name] = calls if kind == "calls_per_op" else ms
        elif not name.startswith(("cli.", "run.", "trace.")):
            span = name.rsplit(".", 1)[0]
            phase = (trace.SETUP if span.startswith(SETUP_SPANS) else
                     trace.CHECK if span.startswith(CHECK_SPANS) else trace.OPS)
            values[name] = self_ms[phase].get(span, 0.0)
    values.update({f"cli.{c}.ms": 0.0 for c in ("cert", "csr", "verify", "view")})
    values["cli.interpreter_floor_ms"] = values["cli.import_ms"] = 0.0
    if workload.name == "cli":
        for command in ("cert", "csr", "verify", "view"):
            values[f"cli.{command}.ms"] = 1000 * statistics.median(
                s for s, op in zip(traced.samples, ops) if op.command == command)
        floor = _child_probe_ms(bw, "pass", workdir)
        values["cli.interpreter_floor_ms"] = floor
        values["cli.import_ms"] = _child_probe_ms(bw, "import pqcli.cli", workdir) - floor
    values["cli.bytecode_cached"] = float(_bytecode_cached())
    values["run.cpu_s_per_op"] = plain.cpu_s / n
    values["trace.overhead_ratio"] = plain.throughput / traced.throughput
    units = {name: unit for name, unit, _ in per_layer_names(bw)}
    metrics = {k: (values[k], units[k]) for k in units}
    notes = [f"traced and untraced pass of {n} operations each; per-layer times "
             "are raw wall clock",
             f"error_ratio {plain.failed + traced.failed}/{2 * n}"]
    return metrics, 2 * n, plain.failed + traced.failed, notes


# -- environment -----------------------------------------------------------

def _command_output(argv, cwd=None):
    try:
        proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, pqcli_file):
    import cryptography
    digest = hashlib.sha256()
    for path in sorted(pathlib.Path(pqcli_file).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "openssl": _command_output(["openssl", "version"]),
        "nproc": os.cpu_count(),
        "git_commit": (_command_output(["git", "rev-parse", "HEAD"], cwd=ROOT)
                       if (ROOT / ".git").exists() else None),
        "source_sha256": digest.hexdigest(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "bytecode_cached": _bytecode_cached(),
    }


# -- entry point -------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, choices=(RUN_SECONDS,), default=RUN_SECONDS,
                        help="run length; fixed by the operation counts of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import pqcli from this checkout's src/ and nowhere else. Returns the
    module and the (start, end) of the import on the perf_counter clock."""
    if not (SRC / "pqcli" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pqcli source under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import pqcli
    end = time.perf_counter()
    if pathlib.Path(pqcli.__file__).resolve().parent != (SRC / "pqcli").resolve():
        raise SystemExit(f"perfbench: imported pqcli from {pqcli.__file__}, not {SRC}")
    return pqcli, (start, end)


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    status = 0
    for name in WORKLOADS:
        status |= subprocess.run([sys.executable, __file__, "--workload", name,
                                  "--seed", str(args.seed), "--trace", str(args.trace)]).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    pqcli, import_span = import_library()
    import bench_trace
    import bench_workloads as bw

    workload = _workloads(bw)[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            metrics, attempted, failed, notes = run_traced(bw, bench_trace, workload,
                                                           args, workdir)
        else:
            metrics, attempted, failed, notes = run_untraced(bw, workload, args,
                                                             import_span, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    for note in notes:
        print(f"{args.workload} {note}")
    print("env " + json.dumps(environment(args, pqcli.__file__), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
