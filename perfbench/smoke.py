"""Tiny smoke check of the benchmark, in about a minute.

    python3 perfbench/smoke.py

Runs every workload at a few operations (no SLH-DSA-128s), untraced and
traced, on seed 1 and on the held-out seed, and checks that:

* every output verifies and every metric is a positive number, or a zero
  where the workload does not touch the layer;
* the metric names and units are those of BENCHMARK.json;
* the traced counts repeat exactly across two runs of one seed, and the
  private-key loads per certificate are those of the current code;
* the tracer puts every wrapped function back;
* a failing operation is counted and keeps its latency sample.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run

HELD_OUT_SEED = 1001
COUNTS = ("algs.key_loads_per_op", "der.decode.calls_per_op", "der.encode.calls_per_op")
EXPECTED_KEY_LOADS = {"rsa": 1, "ecdsa": 1, "mldsa3": 1, "hyb-rsa-mldsa3": 2,
                      "cmp-mldsa3-rsa": 4, "slh128f": 0, "slh192f": 0}


def tiny_workloads(bw):
    return {
        "issue": bw.IssueWorkload("issue", {s.name: 1 for s in bw.ISSUE_SHAPES},
                                  bw.PYTHON_BIGNUM, (bw.OBJECTS, bw.BIGNUM)),
        "issue_slh": bw.IssueWorkload(
            "issue_slh", {"slh128f": 1, "hyb-ecdsa-slh128f": 1, "slh192f": 1},
            bw.SHAKE, (bw.SHAKE,)),
        "verify": bw.VerifyWorkload(per_shape=1, tampered=1, cycles=1,
                                    views_per_cycle=1, verifies_per_cycle=1),
        "cli": bw.CliWorkload(cycles=1),
    }


class _Broken:
    """A workload whose one operation raises."""

    kernels = (("none", lambda: None, 1.0),)

    def run(self, state, op):
        raise RuntimeError("broken on purpose")

    def kernel_of(self, op):
        return "none"


def main() -> int:
    _, import_span = run.import_library()
    import bench_trace
    import bench_workloads as bw

    problems = []
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if ([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
            != run.per_layer_names(bw)):
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_names")

    if tuple(run._workloads(bw)) != run.WORKLOADS:
        problems.append("run._workloads does not build every workload")

    originals = {(m, a): getattr(m, a) for m, a, _ in bench_trace.TARGETS}
    workdir = run.WORK / "smoke"
    try:
        for name, workload in tiny_workloads(bw).items():
            for seed in (1, HELD_OUT_SEED):
                args = argparse.Namespace(workload=name, seed=seed, trace=0)
                metrics, _, failed, _ = run.run_untraced(bw, workload, args, import_span,
                                                         workdir, setup_repeats=1)
                if failed or not all(v > 0 for v, _ in metrics.values()):
                    problems.append(f"{name} seed {seed}: {failed} failed, {metrics}")
            args = argparse.Namespace(workload=name, seed=1, trace=1)
            first, second = (run.run_traced(bw, bench_trace, workload, args, workdir)
                             for _ in range(2))
            for metrics, _, failed, _ in (first, second):
                if failed or any(v < 0 for v, _ in metrics.values()):
                    problems.append(f"{name} traced: {failed} failed, {metrics}")
            for key, (value, _) in first[0].items():
                if key.startswith(COUNTS) and value != second[0][key][0]:
                    problems.append(f"{name}: {key} reads {value} then {second[0][key][0]}")
            for shape, loads in EXPECTED_KEY_LOADS.items():
                value = first[0][f"algs.key_loads_per_op.{shape}"][0]
                if shape in getattr(workload, "mix", {}) and value != loads:
                    problems.append(f"{name}: {shape} loads {value} keys, expected {loads}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()

    moved = [f"{m.__name__}.{a}" for (m, a), f in originals.items() if getattr(m, a) is not f]
    if moved or bench_trace.algs.serialization.__class__.__name__ != "module":
        problems.append(f"tracer left wrappers in place: {moved}")

    broken = run.Loop(_Broken(), None, ["op"], run.Reference(_Broken.kernels))
    if broken.failed != 1 or len(broken.samples) != 1:
        problems.append("a failing operation was not counted")

    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
