"""Span recording for the traced benchmark run.

The tracer wraps listed public functions of pqcli where their callers look
them up: the attribute of the defining module, which covers ``mod.fn``
calls from other modules, lazy imports and calls inside the module, and
every other pqcli module attribute bound to the same function object
(``from .names import parse_name``). Wrappers pass arguments, return
values and exceptions through unchanged; leaving the tracer's context
puts every original back and checks that it did.

A span records name, start, end, parent and operation id. A function
re-entered from inside its own span (``der.encode`` recursing over a tree)
is folded into the outer span, so a span counts one call made by a caller.
Self time is the span's duration minus the time of its child spans, which
never overlap because the benchmark runs on one thread.

Besides spans, the tracer counts the private-key deserialisations that
``algs`` asks ``cryptography`` for, by replacing the ``serialization``
module ``algs`` sees with a counting proxy.
"""

from __future__ import annotations

import array
import collections
import functools
import statistics
import sys
import time

from pqcli import algs, catalyst, chameleon, composite, der, names, pem, slhdsa, x509

SETUP = -1   # operation id of spans made while setting up
CHECK = -2   # operation id of spans made while checking outputs
OPS = 0      # phase of every timed operation (ids 0, 1, ...)


def _arg_attr(attr):
    """Span-name suffix from the first argument, e.g. the spec's family."""
    def label(*args, **kwargs):
        first = args[0] if args else next(iter(kwargs.values()), None)
        return getattr(first, attr, "unknown")
    return label


_FAMILY = _arg_attr("family")
_PARAMETER_SET = _arg_attr("name")

# (module, function name, span-name suffix or None)
TARGETS = (
    (algs, "sign", _FAMILY),
    (algs, "verify", _FAMILY),
    (algs, "load_private_key", None),
    (algs, "generate_keypair", _FAMILY),
    (slhdsa, "sign", _PARAMETER_SET),
    (slhdsa, "verify", _PARAMETER_SET),
    (slhdsa, "keygen", _PARAMETER_SET),
    (der, "decode", None),
    (der, "encode", None),
    (pem, "decode_pem", None),
    (pem, "encode_pem", None),
    (names, "parse_name", None),
    (x509, "parse_certificate", None),
    (x509, "build_tbs", None),
    (x509, "sign_certificate", None),
    (x509, "verify_certificate", None),
    (x509, "render_text", None),
    (catalyst, "issue_catalyst", None),
    (catalyst, "alt_verdict", None),
    (catalyst, "alt_preimage", None),
    (composite, "material_from_private", None),
    (composite, "composite_sign", None),
    (composite, "verify_certificate_signature", None),
    (chameleon, "issue_paired", None),
    (chameleon, "reconstruct_delta", None),
)


class _CountingSerialization:
    """The ``cryptography`` serialization module as ``algs`` sees it, with
    private-key loads counted per operation."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._real, attr)

    def load_der_private_key(self, *args, **kwargs):
        self._tracer.key_loads[self._tracer.op] += 1
        return self._real.load_der_private_key(*args, **kwargs)


class Tracer:
    """Context manager that wraps TARGETS on entry and restores them on exit.
    ``op`` is the id that new spans and key loads are recorded under."""

    CHECK = CHECK

    def __init__(self):
        self.op = SETUP
        self.key_loads = collections.Counter()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.self_ns = array.array("q")
        self.parent = array.array("q")
        self.op_id = array.array("q")
        self._stack: list[list] = []   # [wrapper, span index, child ns]
        self._patches: list[tuple] = []

    # -- installing and restoring -----------------------------------------

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "pqcli" or n.startswith("pqcli.")]
        for module, attr, label in TARGETS:
            original = getattr(module, attr)
            short = module.__name__.rpartition(".")[2]
            wrapper = self._wrap(f"{short}.{attr}", original, label)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)
        self._patches.append((algs, "serialization", algs.serialization))
        algs.serialization = _CountingSerialization(algs.serialization, self)
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        leftover = [f"{m.__name__}.{k}" for m, k, o in self._patches
                    if getattr(m, k) is not o]
        self._patches.clear()
        if leftover:
            raise RuntimeError(f"tracer left wrappers in place: {leftover}")
        return False

    def _wrap(self, name, fn, label):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is wrapper:
                return fn(*args, **kwargs)
            index = self._open(f"{name}.{label(*args, **kwargs)}" if label else name)
            frame = [wrapper, index, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.start[index] = start
                self.end[index] = end
                self.self_ns[index] = end - start - frame[2]
                if stack:
                    stack[-1][2] += end - start
        return wrapper

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        index = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1][1] if self._stack else -1)
        self.op_id.append(self.op)
        for column in (self.start, self.end, self.self_ns):
            column.append(0)
        return index

    # -- summaries ---------------------------------------------------------

    def median_self_ms(self, phase: int) -> dict[str, float]:
        """Per-call median self time of every span name over the spans of
        one phase: OPS, SETUP or CHECK."""
        by_name = collections.defaultdict(list)
        for name_id, op, self_ns in zip(self.name_id, self.op_id, self.self_ns):
            if op == phase or (phase == OPS and op >= 0):
                by_name[name_id].append(self_ns)
        return {self._names[i]: statistics.median(v) / 1e6 for i, v in by_name.items()}

    def per_op(self, name: str, op_count: int) -> tuple[float, float]:
        """(calls per operation, median self ms per operation) of one span
        name over the timed operations."""
        name_id = self._name_ids.get(name)
        totals = [0] * op_count
        calls = 0
        for nid, op, self_ns in zip(self.name_id, self.op_id, self.self_ns):
            if nid == name_id and op >= 0:
                totals[op] += self_ns
                calls += 1
        return calls / op_count, statistics.median(totals) / 1e6

    def key_loads_by_op(self, op_count: int) -> list[int]:
        return [self.key_loads[i] for i in range(op_count)]
