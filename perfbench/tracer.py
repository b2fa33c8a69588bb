"""Spans and counters recorded around calls into the library's modules.

Wrappers are installed from outside the library, at every place a wrapped
object is bound: the defining module, the package namespace and every
module that from-imported it (``harness`` reaches ``green_block``,
``best_delta`` and the rest that way).  Frequent tiny calls get counters
only, so tracing stays cheap.  Spans are kept in memory as tuples and
written out when the run ends.

A span is (id, name, start, end, parent id, thread id, pass id).  Parents
are tracked per thread, so a job running on a pool thread starts a new
root; self time is a span's duration minus the part of it that its child
spans (all on the same thread) cover.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

LAYERS = ("operators", "boundfns", "envelopes", "spectral", "harness")


def _green_key(op, zeta, *args, **kwargs):
    return (id(op.sequence), op.n_blocks, complex(zeta))


def _block_key(seq, n, *args, **kwargs):
    return (id(seq), n)


def _held_bytes(result) -> int:
    """Computed bytes of the arrays an object holds as attributes."""
    return sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))


class Tracer:
    """Install wrappers, record spans and counters, and derive layer metrics."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.bytes = Counter()
        self.waits = []            # (pass id, seconds from submit to start)
        self.pass_id = 0
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def spanned(self, name, fn, key=None, measure=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if key is not None:
                with tracer._lock:
                    tracer.distinct[name].add((tracer.pass_id, key(*args, **kwargs)))
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent,
                                     threading.get_ident(), tracer.pass_id))
            if measure is not None:
                with tracer._lock:
                    tracer.bytes[(tracer.pass_id, name)] += measure(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn, key=None):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[(tracer.pass_id, name)] += 1
                if key is not None:
                    tracer.distinct[name].add((tracer.pass_id, key(*args, **kwargs)))
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def pool_class(self):
        """A ThreadPoolExecutor that records submit-to-start waits and job spans."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted = perf_counter()
                job = tracer.spanned("harness.job", fn)

                def started(*a, **k):
                    tracer.waits.append((tracer.pass_id, perf_counter() - submitted))
                    return job(*a, **k)

                return super().submit(started, *args, **kwargs)

        return TracedPool

    # -- installation ----------------------------------------------------

    @staticmethod
    def targets():
        """(name, owner, attribute, kind, extras) for every wrapped object."""
        from blockjacobi import (boundfns, envelopes, harness, operators,
                                 spectral)
        seq = operators.EntrySequence
        return [
            ("operators.assemble_truncation", operators, "assemble_truncation",
             "span", {"measure": _held_bytes}),
            ("operators.norms", seq, "norms", "span", {}),
            ("operators.block", seq, "block", "count", {"key": _block_key}),
            ("boundfns.best_delta", boundfns, "best_delta", "span", {}),
            ("boundfns.decay_rate", boundfns, "decay_rate", "span", {}),
            ("envelopes.cumulative_phi", envelopes, "cumulative_phi", "span", {}),
            ("envelopes.cumulative_reciprocal", envelopes,
             "cumulative_reciprocal", "span", {}),
            ("envelopes.discrete_envelope", envelopes, "discrete_envelope", "span", {}),
            ("envelopes.operator_envelope", envelopes, "operator_envelope", "span", {}),
            ("envelopes.commuting_check", envelopes, "commuting_check", "span", {}),
            ("envelopes.scalar_envelope", envelopes, "scalar_envelope", "count", {}),
            ("envelopes.phi_delta_spectral", envelopes, "phi_delta_spectral",
             "count", {}),
            ("spectral.symbol_spectrum", spectral, "symbol_spectrum", "span", {}),
            ("spectral.detect_gap", spectral, "detect_gap", "span", {}),
            ("spectral.truncated_spectrum", spectral, "truncated_spectrum", "span", {}),
            ("spectral.green_block", spectral, "green_block", "span",
             {"key": _green_key}),
            ("spectral.eigenpairs_in_gap", spectral, "eigenpairs_in_gap", "span", {}),
            ("spectral.lu_factor", spectral, "lu_factor", "span", {}),
            ("spectral.lu_solve", spectral, "lu_solve", "span", {}),
            ("harness.run", harness, "run", "span", {}),
            ("harness.resolve_gap", harness, "resolve_gap", "span", {}),
            ("harness.verify_green_bound", harness, "verify_green_bound", "span", {}),
            ("harness.verify_eigenvector_bound", harness,
             "verify_eigenvector_bound", "span", {}),
            ("harness.verify_commuting_bound", harness,
             "verify_commuting_bound", "span", {}),
            ("harness.pool", harness, "ThreadPoolExecutor", "pool", {}),
        ]

    def install(self) -> None:
        """Replace every binding of each target inside the blockjacobi package."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.missing = []
        replacements = {}
        classes = []
        for name, owner, attr, kind, extras in self.targets():
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(name)
                continue
            if kind == "span":
                wrapper = self.spanned(name, original, **extras)
            elif kind == "count":
                wrapper = self.counted(name, original, **extras)
            else:
                wrapper = self.pool_class()
            if isinstance(owner, type):
                classes.append((owner, attr, original, wrapper))
            else:
                replacements[id(original)] = (original, wrapper)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "blockjacobi" or key.startswith("blockjacobi.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))
        for owner, attr, original, wrapper in classes:
            setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- metrics ---------------------------------------------------------

    def pass_metrics(self, pass_id: int) -> dict:
        """Per-layer values of one traced pass."""
        spans = [s for s in self.spans if s[6] == pass_id]
        self_times = self_time(spans)
        busy, calls = Counter(), Counter()
        for sid, name, start, end, *_ in spans:
            busy[name] += end - start
            calls[name] += 1
        for (pid, name), count in self.counts.items():
            if pid == pass_id:
                calls[name] += count

        def distinct_ratio(name):
            distinct = sum(1 for pid, _ in self.distinct[name] if pid == pass_id)
            return distinct / calls[name] if calls[name] else 0.0

        out = {
            "spectral.green_block.calls": calls["spectral.green_block"],
            "spectral.green_block.busy_s": busy["spectral.green_block"],
            "spectral.green_block.distinct_ratio": distinct_ratio("spectral.green_block"),
            "spectral.lu_factor.calls": calls["spectral.lu_factor"],
            "spectral.lu_factor.busy_s": busy["spectral.lu_factor"],
            "spectral.lu_solve.calls": calls["spectral.lu_solve"],
            "spectral.eigenpairs_in_gap.busy_s": busy["spectral.eigenpairs_in_gap"],
            "spectral.detect_gap.busy_s": busy["spectral.detect_gap"],
            "boundfns.best_delta.calls": calls["boundfns.best_delta"],
            "boundfns.best_delta.busy_s": busy["boundfns.best_delta"],
            "operators.assemble_truncation.busy_s": busy["operators.assemble_truncation"],
            "operators.assemble_truncation.bytes":
                self.bytes[(pass_id, "operators.assemble_truncation")],
            "operators.block.calls": calls["operators.block"],
            "operators.block.distinct_ratio": distinct_ratio("operators.block"),
            "operators.norms.busy_s": busy["operators.norms"],
            "envelopes.operator_envelope.busy_s": busy["envelopes.operator_envelope"],
            "envelopes.commuting_check.busy_s": busy["envelopes.commuting_check"],
            "envelopes.phi_delta_spectral.calls": calls["envelopes.phi_delta_spectral"],
            "harness.jobs": sum(1 for pid, _ in self.waits if pid == pass_id),
            "harness.job_wait_s": sum(w for pid, w in self.waits if pid == pass_id),
            "trace.spans": len(spans),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for (name, t) in self_times if name.split(".", 1)[0] == layer)
        return out

    def dump(self) -> list:
        return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "thread": s[5], "pass": s[6]} for s in self.spans]


def self_time(spans) -> list:
    """(name, self seconds) per span: duration minus the union of its
    children's intervals, clipped to the span."""
    children = defaultdict(list)
    for sid, name, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, name, start, end, *_ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((name, (end - start) - covered))
    return out


def median_metrics(per_pass: list) -> dict:
    """Median over passes of each per-layer value."""
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
