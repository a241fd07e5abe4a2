"""Layer tracing for the benchmark, built from wrappers around public functions.

``Tracer.install`` replaces each traced function by a wrapper everywhere the
package binds it (``cli.info_complexity``, ``verify.info_complexity``, ...),
so calls between modules pass through the wrappers too.  A wrapper records a
span (name, start, end, parent, op id, pass) while ``Tracer.on`` is set, that
is, while an op runs; otherwise it calls straight through.

Calls into ``seqcore`` (``EigenSeq.L``, ``WeightSeq.G``, the families'
``log_inv`` and ``log_inv_many``) are too many and too short for a span each.
They are counted and timed in aggregate, outermost call only, and their time
is charged to the innermost open span, whose self time excludes it.
"""

from __future__ import annotations

import csv
import inspect
import sys
import time
from collections import Counter

#: (module, function, span name) for every traced layer boundary.
SPANNED = (
    ("complexity", "info_complexity", "complexity.count"),
    ("complexity", "top_eigenvalues", "complexity.topk"),
    ("complexity", "j_of_eps", "complexity.threshold"),
    ("complexity", "d_of_eps", "complexity.threshold"),
    ("tractability", "classify", "tractability.classify"),
    ("tractability", "summability", "tractability.summability"),
    ("verify", "brute_force_count", "verify.oracle"),
    ("verify", "check_count_sandwich", "verify.sandwich"),
    ("verify", "check_summability_equivalence", "verify.summability_audit"),
    ("verify", "power_sum_suite", "verify.power_sum"),
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "run_count", "cli.run"),
    ("cli", "run_topk", "cli.run"),
)

SEQ_SCALAR = ("L", "G", "log_inv")
SEQ_VECTOR = ("log_inv_many",)

# Span record fields.
NAME, START, END, PARENT, OP, PASS, SEQ_S, FAILED = range(8)


PACKAGE = "tensortract"


class Tracer:
    def __init__(self):
        self.on = False
        self.op_id = ""
        self.pass_no = 0
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._in_seq = False
        self._undo: list = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        pkg = PACKAGE
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == pkg or name.startswith(pkg + "."))]
        for mod_name, fn_name, span_name in SPANNED:
            orig = getattr(sys.modules[f"{pkg}.{mod_name}"], fn_name)
            wrapper = self._span_wrapper(span_name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))
        seqcore = sys.modules[f"{pkg}.seqcore"]
        for cls in vars(seqcore).values():
            if not (isinstance(cls, type) and cls.__module__ == seqcore.__name__):
                continue
            for names, kind in ((SEQ_SCALAR, "scalar"), (SEQ_VECTOR, "vector")):
                for attr in names:
                    orig = cls.__dict__.get(attr)
                    if callable(orig):
                        setattr(cls, attr, self._seq_wrapper(kind, orig))
                        self._undo.append((cls, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # ----------------------------------------------------------- wrappers

    def _span_wrapper(self, name: str, fn):
        after = _AFTER.get(name)
        sig = inspect.signature(fn) if after else None
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   self.op_id, self.pass_no, 0.0, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if after:
                after(counts, lambda: sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _seq_wrapper(self, kind: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls_key, time_key = f"seqcore.{kind}_calls", f"seqcore.{kind}_s"

        def counted(*args, **kwargs):
            if not self.on or self._in_seq:
                return fn(*args, **kwargs)
            self._in_seq = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._in_seq = False
                counts[calls_key] += 1
                counts[time_key] += dt
                if stack:
                    spans[stack[-1]][SEQ_S] += dt

        return counted

    # ------------------------------------------------------------ results

    def self_times(self) -> dict:
        """{span name: (calls, failed calls, self seconds)} over all spans."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict = {}
        for rec, ch in zip(self.spans, child):
            calls, failed, self_s = out.get(rec[NAME], (0, 0, 0.0))
            out[rec[NAME]] = (calls + 1, failed + rec[FAILED],
                              self_s + (rec[END] - rec[START]) - ch - rec[SEQ_S])
        return out

    def write_spans(self, path) -> None:
        """One CSV line per span; times in ns from the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("id", "name", "start_ns", "end_ns", "parent", "op", "pass",
                          "seqcore_ns", "failed"))
            for i, r in enumerate(self.spans):
                out.writerow((i, r[NAME], round((r[START] - t0) * 1e9),
                              round((r[END] - t0) * 1e9), r[PARENT], r[OP], r[PASS],
                              round(r[SEQ_S] * 1e9), int(r[FAILED])))


# Each takes the counters, a callable giving the call's bound arguments by
# name, and the call's result.

def _after_count(counts, args, result):
    counts["complexity.nodes"] += result.nodes_visited
    counts["complexity.tuples"] += result.count


def _after_topk(counts, args, result):
    counts["complexity.topk_entries"] += len(result)
    counts["complexity.topk_requested"] += args()["K"]


def _after_oracle(counts, args, result):
    bound = args()
    counts["verify.oracle_box_cells"] += bound["box"] ** bound["q"].d


_AFTER = {
    "complexity.count": _after_count,
    "complexity.topk": _after_topk,
    "verify.oracle": _after_oracle,
}
