"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the minvec layers from outside the
library.  Each wrapped call records one span -- (name, start, end, parent
span, operation id, raised) -- in memory; a few calls also add to named
counters (rows, pairs, bytes, hits).  LocalElement arithmetic is only
counted, never timed.  A layer's self time is the sum of its spans'
durations minus the time covered by their direct child spans.

Callers import by name, so a wrapper is bound wherever a minvec module holds
the original object, and every binding is restored on ``uninstall``.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from collections import Counter
from time import perf_counter

# span record layout
NAME, START, END, PARENT, OP, RAISED = range(6)

# (layer name, owning module, attribute path, counter hook).  A hook maps
# (args, result) to {counter suffix: amount} and runs after a call returns.
TIMED = [
    # set-up
    ("characters.enumerate_theta", "minvec.characters", "enumerate_theta", None),
    ("characters.MinimalVectorSpec.build", "minvec.characters", "MinimalVectorSpec.build", None),
    ("global_whittaker.RamifiedData.build", "minvec.global_whittaker", "RamifiedData.build", None),
    # vectorized pair kernels
    ("cosets.kt_support", "minvec.cosets", "kt_support", None),
    ("cosets.mat_keys", "minvec.cosets", "mat_keys",
     lambda args, out: {"in_bytes": args[0].nbytes}),
    ("cosets.random_kt_elements", "minvec.cosets", "random_kt_elements", None),
    ("characters.ChiEvaluator.build", "minvec.characters", "ChiEvaluator.build", None),
    ("characters.ChiEvaluator.exponents", "minvec.characters", "ChiEvaluator.exponents",
     lambda args, out: {"rows": len(args[1])}),
    ("minimal.convolution_check", "minvec.minimal", "convolution_check",
     lambda args, out: {"pairs": out.pairs_checked}),
    # scalar Whittaker route
    ("minimal.whittaker_oracle", "minvec.minimal", "whittaker_oracle", None),
    ("minimal.whittaker_closed", "minvec.minimal", "whittaker_closed", None),
    ("minimal.matrix_coefficient", "minvec.minimal", "matrix_coefficient",
     lambda args, out: {"hits": int(out != 0)}),
    ("characters.chi_value", "minvec.characters", "chi_value", None),
    ("matgroups.decompose_B1T", "minvec.matgroups", "decompose_B1T", None),
    ("matgroups.subgroup_member", "minvec.matgroups", "subgroup_member", None),
    # archimedean side and the scan
    ("bessel.bessel_K_imag", "minvec.bessel", "bessel_K_imag", None),
    ("global_whittaker.c_infty", "minvec.global_whittaker", "c_infty", None),
    ("global_whittaker.kappa", "minvec.global_whittaker", "kappa", None),
    ("global_whittaker.lambda_prime_fast", "minvec.global_whittaker", "lambda_prime_fast", None),
    ("global_whittaker.values_upto", "minvec.global_whittaker", "CoefficientSource.values_upto", None),
    ("global_whittaker.fft", "numpy.fft", "ifft", None),
    ("global_whittaker.scan_supnorm", "minvec.global_whittaker", "scan_supnorm",
     lambda args, out: {"rows": len(out.rows)}),
]

# LocalElement operations counted under residues.local_ops
COUNTED_OPS = ("__mul__", "__add__", "__sub__", "inverse")


class Tracer:
    """In-memory spans and counters; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1            # operation id stamped on new spans; -1 is set-up
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name: str, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if hook is not None:
                for key, amount in hook(args, out).items():
                    counts[f"{name}.{key}"] += amount
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        try:
            for name, modname, path, hook in TIMED:
                self._install_one(name, importlib.import_module(modname), path, hook)
            from minvec.residues import LocalElement
            for attr in COUNTED_OPS:
                self._set(LocalElement, attr,
                          self._counted("residues.local_ops", LocalElement.__dict__[attr]))
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, name: str, module, path: str, hook) -> None:
        if "." in path:
            # a method or classmethod: rebind on the class itself
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._timed(name, raw.__func__, hook)))
            else:
                self._set(cls, attr, self._timed(name, raw, hook))
            return
        original = getattr(module, path)
        wrapper = self._timed(name, original, hook)
        self._set(module, path, wrapper)
        # every minvec module that imported the function by name
        for modname, mod in list(sys.modules.items()):
            if mod is module or not (modname == "minvec" or modname.startswith("minvec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time covered by direct children."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = {name: 0.0 for name in self.names}
        for i, rec in enumerate(self.spans):
            out[self.names[rec[NAME]]] += rec[END] - rec[START] - child[i]
        return out

    def layer_stats(self) -> dict[str, dict]:
        """calls, failed (raised), self_s and inclusive durations per layer."""
        stats = {name: {"calls": 0, "failed": 0, "durations": []} for name in self.names}
        for rec in self.spans:
            st = stats[self.names[rec[NAME]]]
            st["calls"] += 1
            st["failed"] += rec[RAISED]
            st["durations"].append(rec[END] - rec[START])
        for name, s in self.self_times().items():
            stats[name]["self_s"] = s
        return stats

    def write_spans(self, path) -> None:
        """One CSV line per span: name,start,end,parent,op,raised."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op,raised\n")
            for rec in self.spans:
                fh.write(f"{self.names[rec[NAME]]},{rec[START]:.9f},{rec[END]:.9f},"
                         f"{rec[PARENT]},{rec[OP]},{int(rec[RAISED])}\n")


def percentile_ms(durations: list[float], q: int) -> float:
    """The q-th percentile (1..99) of durations in milliseconds; 0 if none."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3
