"""Per-layer tracing from outside the program.

Each traced function of awspec is replaced, under every name that refers
to it in awspec's modules, by a wrapper that records a span (name, start,
end, parent span, operation id) in memory.  ``mpmath.workdps`` is wrapped
so that its span covers the body of the ``with`` block, which is where
the arbitrary-precision escalation of the closed form does its work.
Nothing inside ``src/`` is changed; ``uninstall`` restores the originals.
"""
import dataclasses
import gzip
import importlib
import sys
import time
from array import array

import numpy as np

# traced function names by module of the awspec package
TRACED = {
    "backend": ("qpoch", "qpoch_inf", "phi_sum"),
    "qcore": ("h_product", "phi"),
    "qpolys": ("norm_h", "cqjacobi_seq", "aw_phi_seq"),
    "awop": ("make_rule", "weight_theta_grid", "kernel_truncation",
             "eval_coeffvector", "t_quadrature", "kernel_eval",
             "dq_pointwise"),
    "spectral": ("bn_explicit", "bn_sequence", "eigenvalues",
                 "matrix_oracle", "f_eval", "eigenfunction", "q_coulomb"),
    "qexp": ("eq_exp", "am_coeff"),
    "cli": ("main",),
}
MPMATH_NAME = "mpmath.workdps"
# functions whose argument tuples are also counted, for distinct_ratio
DISTINCT = ("backend.qpoch_inf", "qpolys.norm_h", "awop.weight_theta_grid")
OP_SPAN = "bench.op"


def span_names():
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    return names + [MPMATH_NAME]


def _key(obj):
    """Hashable stand-in for an argument (arrays and rules by content)."""
    if isinstance(obj, np.ndarray):
        return (obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            _key(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(_key(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, _key(v)) for k, v in obj.items()))
    return obj


class Tracer:
    """Span recorder.  Spans are kept in flat arrays until ``write``."""

    def __init__(self):
        self.names = [OP_SPAN] + span_names()
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self.active = False
        self._stack = []
        self._seen = {n: set() for n in DISTINCT}
        self._distinct = dict.fromkeys(DISTINCT, 0)
        self._patched = []

    # -- recording ---------------------------------------------------------
    def open(self, name):
        idx = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        seen = self._seen.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if seen is not None:
                seen.add((_key(args), _key(kwargs)))
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def _wrap_workdps(self, fn):
        tracer = self

        class _Traced:
            def __init__(self, *args, **kwargs):
                self._cm = fn(*args, **kwargs)

            def __enter__(self):
                out = self._cm.__enter__()
                self._idx = tracer.open(MPMATH_NAME) if tracer.active else None
                return out

            def __exit__(self, *exc):
                if self._idx is not None:
                    tracer.close(self._idx)
                return self._cm.__exit__(*exc)

        return _Traced

    def end_pass(self):
        """Count this pass's distinct argument tuples; passes repeat the same
        operations, so distinct_ratio is taken within each pass."""
        for name, seen in self._seen.items():
            self._distinct[name] += len(seen)
            seen.clear()

    # -- installation ------------------------------------------------------
    def install(self):
        import mpmath

        owners = {mod: importlib.import_module(f"awspec.{mod}") for mod in TRACED}
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "awspec" or n.startswith("awspec."))]
        for mod, fns in TRACED.items():
            owner = owners[mod]
            for fn_name in fns:
                orig = getattr(owner, fn_name)
                wrapped = self._wrap(f"{mod}.{fn_name}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patched.append((m, attr, orig))
                            setattr(m, attr, wrapped)
        self._patched.append((mpmath, "workdps", mpmath.workdps))
        mpmath.workdps = self._wrap_workdps(mpmath.workdps)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- results -----------------------------------------------------------
    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def layer_metrics(self, passes):
        """Per-pass calls and self time of every traced function, plus the
        distinct-argument ratios and each span name's share of self time."""
        selfs = self.self_times()
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=selfs, minlength=len(self.names))
        metrics = {}
        for i, name in enumerate(self.names[1:], start=1):
            metrics[f"{name}.calls"] = (calls[i] / passes, "count")
            metrics[f"{name}.self_s"] = (self_s[i] / passes, "s")
        for name, distinct in self._distinct.items():
            n = calls[self._ids[name]]
            metrics[f"{name}.distinct_ratio"] = (distinct / n if n else 0.0,
                                                 "ratio")
        total = float(self_s.sum())
        shares = {n: float(s) / total for n, s in zip(self.names, self_s) if s > 0}
        return metrics, shares

    def write(self, path):
        """Write every span as gzip'd CSV: span,name,start,end,parent,op."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.op[i]}\n")
