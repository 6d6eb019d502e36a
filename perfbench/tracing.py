"""Span recording around symclone's public functions, installed from outside.

`install` replaces each traced function with a recording wrapper in every
symclone module namespace that holds it, so calls made inside the package
(for example `verify` calling `oracle_clone`) are recorded as well.  Nothing
under `src/` changes.  Spans stay in memory; `summary` folds them into call
counts, total time and self time per name when the worker ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, function): the layer boundaries a traced worker records.
TRACED = (
    ("symspace", "enumerate_basis"),
    ("symspace", "reduce_one"),
    ("cloner", "clone_amplitudes"),
    ("cloner", "clone_channel"),
    ("cloner", "isometry_gram"),
    ("cloner", "concatenate"),
    ("closed_forms", "bloch_vector"),
    ("closed_forms", "scaling_residual"),
    ("oracle", "oracle_clone"),
    ("oracle", "clone_isometry_full"),
    ("oracle", "covariance_check"),
    ("verify", "scaling_suite"),
    ("verify", "isometry_suite"),
    ("verify", "concat_suite"),
    ("verify", "oracle_suite"),
    ("verify", "covariance_suite"),
    ("serialize", "read_sym_operator"),
    ("serialize", "write_sym_operator"),
    ("cli", "main"),
)


class Tracer:
    """In-memory spans: [name, start, end, index of the enclosing span or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._paused = False

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own input generation and checks unrecorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def last(self, name: str) -> float:
        """Duration of the most recent closed span with this name."""
        for span_name, start, end, _ in reversed(self.spans):
            if span_name == name and end is not None:
                return end - start
        raise KeyError(name)

    def summary(self) -> dict:
        """Per name: calls, total_s, and self_s (duration minus direct children)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), child_s in zip(self.spans, covered):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_s
        return out


def install(tracer: Tracer) -> None:
    """Rebind every traced function, wherever a symclone module looks it up."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "symclone"]
    for module_name, attr in TRACED:
        original = getattr(sys.modules[f"symclone.{module_name}"], attr)
        wrapper = tracer.wrap(f"{module_name}.{attr}", original)
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, wrapper)
