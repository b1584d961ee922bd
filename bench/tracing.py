"""In-memory spans and work counts around calls into the package's layers.

`Tracer.install()` wraps the package's public layer functions (and the few
private helpers that every objective evaluation passes through) in every
`piezoshunt` module that binds them, so calls made through an importer such
as `reduction.state_matrix` or `timesim.state_matrix` are traced too.  In the
same window it counts calls to `numpy.linalg.solve`, `eig` and `eigvals`.
Everything is restored on exit, so the benchmark's own oracles, which run
outside the window, are neither counted nor slowed.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so overlapping or stray
    children are never subtracted twice.
    """
    children = defaultdict(list)
    for idx, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(idx)
    out = []
    for idx, sp in enumerate(spans):
        covered, reach = 0.0, sp.start
        for lo, hi in sorted((max(spans[c].start, sp.start), min(spans[c].end, sp.end))
                             for c in children[idx]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp.end - sp.start - covered)
    return out


def summarize(spans):
    """{name: (calls, total_s, self_s)} over a span list."""
    own = self_times(spans)
    table = {}
    for sp, self_s in zip(spans, own):
        calls, total, selfs = table.get(sp.name, (0, 0.0, 0.0))
        table[sp.name] = (calls + 1, total + sp.end - sp.start, selfs + self_s)
    return table


def merge(*tracers):
    """One tracer holding the spans and counts of several, in order."""
    out = Tracer()
    for tr in tracers:
        offset = len(out.spans)
        out.spans += [Span(sp.name, sp.start, sp.end, sp.parent + offset if sp.parent >= 0 else -1)
                      for sp in tr.spans]
        out.counts.update(tr.counts)
    return out


def _tune_name(args, kwargs):
    from piezoshunt.reduction import ReducedModel

    model = args[0] if args else kwargs["model"]
    objective = args[1] if len(args) > 1 else kwargs.get("objective", "min-damping-ratio")
    if kwargs.get("per_branch"):
        kind = "per_branch"
    else:
        kind = "reduced" if isinstance(model, ReducedModel) else "full"
    return f"reduction.tune.{kind}.{'hinf' if objective == 'hinf' else 'mdr'}"


class Tracer:
    """Spans and counters recorded while `install()` is active."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._tune_depth = 0

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _tune(self, fn):
        def wrapper(*args, **kwargs):
            name = _tune_name(args, kwargs)
            self._tune_depth += 1
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            finally:
                self._tune_depth -= 1
            for key in ("reduction", name):
                self.counts[f"{key}.starts"] += len(result.starts)
                self.counts[f"{key}.starts_converged"] += sum(s.converged for s in result.starts)
            self.counts["reduction.nm_iterations"] += sum(s.iterations for s in result.starts)
            return result
        return wrapper

    def _objective(self, fn):
        def wrapper(*args, **kwargs):
            if self._tune_depth:
                self.counts["reduction.objective_evals"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _solve(self, fn):
        counts = self.counts

        def wrapper(a, b):
            shape = a.shape if type(a) is np.ndarray else np.shape(a)
            counts["linalg.solve.calls"] += 1
            counts["linalg.solve.order_sum"] += shape[-1]
            counts["linalg.solve.systems"] += math.prod(shape[:-2])
            return fn(a, b)
        return wrapper

    def _on_frf(self, result):
        self.counts["coupled.frf.points"] += len(result.omega)

    def _on_integrate(self, result):
        self.counts["timesim.steps"] += result.n_samples - 1

    # -- installation -----------------------------------------------------

    def _wrappers(self):
        from piezoshunt import beam, cli, config, coupled, reduction, timesim

        return [
            (config.load_config, self._spanned("config.load_config", config.load_config)),
            (beam.modal_basis, self._spanned("beam.modal_basis", beam.modal_basis)),
            (coupled.assemble, self._spanned("coupled.assemble", coupled.assemble)),
            (coupled.eigen, self._spanned("coupled.eigen", coupled.eigen)),
            (coupled.frf, self._spanned("coupled.frf", coupled.frf, self._on_frf)),
            (coupled.state_matrix,
             self._counted("coupled.state_matrix.calls", coupled.state_matrix)),
            (coupled._frf_values, self._objective(coupled._frf_values)),
            (reduction._min_damping, self._objective(reduction._min_damping)),
            (reduction.reduce, self._spanned("reduction.reduce", reduction.reduce)),
            (reduction.tune, self._tune(reduction.tune)),
            (reduction.validate_reduction,
             self._spanned("reduction.validate_reduction", reduction.validate_reduction)),
            (timesim.integrate,
             self._spanned("timesim.integrate", timesim.integrate, self._on_integrate)),
            (timesim.energy_history,
             self._spanned("timesim.energy_history", timesim.energy_history)),
            (timesim.energy_residual,
             self._spanned("timesim.energy_residual", timesim.energy_residual)),
            (cli.run_command, self._spanned("cli.run_command", cli.run_command)),
        ]

    @contextlib.contextmanager
    def install(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        from piezoshunt.reduction import ReducedModel

        wrappers = {id(orig): (orig, wrapped) for orig, wrapped in self._wrappers()}
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "piezoshunt" or name.startswith("piezoshunt."))]
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patched.append((mod, attr, value))
        linalg = [(np.linalg, name, getattr(np.linalg, name)) for name in ("solve", "eig", "eigvals")]
        a_matrix = ReducedModel.a_matrix
        try:
            for mod, attr, value in patched:
                setattr(mod, attr, wrappers[id(value)][1])
            np.linalg.solve = self._solve(linalg[0][2])
            np.linalg.eig = self._counted("linalg.eig.calls", linalg[1][2])
            np.linalg.eigvals = self._counted("linalg.eigvals.calls", linalg[2][2])
            ReducedModel.a_matrix = self._counted("reduction.a_matrix.calls", a_matrix)
            yield self
        finally:
            ReducedModel.a_matrix = a_matrix
            for mod, attr, value in linalg + patched:
                setattr(mod, attr, value)

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Flat {metric name: value} from the recorded spans and counts."""
        out = {}
        for name, (calls, total, selfs) in summarize(self.spans).items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = selfs
        for name, value in self.counts.items():
            if not name.endswith((".starts", ".starts_converged", ".order_sum")):
                out[name] = value
        for key in {k[:-len(".starts")] for k in self.counts if k.endswith(".starts")}:
            starts = self.counts[f"{key}.starts"]
            out[f"{key}.starts_converged_ratio"] = self.counts[f"{key}.starts_converged"] / starts
        solves = self.counts["linalg.solve.calls"]
        out["linalg.solve.order_mean"] = self.counts["linalg.solve.order_sum"] / solves if solves else 0.0
        points = self.counts["coupled.frf.points"]
        out["coupled.frf.s_per_point"] = out.get("coupled.frf.total_s", 0.0) / points if points else 0.0
        steps = self.counts["timesim.steps"]
        out["timesim.integrate.s_per_step"] = (
            out.get("timesim.integrate.total_s", 0.0) / steps if steps else 0.0)
        return out

    def dump(self):
        """JSON-ready record of every span and count."""
        return {
            "spans": [[sp.name, sp.start, sp.end, sp.parent] for sp in self.spans],
            "counts": dict(self.counts),
        }
