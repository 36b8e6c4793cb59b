"""In-memory span tracer for the traced run.

The tracer wraps the library's public functions at every module attribute
that binds them (analysis, figures and cli import names directly, so
patching only the defining module would miss most calls), aggregates
spans by (span, parent) and derives self time from child coverage.  Leaf
helpers that run hundreds of thousands of times are counted, not timed.
"""

from __future__ import annotations

from time import perf_counter_ns

import sqdenom
from sqdenom import analysis, cli, confrac, exactmath, figures, sigmacore, svg

MODULES = (sqdenom, exactmath, confrac, sigmacore, analysis, figures, svg, cli)

SPANNED = {
    confrac: ("first_rational_between", "sqrt_cf", "stern_brocot_between"),
    sigmacore: ("sigma", "tau", "sigma_k", "min_k", "zero_windows", "on_bound_criterion"),
    exactmath: ("surd_cmp",),
    analysis: ("sweep", "k_set", "symmetry_report", "offbound_peaks", "offbound_minima",
               "conjecture1_search"),
    figures: ("generate_figures", "heatmap_svg", "heatmap_data"),
    svg: ("draw_cells", "draw_points"),
    cli: ("main",),
}
COUNTED = {exactmath: ("is_perfect_square",), sigmacore: ("decompose",)}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Aggregated spans of one traced run.

    Entering the context wraps the functions; leaving restores them.
    `begin()` opens a fresh scope for one operation; `commit()` merges it
    into the run's totals.  An operation abandoned over budget is never
    committed, so its partial counts cannot make the totals vary.
    """

    def __init__(self):
        self.totals: dict[tuple[str, str], list[int]] = {}
        self.counts: dict[str, int] = {}
        self.heatmap_args: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self.begin()

    def begin(self) -> None:
        self.spans: dict[tuple[str, str], list[int]] = {}
        self.scope_counts: dict[str, int] = {}
        self.scope_heatmaps: list = []
        self.stack = [["bench", 0]]

    def commit(self) -> None:
        for key, (calls, total, child) in self.spans.items():
            agg = self.totals.setdefault(key, [0, 0, 0])
            agg[0] += calls
            agg[1] += total
            agg[2] += child
        for key, v in self.scope_counts.items():
            self.counts[key] = self.counts.get(key, 0) + v
        self.heatmap_args.update(self.scope_heatmaps)
        self.begin()

    def _count(self, key: str, by: int = 1) -> None:
        self.scope_counts[key] = self.scope_counts.get(key, 0) + by

    def _span(self, name: str, fn, on_call=None):
        def wrapper(*args, **kwargs):
            stack = self.stack
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                parent[1] += dt
                rec = self.spans.get((name, parent[0]))
                if rec is None:
                    rec = self.spans[(name, parent[0])] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts = self.scope_counts
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def __enter__(self):
        hooks = {
            "confrac.sqrt_cf": lambda args, cf: self._count("confrac.sqrt_cf.terms", len(cf.body)),
            "sigmacore.tau": lambda args, v: self._count("sigmacore.tau.hits", v > 0),
            "analysis.sweep": lambda args, rows: self._count("analysis.sweep.rows", len(rows)),
            "figures.heatmap_data": lambda args, r: self.scope_heatmaps.append(tuple(args)),
        }
        for module, names in SPANNED.items():
            for fname in names:
                name = f"{_short(module)}.{fname}"
                original = getattr(module, fname)
                self._rebind(original, self._span(name, original, hooks.get(name)))
        for module, names in COUNTED.items():
            for fname in names:
                original = getattr(module, fname)
                self._rebind(original, self._counter(f"{_short(module)}.{fname}", original))
        init = exactmath.Surd.__init__
        self._patches.append((exactmath.Surd, "__init__", init))
        exactmath.Surd.__init__ = self._span("exactmath.Surd", init)
        return self

    def __exit__(self, *exc):
        while self._patches:
            target, attr, value = self._patches.pop()
            setattr(target, attr, value)
        return False

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time (ms) summed over parents."""
        out: dict[str, dict[str, float]] = {}
        for (name, _parent), (calls, total, child) in self.totals.items():
            s = out.setdefault(name, {"calls": 0, "self_ms": 0.0})
            s["calls"] += calls
            s["self_ms"] += (total - child) / 1e6
        return out
