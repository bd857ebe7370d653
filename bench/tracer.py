"""Tracing shim: times calls into skelpot's public functions from outside.

`Tracer.install()` replaces each target function at *every* binding site:
the defining module and every ``skelpot*`` module that copied it in with
``from .x import f`` (``potential``, ``polyhedra`` and ``testideals`` each
hold their own ``lp_solve``, ``toric`` its own ``solve_linear``).
Function-local imports (``from .rat import solve_linear`` inside
``potential.solve_ma`` and ``lp``) resolve through the module object, so
wrapping the module attribute covers them.  ``skelpot.rat`` on the package
is the *function* ``rat``, so modules are always taken from ``sys.modules``.

Each call records a span ``(span_id, parent_id, scenario, name, start,
end, self_s)``; self time is the span minus the spans nested in it.  Spans
stay in memory until `dump` writes them out.  `uninstall` restores every
binding.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

# module -> public functions to wrap; names in metrics are "<module>.<fn>"
TARGETS = {
    "rat": ("solve_linear", "matrix_rank"),
    "lp": ("lp_solve", "reoptimize"),
    "polyhedra": ("poly_contains", "intersect2", "minimalize"),
    "graphs": ("subdivide",),
    "potential": ("envelope", "solve_ma", "slope_report", "energy", "orthogonality_residual"),
    "toric": ("validate_complex", "skeleton", "retraction", "decompose", "is_concave", "toric_ma"),
    "fixtures": ("counterexample_fixture",),
    "testideals": ("test_ideal", "newton_test_ideal", "is_prime"),
    "jsonio": ("loads", "validate", "dumps"),
    "svg": ("render_svg",),
    "scenarios": ("execute",),
}

# lp_solve spans are named after the module that holds the binding called
LP_CALLERS = ("potential", "polyhedra", "testideals")


def _bits(values) -> int:
    top = 0
    for q in values:
        top = max(top, int(q.numerator).bit_length(), int(q.denominator).bit_length())
    return top


class Tracer:
    def __init__(self):
        self.spans = []
        self.scenario = -1
        self.stats = {
            "rat.solve_linear.max_n": 0,
            "rat.max_bits": 0,
            "lp.lp_solve.infeasible": 0,
            "lp.lp_solve.max_vars": 0,
            "svg.render_svg.bytes": 0,
        }
        self._stack = []  # [span_id, child seconds] of the open spans
        self._restore = []  # (module, attribute, original)

    # -- spans ---------------------------------------------------------

    def _wrap(self, name, fn, inspect):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            spans.append(None)  # reserve the id; filled when the call ends
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[span_id] = (span_id, parent, self.scenario, name, t0, t1, t1 - t0 - frame[1])
            if inspect is not None:
                inspect(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- per-function counters ------------------------------------------

    def _solve_linear(self, args, result):
        s = self.stats
        s["rat.solve_linear.max_n"] = max(s["rat.solve_linear.max_n"], len(args[0]))
        s["rat.max_bits"] = max(s["rat.max_bits"], _bits(result))

    def _lp_solve(self, args, result):
        s = self.stats
        s["lp.lp_solve.max_vars"] = max(s["lp.lp_solve.max_vars"], args[0].n_vars)
        if result.status == "infeasible":
            s["lp.lp_solve.infeasible"] += 1
        elif result.status == "optimal":
            s["rat.max_bits"] = max(s["rat.max_bits"], _bits(result.point))

    def _render_svg(self, args, result):
        self.stats["svg.render_svg.bytes"] += len(result.encode("utf-8"))

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding site in loaded skelpot modules.
        A target that no longer exists is skipped and reports 0 calls."""
        import skelpot.cli  # noqa: F401 - loads every module that binds a target

        loaded = {
            key: mod
            for key, mod in sys.modules.items()
            if key == "skelpot" or key.startswith("skelpot.")
        }
        inspectors = {
            "rat.solve_linear": self._solve_linear,
            "lp.lp_solve": self._lp_solve,
            "svg.render_svg": self._render_svg,
        }
        for short, names in TARGETS.items():
            home = loaded.get(f"skelpot.{short}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                base = f"{short}.{fname}"
                for key, mod in loaded.items():
                    site = key.rpartition(".")[2]
                    for attr, value in list(vars(mod).items()):
                        if value is not original:
                            continue
                        name = base
                        if base == "lp.lp_solve":
                            caller = site if site in LP_CALLERS else "other"
                            name = f"{base}.by_{caller}"
                        setattr(mod, attr, self._wrap(name, original, inspectors.get(base)))
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- output --------------------------------------------------------

    def dump(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def aggregate(spans, stats) -> dict:
    """Per-layer metrics from spans and counters: `<name>.calls` and
    `<name>.self_s` for every target, lp_solve split by caller, plus the
    counters."""
    calls, self_s = {}, {}
    for _, _, _, name, _, _, own in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
    out = {}
    for short, names in TARGETS.items():
        for fname in names:
            base = f"{short}.{fname}"
            keys = [k for k in calls if k == base or k.startswith(base + ".by_")]
            out[f"{base}.calls"] = sum(calls[k] for k in keys)
            out[f"{base}.self_s"] = sum(self_s[k] for k in keys)
    for caller in LP_CALLERS:
        key = f"lp.lp_solve.by_{caller}"
        out[f"{key}.calls"] = calls.get(key, 0)
        out[f"{key}.self_s"] = self_s.get(key, 0.0)
    n_lp = out["lp.lp_solve.calls"]
    out["lp.lp_solve.infeasible_frac"] = stats["lp.lp_solve.infeasible"] / n_lp if n_lp else 0.0
    for key in ("rat.solve_linear.max_n", "rat.max_bits", "lp.lp_solve.max_vars", "svg.render_svg.bytes"):
        out[key] = stats[key]
    return out

