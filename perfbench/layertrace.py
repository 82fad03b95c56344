"""Outside-in layer trace of one ``dacsim run``.

The tracer replaces module attributes and methods of the imported ``dacsim``
package with timing wrappers, so every call into a layer's public function is
a span.  Spans are aggregated in memory per (parent, name) edge: call count,
inclusive time and self time (span time minus the time of the traced spans
it called).  ``layer_metrics`` turns the edges into the per-layer metrics
documented in README.md; ``self_check`` verifies the nesting.
"""

from __future__ import annotations

import functools
import os
import sys
import time

ROOT = "<root>"

SIGNALS = ("signals.value", "signals.derivative")
BOUNDS = ("bounds.transient", "bounds.tracking", "bounds.ultimate")


class Tracer:
    def __init__(self):
        self._stack = [[ROOT, 0.0]]
        self.edges: dict[tuple[str, str], list] = {}  # -> [calls, incl_s, self_s, min_self_s]
        self.counts: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, after=None):
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                own = dt - frame[1]
                edge = edges.get((parent[0], name))
                if edge is None:
                    edges[(parent[0], name)] = [1, dt, own, own]
                else:
                    edge[0] += 1
                    edge[1] += dt
                    edge[2] += own
                    if own < edge[3]:
                        edge[3] = own
            if after is not None:
                after(result, args)
            return result

        return traced

    def count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def _replace(self, fn, replacement):
        """Point every dacsim module attribute bound to fn at replacement."""
        found = False
        for modname, mod in list(sys.modules.items()):
            if modname != "dacsim" and not modname.startswith("dacsim."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)
                    found = True
        if not found:
            raise LookupError(f"{fn!r} is not bound in any dacsim module")

    def patch_function(self, fn, name, after=None):
        self._replace(fn, self.wrap(name, fn, after))

    def patch_factory(self, module, attr, name):
        """Trace the closures that module's binding of a factory returns (the
        protocol right-hand sides).  Only that one binding is replaced, so a
        factory calling another (dc3_rhs builds on dc2_rhs) is one span."""
        factory = getattr(module, attr)

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        self._undo.append((module, attr, factory))
        setattr(module, attr, traced_factory)

    def patch_method(self, cls, attr, name):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original))

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def install(self):
        """Wrap the public entry points of every layer of an imported dacsim."""
        from dacsim import bounds, cli, config, discrete, engine, graphs, signals, svgplot, switching

        def steps(result, args):
            self.count("engine.integrate_steps", len(result[0]) - 1)

        def csv_bytes(result, args):
            self.count("engine.csv_bytes", os.path.getsize(args[0]))

        self.patch_function(config.load_scenario, "config.load")
        for attr in ("build_inputs", "build_params", "build_topology"):
            self.patch_method(config.ScenarioConfig, attr, "config.build")
        self.patch_function(cli.execute, "cli.execute")
        self.patch_function(engine.run_scenario, "engine.scenario")
        self.patch_function(engine.simulate_protocol, "engine.package")
        self.patch_function(engine.simulate_discrete, "engine.package")
        self.patch_function(engine.integrate, "engine.integrate", after=steps)
        for attr in ("dc1_rhs", "dc2_rhs", "dc3_rhs"):
            self.patch_factory(engine, attr, "protocols.rhs")
        self.patch_method(signals.InputSet, "values", "signals.value")
        self.patch_method(signals.InputSet, "derivatives", "signals.derivative")
        self.patch_function(switching.graph_at, "switching.graph_at")
        self.patch_function(engine.pi_udot_series, "engine.gamma")
        self.patch_function(signals.discrete_disagreement_gamma, "engine.gamma")
        self.patch_function(bounds.transient_bound_s, "bounds.transient")
        self.patch_function(bounds.tracking_bound_curve, "bounds.tracking")
        self.patch_function(bounds.ultimate_bound, "bounds.ultimate")
        self.patch_function(discrete.dcdisc_step, "discrete.step")
        self.patch_function(graphs.laplacian, "graphs.laplacian")
        self.patch_function(graphs.spectral_summary, "graphs.spectral")
        self.patch_function(engine.error_metrics, "engine.metrics")
        self.patch_function(engine.write_trajectory_csv, "engine.csv", after=csv_bytes)
        self.patch_function(svgplot.render_svg, "svgplot.render")

    # -- reading the aggregate ---------------------------------------------

    def totals(self, name) -> tuple[int, float, float]:
        calls = incl = own = 0
        for (_, child), (c, i, s, _) in self.edges.items():
            if child == name:
                calls, incl, own = calls + c, incl + i, own + s
        return calls, incl, own

    def _under(self, parent, children) -> float:
        return sum(e[1] for (p, c), e in self.edges.items() if p == parent and c in children)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the traced run (times in seconds)."""
        t = {name: self.totals(name) for name in {c for _, c in self.edges}}

        def calls(*names):
            return sum(t.get(n, (0, 0.0, 0.0))[0] for n in names)

        def own(*names):
            return sum(t.get(n, (0, 0.0, 0.0))[2] for n in names)

        return {
            "config.load_s": t.get("config.load", (0, 0.0, 0.0))[1],
            "config.build_calls": calls("config.build"),
            "engine.integrate_s": own("engine.integrate"),
            "engine.integrate_steps": self.counts.get("engine.integrate_steps", 0),
            "protocols.rhs_s": own("protocols.rhs"),
            "protocols.rhs_calls": calls("protocols.rhs"),
            "signals.eval_s": own(*SIGNALS),
            "signals.value_calls": calls("signals.value"),
            "signals.derivative_calls": calls("signals.derivative"),
            "switching.graph_at_s": own("switching.graph_at"),
            "switching.graph_at_calls": calls("switching.graph_at"),
            "engine.package_s": own("engine.package") + self._under("engine.package", SIGNALS),
            "engine.gamma_s": own("engine.gamma") + self._under("engine.gamma", SIGNALS),
            "bounds.curve_s": own(*BOUNDS),
            "bounds.transient_calls": calls("bounds.transient"),
            "discrete.step_s": own("discrete.step"),
            "discrete.steps": calls("discrete.step"),
            "graphs.laplacian_calls": calls("graphs.laplacian"),
            "graphs.spectral_s": own("graphs.spectral"),
            "engine.metrics_s": own("engine.metrics"),
            "engine.csv_s": own("engine.csv"),
            "engine.csv_bytes": self.counts.get("engine.csv_bytes", 0),
            "svgplot.render_s": own("svgplot.render"),
            "engine.scenario_s": own("engine.scenario"),
            "cli.execute_s": own("cli.execute"),
        }

    def work_counts(self) -> dict:
        """Every count the trace records; these must repeat exactly across runs."""
        out = {f"calls:{p}>{c}": e[0] for (p, c), e in sorted(self.edges.items())}
        out.update(sorted(self.counts.items()))
        return out

    def self_check(self, tol: float = 1e-6) -> list[str]:
        """Nesting problems: a negative self time, or children whose spans add
        up to more than their parent's."""
        problems = []
        for (parent, name), (_, _, _, min_own) in sorted(self.edges.items()):
            if min_own < -tol:
                problems.append(f"{name} under {parent}: self time {min_own:.3g} s < 0")
        for parent in sorted({p for p, _ in self.edges} - {ROOT}):
            inside = sum(e[1] for (p, _), e in self.edges.items() if p == parent)
            _, incl, _ = self.totals(parent)
            if inside > incl + tol:
                problems.append(f"children of {parent} take {inside:.6f} s > its {incl:.6f} s")
        return problems
