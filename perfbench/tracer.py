"""Per-layer spans and counts, recorded from outside the `cavity_sr` package.

`install` replaces public names in the package's modules with wrappers that
time each call and count its work.  Spans nest: a span's self time is its
duration minus the durations of the spans it called.  The traced run uses
one engine worker, so spans do not overlap in time.

A name that a later version of the package no longer has is skipped, and the
metrics that depend on it are reported as missing instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import threading
from collections import defaultdict
from time import perf_counter

# EnsembleModel field -> span name
MODEL_SPANS = {"sample_initial": "sample", "drift": "drift", "noise": "noise",
               "observables": "observables"}
SCHEMES = ("collective", "individual")


class Tracer:
    """Accumulates inclusive time, self time and call counts per span name."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.missing = set()        # names of wrapped targets that are gone
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1][0] if stack else None

    def wrap(self, name, fn, after=None):
        """Return fn timed under `name` (a string, or a function of the call's
        arguments); `after(result, args, kwargs)` records counts."""
        def wrapped(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            stack = self._stack()
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self.total[span] += duration
                self.self_time[span] += duration - frame[1]
                self.calls[span] += 1
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapped

    def patch(self, module_name, attr, make):
        """Replace module.attr by make(original); record it missing if gone."""
        target = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(f"cavity_sr.{module_name}")
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.add(target)
            return
        setattr(module, attr, make(original))


class _TimedGenerator:
    """Proxy for a numpy Generator that times and counts every draw."""

    def __init__(self, tracer, generator):
        self._tracer = tracer
        self._generator = generator

    def __getattr__(self, attr):
        method = getattr(self._generator, attr)
        if not callable(method):
            return method
        tracer = self._tracer

        def count(result, args, kwargs):
            tracer.counts["wiener.draws"] += int(getattr(result, "size", 1))
        timed = tracer.wrap("wiener.draw", method, count)
        setattr(self, attr, timed)      # later lookups skip __getattr__
        return timed


def install(tracer: Tracer) -> None:
    """Wrap the package's layer boundaries."""

    def count_steps(result, args, kwargs):
        tracer.counts["engine.traj_steps"] += int(args[0].shape[0])

    def model_factory(scheme):
        def make(factory):
            def traced_factory(*args, **kwargs):
                model = factory(*args, **kwargs)
                try:
                    return dataclasses.replace(model, **{
                        field: tracer.wrap(f"{scheme}.{span}", getattr(model, field),
                                           count_steps if field == "drift" else None)
                        for field, span in MODEL_SPANS.items()})
                except (AttributeError, TypeError):     # the model type changed
                    tracer.missing.add(f"{scheme}.EnsembleModel")
                    return model
            return traced_factory
        return make

    tracer.patch("runners", "collective_twa_model", model_factory("collective"))
    tracer.patch("runners", "individual_dtwa_model", model_factory("individual"))

    def chunk_stream(original):
        def traced(*args, **kwargs):
            tracer.counts["engine.chunks"] += 1
            return _TimedGenerator(tracer, original(*args, **kwargs))
        return traced
    tracer.patch("engine", "chunk_stream", chunk_stream)

    def ensemble_result(series, args, kwargs):
        tracer.counts["engine.divergent"] += int(series.n_divergent)
        tracer.counts["engine.trajectories"] += \
            int(series.n_trajectories) + int(series.n_divergent)
    tracer.patch("runners", "run_ensemble",
                 lambda fn: tracer.wrap("engine.run", fn, ensemble_result))

    for scheme in SCHEMES:
        def meanfield_nfev(sol, args, kwargs, scheme=scheme):
            tracer.counts[f"{scheme}.meanfield_nfev"] += int(sol.nfev)
        tracer.patch(scheme, "solve_ivp",
                     lambda fn, scheme=scheme, after=meanfield_nfev:
                     tracer.wrap(f"{scheme}.meanfield", fn, after))

    def liouvillian_dim(liouv, args, kwargs):
        tracer.counts[f"oracle.{liouv.basis.kind}.dim"] = int(liouv.dim)
    tracer.patch("oracle", "build_liouvillian",
                 lambda fn: tracer.wrap(lambda params, *a, **k:
                                        f"oracle.{params.scheme}.build",
                                        fn, liouvillian_dim))
    tracer.patch("oracle", "evolve_density_matrix",
                 lambda fn: tracer.wrap(lambda liouv, *a, **k:
                                        f"oracle.{liouv.basis.kind}.evolve", fn))

    def oracle_span(*args, **kwargs):
        # the propagation runs inside evolve_density_matrix of one scheme
        return (tracer.current() or "oracle.unknown.evolve") \
            .replace(".evolve", ".propagate")

    def rhs_evals(sol, args, kwargs):
        span = oracle_span()
        tracer.counts[span.replace(".propagate", ".rhs_evals")] += int(sol.nfev)
    tracer.patch("oracle", "solve_ivp",
                 lambda fn: tracer.wrap(oracle_span, fn, rhs_evals))

    for attr in ("emission_strength", "emission_uncertainty"):
        tracer.patch("analysis", attr,
                     lambda fn: tracer.wrap("analysis.emission", fn))
    tracer.patch("analysis", "power_law_fit",
                 lambda fn: tracer.wrap("analysis.fit", fn))
    tracer.patch("cli", "scaling_sweep",
                 lambda fn: tracer.wrap("analysis.sweep", fn))
    for module in ("cli", "analysis"):
        tracer.patch(module, "validate_params",
                     lambda fn: tracer.wrap("params.validate", fn))

    def bytes_written(path, args, kwargs):
        tracer.counts["fileio.bytes_written"] += os.path.getsize(path)
    for attr in ("write_timeseries", "write_report", "write_manifest"):
        tracer.patch("cli", attr,
                     lambda fn: tracer.wrap("fileio.write", fn, bytes_written))


# metric name -> wrapped targets it depends on
def _depends():
    model = {scheme: [f"runners.{factory}", f"{scheme}.EnsembleModel"]
             for scheme, factory in (("collective", "collective_twa_model"),
                                     ("individual", "individual_dtwa_model"))}
    stream = ["engine.chunk_stream"]
    ensemble = ["runners.run_ensemble"]
    meanfield = [f"{scheme}.solve_ivp" for scheme in SCHEMES]
    oracle = ["oracle.build_liouvillian", "oracle.evolve_density_matrix"]
    emission = ["analysis.emission_strength", "analysis.emission_uncertainty"]
    writes = ["cli.write_timeseries", "cli.write_report", "cli.write_manifest"]
    deps = {
        "wiener.draw_s": stream,
        "wiener.draws": stream,
        "engine.chunks": stream,
        "engine.busy_s": ensemble,
        "engine.divergent_frac": ensemble,
        "engine.traj_steps": model["collective"] + model["individual"],
        "analysis.emission_s": emission,
        "analysis.fit_s": ["analysis.power_law_fit"],
        "fileio.write_s": writes,
        "fileio.bytes_written": writes,
        "params.validate_s": ["cli.validate_params", "analysis.validate_params"],
        # a self time is a duration minus its child spans, so it needs them all
        "engine.self_s": ensemble + stream + model["collective"] + model["individual"],
        "analysis.sweep_self_s": ["cli.scaling_sweep", "analysis.validate_params",
                                  "analysis.power_law_fit"]
        + ensemble + meanfield + emission,
        "cli.self_s": ["cli.scaling_sweep", "cli.validate_params"]
        + ensemble + meanfield + oracle + writes,
    }
    for scheme in SCHEMES:
        for span in MODEL_SPANS.values():
            deps[f"{scheme}.{span}_s"] = model[scheme] + stream
        deps[f"{scheme}.kernel_calls"] = model[scheme]
        deps[f"{scheme}.meanfield_s"] = [f"{scheme}.solve_ivp"]
        deps[f"{scheme}.meanfield_nfev"] = [f"{scheme}.solve_ivp"]
        prefix = f"oracle.{scheme}"
        deps[f"{prefix}.build_s"] = ["oracle.build_liouvillian"]
        deps[f"{prefix}.dim"] = ["oracle.build_liouvillian"]
        for name in ("propagate_s", "rhs_evals", "contract_s"):
            deps[f"{prefix}.{name}"] = ["oracle.solve_ivp", "oracle.evolve_density_matrix"]
    return deps


DEPENDS = _depends()


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass; missing ones are left out.

    *_s are busy seconds.  The model spans ({scheme}.sample_s and so on) and
    engine.self_s (Euler update, recording, chunk reduction) are self times,
    so the draws they make count only in wiener.draw_s.  contract_s is the
    oracle's evolve_density_matrix minus its propagation: the observable
    contraction and the trace and saturation checks.  engine.traj_steps sums
    the rows of every drift call; wiener.draws counts the numbers drawn.
    """
    t, s, n, c = tracer.total, tracer.self_time, tracer.counts, tracer.calls
    trajectories = n["engine.trajectories"]
    values = {
        "wiener.draw_s": t["wiener.draw"],
        "wiener.draws": n["wiener.draws"],
        "engine.busy_s": t["engine.run"],
        "engine.self_s": s["engine.run"],
        "engine.traj_steps": n["engine.traj_steps"],
        "engine.chunks": n["engine.chunks"],
        "engine.divergent_frac": n["engine.divergent"] / trajectories if trajectories else 0.0,
        "analysis.emission_s": t["analysis.emission"],
        "analysis.fit_s": t["analysis.fit"],
        "analysis.sweep_self_s": s["analysis.sweep"],
        "fileio.write_s": t["fileio.write"],
        "fileio.bytes_written": n["fileio.bytes_written"],
        "params.validate_s": t["params.validate"],
        "cli.self_s": s["cli"],
    }
    for scheme in SCHEMES:
        for span in MODEL_SPANS.values():
            values[f"{scheme}.{span}_s"] = s[f"{scheme}.{span}"]
        values[f"{scheme}.kernel_calls"] = sum(
            c[f"{scheme}.{span}"] for span in MODEL_SPANS.values())
        values[f"{scheme}.meanfield_s"] = t[f"{scheme}.meanfield"]
        values[f"{scheme}.meanfield_nfev"] = n[f"{scheme}.meanfield_nfev"]
        prefix = f"oracle.{scheme}"
        values[f"{prefix}.build_s"] = t[f"{prefix}.build"]
        values[f"{prefix}.propagate_s"] = t[f"{prefix}.propagate"]
        values[f"{prefix}.contract_s"] = s[f"{prefix}.evolve"]
        values[f"{prefix}.rhs_evals"] = n[f"{prefix}.rhs_evals"]
        values[f"{prefix}.dim"] = n[f"{prefix}.dim"]
    return {name: value for name, value in values.items()
            if not tracer.missing.intersection(DEPENDS.get(name, ()))}
