"""Spans and counters around mcbounds layer functions, recorded in-process.

The benchmark's child launcher installs these wrappers in a traced run; the
package itself is not modified. Each listed function is replaced in every
module namespace that binds it (``cli`` and ``coupling.runner`` import
``finite_chain`` names directly), and ``scipy.integrate.quad`` is wrapped both
where ``kernels.verify`` bound it and on ``scipy.integrate`` itself, also when
that module is first imported later (a lazy import inside the call).

Spans are kept in memory as ``[name, start, end, parent]`` rows and written
out once per invocation; :func:`self_times` turns them into per-layer busy
time.
"""

from __future__ import annotations

import importlib.abc
import importlib.util
import sys
import time
from collections import Counter

# (module, function, span name); the span name is the per-layer metric name
SPANS = (
    ("mcbounds.cli", "build_parser", "cli.parse_s"),
    ("mcbounds.cli", "_emit", "cli.emit_s"),
    ("mcbounds.cli", "_dump_trajectories", "cli.trajectories_s"),
    ("mcbounds.finite_chain", "matrix_power", "finite_chain.matrix_power_s"),
    ("mcbounds.finite_chain", "evolve", "finite_chain.evolve_s"),
    ("mcbounds.finite_chain", "stationary", "finite_chain.stationary_s"),
    ("mcbounds.finite_chain", "minorization_uniform", "finite_chain.cert_search_s"),
    ("mcbounds.finite_chain", "minorization_pseudo", "finite_chain.cert_search_s"),
    ("mcbounds.finite_chain", "eigen_bound", "finite_chain.eigen_bound_s"),
    ("mcbounds.bounds", "steps_to_threshold", "bounds.s"),
    ("mcbounds.bounds", "minorization_curve", "bounds.s"),
    ("mcbounds.bounds", "optimize_drift_minorization", "bounds.s"),
    ("mcbounds.coupling.runner", "_finite_arrays", "coupling.runner.tables_s"),
    ("mcbounds.coupling.runner", "replication_seeds", "coupling.runner.seeds_s"),
    ("mcbounds.coupling.runner", "_summarize", "coupling.runner.summarize_s"),
    ("mcbounds.coupling.engines", "finite_coupling_paths", "coupling.engines.finite_s"),
    ("mcbounds.coupling.engines", "halfline_coupling_paths", "coupling.engines.halfline_s"),
    ("mcbounds.coupling.engines", "rwm_coupling_paths", "coupling.engines.rwm_s"),
    ("mcbounds.kernels.verify", "verify_univariate_drift", "kernels.verify.s"),
    ("mcbounds.kernels.verify", "verify_minorization_numeric", "kernels.verify.s"),
    ("mcbounds.kernels.verify", "containment_escape_mass", "kernels.verify.s"),
)
QUAD_SPAN = "kernels.verify.quad_s"
ENGINE_SPANS = ("coupling.engines.finite_s", "coupling.engines.halfline_s",
                "coupling.engines.rwm_s")

# residual rejection samplers: (sampler, proposal function, calls per proposal)
RESIDUAL_SAMPLERS = (
    ("hl_resid_draw", "hl_draw", 1),
    ("rwm_resid2_draw", "rwm_step", 2),
)


class Recorder:
    """In-memory spans plus deterministic counters for one invocation."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.worst_quad_err = 0.0
        self.unbound: list[str] = []
        self._stack = [-1]

    def span(self, name, fn, on_return=None):
        """``fn`` wrapped so that each call records a span called ``name``."""

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            row = [name, 0.0, 0.0, self._stack[-1]]
            self.spans.append(row)
            self._stack.append(index)
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def to_jsonable(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "worst_quad_err": self.worst_quad_err,
            "unbound": self.unbound,
        }


def rebind(original, replacement, modules) -> None:
    """Replace every module attribute that is ``original``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mcbounds" or name.startswith("mcbounds."))]


def _engine_hook(recorder: Recorder):
    def on_return(result):
        # xs and xps come first in every engine's return tuple
        recorder.counts["coupling.engines.array_bytes"] += sum(
            getattr(a, "nbytes", 0) for a in result[:2]
        )
    return on_return


def _quad_hook(recorder: Recorder):
    def on_return(result):
        recorder.worst_quad_err = max(recorder.worst_quad_err, float(result[1]))
    return on_return


def _counting_sampler(recorder: Recorder, module, sampler: str, proposal: str):
    """Count draws returned and proposal calls made inside one sampler."""
    original = getattr(module, sampler)
    inner = getattr(module, proposal)
    key = f"kernels.scalars.{sampler}"

    def counted_proposal(*args):
        recorder.counts[key + ".proposal_calls"] += 1
        return inner(*args)

    def wrapper(*args):
        # the sampler looks its proposal up in the module globals at call time
        setattr(module, proposal, counted_proposal)
        try:
            result = original(*args)
        finally:
            setattr(module, proposal, inner)
        recorder.counts[key + ".draws"] += 1
        return result

    return original, wrapper


class _AfterImport(importlib.abc.MetaPathFinder):
    """Runs ``callback(module)`` right after ``name`` is first imported."""

    def __init__(self, name: str, callback):
        self.name = name
        self.callback = callback

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        callback = self.callback

        def exec_then_wrap(module):
            exec_module(module)
            callback(module)

        spec.loader.exec_module = exec_then_wrap
        return spec


def call_after_import(name: str, callback) -> None:
    """``callback(module)`` now if ``name`` is imported, else right after it is."""
    if name in sys.modules:
        callback(sys.modules[name])
    else:
        sys.meta_path.insert(0, _AfterImport(name, callback))


def install(recorder: Recorder) -> None:
    """Wrap every listed layer function of the already imported package."""
    modules = _package_modules()
    for module_name, attr, name in SPANS:
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            recorder.unbound.append(f"{module_name}.{attr}")
            continue
        hook = _engine_hook(recorder) if name in ENGINE_SPANS else None
        rebind(original, recorder.span(name, original, hook), modules)

    scalars = sys.modules.get("mcbounds.kernels.scalars")
    for sampler, proposal, _ in RESIDUAL_SAMPLERS:
        if scalars is None or not hasattr(scalars, sampler) or not hasattr(scalars, proposal):
            recorder.unbound.append(f"mcbounds.kernels.scalars.{sampler}")
            continue
        original, wrapper = _counting_sampler(recorder, scalars, sampler, proposal)
        rebind(original, wrapper, modules)

    def wrap_quad(integrate_module):
        original = getattr(integrate_module, "quad", None)
        if original is None:
            recorder.unbound.append("scipy.integrate.quad")
            return
        wrapper = recorder.span(QUAD_SPAN, original, _quad_hook(recorder))
        rebind(original, wrapper, _package_modules() + [integrate_module])

    call_after_import("scipy.integrate", wrap_quad)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(kids)
        for (_, start, end, _), kids in zip(spans, children)
    ]
