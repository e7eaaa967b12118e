"""Out-of-process-safe tracing of margbounds by wrapping its functions.

`Tracer.patch(margbounds)` replaces every public function, and every public
method of every public class, defined in a margbounds module with a wrapper
that records a span (name, parent, start, end) and counts the call.  Names
that other modules bound with ``from .x import y`` (``average.marginal_at``,
``bounds.orthonormal_complement`` ...) are found by identity and patched as
well, so those calls are counted too.  `restore()` puts every original back.

Spans stay in memory and are written by `write()` at the end.  A layer is
the module that defines the function; a layer's self time is the sum over
its spans of the span's duration minus the union of its children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter

ROOT = "bench.round"


def layer_of(module_name: str) -> str:
    """margbounds.kernels._pure -> kernels; margbounds.cli -> cli."""
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def self_time(start: int, end: int, children: list) -> int:
    """end - start minus the length of the union of child intervals in it."""
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


def _targets(package) -> dict:
    """{(owner, attribute): original} for everything the tracer wraps.

    Owners are margbounds modules (for functions, including names imported
    from sibling modules) and public classes (for their methods).
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package.__name__
                                     or name.startswith(package.__name__ + "."))]
    functions = {}
    classes = []
    for mod in modules:
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                classes.append(obj)
            elif callable(obj):
                functions[id(obj)] = obj
    targets = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            if id(obj) in functions and functions[id(obj)] is obj:
                targets[(mod, name)] = obj
    for cls in classes:
        for name, obj in vars(cls).items():
            if name.startswith("_"):
                continue
            if isinstance(obj, (classmethod, staticmethod)) or inspect.isfunction(obj):
                targets[(cls, name)] = obj
    return targets


class Tracer:
    """Span stack, spans in memory and call/work counters for one process."""

    def __init__(self):
        self._originals = {}
        self.reset()

    def reset(self) -> None:
        self.spans = []  # [name, parent index, start ns, end ns]
        self.stack = []
        self.calls = Counter()
        self.errors = Counter()
        self.work = Counter()

    # -- patching ----------------------------------------------------------------

    def patch(self, package) -> None:
        wrapped = {}
        for (owner, name), obj in _targets(package).items():
            if isinstance(obj, (classmethod, staticmethod)):
                fn = obj.__func__
                key = f"{layer_of(fn.__module__)}.{fn.__qualname__}"
                new = type(obj)(self._wrap(fn, key))
            else:
                if id(obj) not in wrapped:
                    qual = getattr(obj, "__qualname__", name)
                    wrapped[id(obj)] = self._wrap(obj, f"{layer_of(obj.__module__)}.{qual}")
                new = wrapped[id(obj)]
            self._originals[(owner, name)] = obj
            setattr(owner, name, new)

    def restore(self) -> None:
        for (owner, name), obj in self._originals.items():
            setattr(owner, name, obj)
        self._originals = {}

    def _wrap(self, fn, key: str):
        layer = key.split(".", 1)[0]
        on_result = _RESULT_WORK.get(key)
        on_call = _CALL_WORK.get(key)
        signature = inspect.signature(fn) if on_call else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else -1
            outer = parent < 0 or not spans[parent][0].startswith(layer + ".")
            index = len(spans)
            spans.append([key, parent, time.perf_counter_ns(), 0])
            stack.append(index)
            tracer.calls[key] += 1
            if on_call is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_call(tracer.work, bound.arguments)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if outer:
                    tracer.errors[layer] += 1
                raise
            finally:
                spans[index][3] = time.perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(tracer.work, result, outer, stack, spans)
            return result

        return wrapper

    @contextlib.contextmanager
    def root_span(self):
        index = len(self.spans)
        self.spans.append([ROOT, -1, time.perf_counter_ns(), 0])
        self.stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = time.perf_counter_ns()
            self.stack.pop()

    # -- results -------------------------------------------------------------------

    def self_times(self) -> Counter:
        """Self seconds per layer (the root span counts as layer 'bench')."""
        children = [[] for _ in self.spans]
        for name, parent, lo, hi in self.spans:
            if parent >= 0:
                children[parent].append((lo, hi))
        out = Counter()
        for (name, _, lo, hi), kids in zip(self.spans, children):
            out[name.split(".", 1)[0]] += self_time(lo, hi, kids) / 1e9
        return out

    def layer_metrics(self) -> dict:
        calls, work = self.calls, self.work
        selfs = self.self_times()
        root = [s for s in self.spans if s[0] == ROOT]
        traced_wall = sum(hi - lo for _, _, lo, hi in root) / 1e9
        kernel_calls = sum(calls[f"kernels.{k}"] for k in _SLAB_KERNELS)
        grid_sups = calls["marginals.marginal_grid_sup"]
        out = {
            "kernels.polytope.calls": calls["kernels.polytope_volume"],
            "kernels.polygon.calls": calls["kernels.polygon_area"],
            "kernels.interval.calls": calls["kernels.interval_length"],
            "kernels.irwin_hall.calls": calls["kernels.irwin_hall_at"],
            "kernels.nonzero_frac": work["slab_nonzero"] / kernel_calls if kernel_calls else 0.0,
            "slabgeom.component_blocks.calls": calls["slabgeom.component_blocks"],
            "slabgeom.blocks": work["blocks"],
            "grassmann.complement.calls": calls["grassmann.orthonormal_complement"],
            "grassmann.haar_sample.calls": calls["grassmann.haar_sample"],
            "marginals.marginal_at.calls": calls["marginals.marginal_at"],
            "marginals.grid_sup.calls": grid_sups,
            "marginals.points_per_sup": work["grid_points"] / grid_sups if grid_sups else 0.0,
            "average.inner_values": work["inner_values"],
            "randomness.draws": work["draws"],
            "densities.samples": work["density_samples"],
            "quadrature.gk_panels.calls": calls["quadrature.gk_panels"],
            "quadrature.panels": work["panels"],
            "quadrature.tail.calls": calls["quadrature.sinc_product_tail"],
            "sections.exact.calls": calls["sections.hyperplane_section_exact"],
            "sections.sinc.calls": calls["sections.hyperplane_section_sinc"],
            "sections.clip.calls": calls["sections.section_quadrature"],
            "sections.mc.calls": calls["sections.section_mc"],
            "bounds.calls": sum(v for k, v in calls.items() if k.startswith("bounds.")),
        }
        for layer in ("slabgeom", "marginals", "sections"):
            out[f"{layer}.errors"] = self.errors[layer]
        # A layer the workload never enters has a self time of exactly 0 on
        # every run, so self times are reported as shares of the traced wall
        # time, next to the traced wall time itself.
        out["trace.wall_s"] = traced_wall
        for layer in LAYERS:
            out[f"{layer}.self_frac"] = selfs[layer] / traced_wall
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: [name, parent index, start ns, end ns]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


LAYERS = ("kernels", "slabgeom", "grassmann", "marginals", "average", "randomness",
           "densities", "quadrature", "sections", "bounds", "cli", "bench")
_SLAB_KERNELS = ("interval_length", "polygon_area", "polytope_volume")


def _slab_result(work, result, outer, stack, spans):
    if result != 0.0:
        work["slab_nonzero"] += 1


def _blocks_result(work, result, outer, stack, spans):
    work["blocks"] += len(result)


def _marginal_result(work, result, outer, stack, spans):
    if any(spans[i][0] == "marginals.marginal_grid_sup" for i in stack):
        work["grid_points"] += 1


def _draws_result(work, result, outer, stack, spans):
    if outer:
        work["draws"] += result.size


def _samples(name, factor=1):
    def count(work, arguments):
        work["inner_values"] += factor * arguments[name]
    return count


_RESULT_WORK = {
    **{f"kernels.{k}": _slab_result for k in _SLAB_KERNELS},
    "slabgeom.component_blocks": _blocks_result,
    "marginals.marginal_at": _marginal_result,
    "randomness.uniforms": _draws_result,
    "randomness.normals": _draws_result,
    "densities.ProductDensity.sample": lambda work, result, *_: work.update(
        density_samples=result.shape[0]),
}

# each Haar sample of an average gives one inner value (two for the paired
# comparison, one per side)
_CALL_WORK = {
    "average.prop_avg_check": _samples("samples", 2),
    "average.avg_marginal_power": _samples("subspace_samples"),
    "average.cube_avg_power": _samples("subspace_samples"),
    "average.dual_affine_quermass": _samples("samples"),
    "quadrature.gk_panels": lambda work, arguments: work.update(
        panels=len(arguments["edges"]) - 1),
}
