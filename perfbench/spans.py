"""Layer tracing for the per-layer run, installed from outside the package.

The tracer wraps public functions and methods of aufhebung's modules at
every name they are looked up by (a function imported by name into
another module is replaced there too), keeps a span stack to compute
self time (a span's duration minus the time of the spans it caused), and
counts work at the same boundaries.  Spans stay in memory and are written
out when the run ends.  The three hottest functions are aggregated only,
without a span record each, to keep memory flat.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute): module-level functions
FUNCTIONS = [
    ("shapes.compose", "shapes", "compose"),
    ("shapes.epi_mono_factor", "shapes", "epi_mono_factor"),
    ("kernels.scan_spheres", "_kernels", "scan_spheres"),
    ("kernels.sample_spheres", "_kernels", "sample_spheres"),
    ("fillers.coskeletal_up_to", "fillers", "coskeletal_up_to"),
    ("fillers.brute_force_fill", "fillers", "brute_force_fill"),
    ("fillers.constructive_filler", "fillers", "constructive_filler"),
    ("bounds.certify", "bounds", "certify"),
    ("bounds.random_skeletal_complex", "bounds", "random_skeletal_complex"),
    ("bounds.underlying_simplicial", "bounds", "underlying_simplicial"),
    ("fileio.parse_complex", "fileio", "parse_complex"),
    ("fileio.serialize_complex", "fileio", "serialize_complex"),
    ("cli.main", "cli", "main"),
]
# (metric prefix, module, class, attribute): methods; build is a classmethod
METHODS = [
    ("complexes.act", "complexes", "SkeletalComplex", "act"),
    ("complexes.validate", "complexes", "SkeletalComplex", "validate"),
    ("complexes.tabulate", "complexes", "TabulatedPresheaf", "build"),
]
MORPHISM_CLASSES = ["SimplexMorphism", "CubeMorphism", "GlobeMorphism",
                    "CyclicMorphism"]
AGGREGATE_ONLY = {"shapes.compose", "shapes.epi_mono_factor", "complexes.act"}

# per-layer metric name -> unit, in the order they are reported
UNITS = {
    "shapes.compose.calls": "count/op",
    "shapes.compose.self_s": "s/op",
    "shapes.epi_mono_factor.calls": "count/op",
    "shapes.epi_mono_factor.self_s": "s/op",
    "shapes.morphisms_built": "count/op",
    "complexes.act.calls": "count/op",
    "complexes.act.self_s": "s/op",
    "complexes.tabulate.calls": "count/op",
    "complexes.tabulate.self_s": "s/op",
    "complexes.cells_tabulated": "count/op",
    "complexes.validate.self_s": "s/op",
    "kernels.scan_spheres.calls": "count/op",
    "kernels.scan_spheres.self_s": "s/op",
    "kernels.spheres_enumerated": "count/op",
    "kernels.spheres_per_scan_s": "1/s",
    "kernels.scan_overflows": "count/op",
    "kernels.sample_spheres.calls": "count/op",
    "kernels.sample_spheres.self_s": "s/op",
    "fillers.coskeletal_up_to.calls": "count/op",
    "fillers.coskeletal_up_to.self_s": "s/op",
    "fillers.levels_checked": "count/op",
    "fillers.brute_force_fill.calls": "count/op",
    "fillers.brute_force_fill.self_s": "s/op",
    "fillers.constructive_filler.calls": "count/op",
    "fillers.constructive_filler.self_s": "s/op",
    "bounds.certify.calls": "count/op",
    "bounds.certify.self_s": "s/op",
    "bounds.tabulations_per_certify": "count",
    "bounds.random_skeletal_complex.self_s": "s/op",
    "bounds.underlying_simplicial.self_s": "s/op",
    "fileio.parse_complex.self_s": "s/op",
    "fileio.serialize_complex.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "cli.import_ms": "ms",
}


class Tracer:
    """Span stack, per-span aggregates and counters for one run.

    ``on`` gates recording, so the benchmark's own checks, which call
    into the program, stay out of the numbers.  ``op`` is the identifier
    the spans of one operation share.
    """

    def __init__(self) -> None:
        self.on = False
        self.op = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)
        self.stack: list[list] = []   # [time of child spans, nearest recorded span id]
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self
        record = name not in AGGREGATE_ONLY
        stack, active = self.stack, self.active

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            sid = parent
            if record:
                sid = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                tracer.calls[name] += 1
                tracer.self_s[name] += (t1 - t0) - frame[0]
                if stack:
                    stack[-1][0] += t1 - t0
                if record:
                    tracer.spans.append((sid, parent, tracer.op, name, t0, t1))
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every aufhebung module currently imported."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "aufhebung" or key.startswith("aufhebung.")]
        mod = {m.__name__.rpartition(".")[2]: m for m in modules}
        hooks = {
            "kernels.scan_spheres": self._after_scan,
            "fillers.coskeletal_up_to": self._after_report,
            "complexes.tabulate": self._after_tabulate,
        }
        for name, module, attr in FUNCTIONS:
            orig = getattr(mod[module], attr)
            traced = self._wrap(name, orig, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, traced)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(mod[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, hooks.get(name)))
            else:
                new = self._wrap(name, raw, hooks.get(name))
            self._set(cls, attr, new)
        for cls_name in MORPHISM_CLASSES:
            cls = getattr(mod["shapes"], cls_name)
            self._set(cls, "__init__", self._counting_init(cls.__init__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _counting_init(self, init):
        tracer = self

        def counted(obj, *args, **kwargs):
            if tracer.on:
                tracer.counts["morphisms_built"] += 1
            init(obj, *args, **kwargs)

        return counted

    def _after_scan(self, scan) -> None:
        self.counts["spheres_enumerated"] += scan.n_spheres
        self.counts["scan_overflows"] += int(scan.overflow)

    def _after_report(self, report) -> None:
        self.counts["levels_checked"] += len(report.levels)

    def _after_tabulate(self, tab) -> None:
        self.counts["cells_tabulated"] += sum(len(layer) for layer in tab.cells)
        if self.active["bounds.certify"]:
            self.counts["tabulations_in_certify"] += 1

    # -- results -------------------------------------------------------------------

    def metrics(self, n_ops: int, import_ms: float) -> dict[str, float]:
        """Per-layer metrics, as averages per attempted operation."""
        out: dict[str, float] = {}
        for metric in UNITS:
            layer, _, what = metric.rpartition(".")
            if what == "calls":
                out[metric] = self.calls[layer] / n_ops
            elif what == "self_s":
                out[metric] = self.self_s[layer] / n_ops
        c = self.counts
        out["shapes.morphisms_built"] = c["morphisms_built"] / n_ops
        out["complexes.cells_tabulated"] = c["cells_tabulated"] / n_ops
        out["kernels.spheres_enumerated"] = c["spheres_enumerated"] / n_ops
        scan_s = self.self_s["kernels.scan_spheres"]
        out["kernels.spheres_per_scan_s"] = (c["spheres_enumerated"] / scan_s
                                             if scan_s else 0.0)
        out["kernels.scan_overflows"] = c["scan_overflows"] / n_ops
        out["fillers.levels_checked"] = c["levels_checked"] / n_ops
        certs = self.calls["bounds.certify"]
        out["bounds.tabulations_per_certify"] = (c["tabulations_in_certify"] / certs
                                                 if certs else 0.0)
        out["cli.import_ms"] = import_ms
        return {metric: out[metric] for metric in UNITS}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start_s", "end_s"],
                       "spans": self.spans}, fh)
