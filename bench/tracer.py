"""Per-layer tracing from outside the package.

The layers are the ``toricmld`` modules.  ``Tracer.install`` wraps chosen
module-level functions, private ones included, and puts each wrapper in
every ``toricmld`` namespace that bound the original (``from .linalg
import rank`` binds ``rank`` in ``cones`` and ``structure`` too).  Each
call records a span (function, start, end, parent span, operation id)
in memory; ``write_spans`` saves them after the run.  A function a later
refactor removed is recorded as absent, and the metrics that depend only
on absent functions are reported as absent rather than failing.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# functions wrapped per module; the per-layer metrics below read their spans
WRAPPED = {
    "cli": ("main",),
    "germio": ("parse_germ",),
    "cones": (
        "make_cone", "_double_description", "_lp_max", "in_cone", "in_relint",
        "membership", "minimal_face_containing",
    ),
    "invariants": (
        "make_germ", "orbifold_lattice", "log_disc_functional", "_rebased",
        "_interior_points_upto", "_enumerate_polytope_points", "_fm_cascade",
        "mld", "count_window", "pi1_reg",
    ),
    "lab": ("check_instance", "scan", "sample_random", "family", "instances_from_spec"),
    "structure": ("decompose", "trichotomy", "blowup_report"),
    "linalg": (
        "rank", "det", "mat_inverse", "solve_rational", "express_in_basis",
        "hnf", "snf", "saturation_basis", "lattice_from_generators",
    ),
}

CACHED = ("invariants.orbifold_lattice", "invariants.log_disc_functional", "invariants._rebased")

ELIM = ("linalg.rank", "linalg.det", "linalg.mat_inverse", "linalg.solve_rational")
REBASE = ("linalg.express_in_basis",)
NORMAL_FORMS = ("linalg.hnf", "linalg.snf", "linalg.saturation_basis", "linalg.lattice_from_generators")


def _system_rows(systems):
    return sum(len(s) for s in systems if s)


# a number recorded per span from the return value
MEASURES = {
    "invariants._enumerate_polytope_points": len,
    "invariants._interior_points_upto": len,
    "invariants._fm_cascade": _system_rows,
    "cones.in_relint": bool,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, measure]
        self.stack = []
        self.op_id = -1
        self.originals = {}  # wrapped name -> original; names missing here are absent

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        measure = MEASURES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                try:
                    span[5] = int(measure(result))
                except (TypeError, ValueError):
                    pass
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "toricmld" or n.startswith("toricmld.")]
        for mod_name, names in WRAPPED.items():
            mod = sys.modules.get(f"toricmld.{mod_name}")
            for fn_name in names:
                name = f"{mod_name}.{fn_name}"
                orig = getattr(mod, fn_name, None) if mod is not None else None
                if not callable(orig):
                    continue
                self.originals[name] = orig
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, value in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, value]) + "\n")

    def cache_totals(self):
        """Summed ``cache_info()`` of the package's memoised functions."""
        infos = [self.originals[n].cache_info() for n in CACHED
                 if hasattr(self.originals.get(n), "cache_info")]
        if not infos:
            return None
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def metrics(self):
        """Per-layer metrics: {name: value or None when absent}."""
        spans = self.spans
        calls, incl, self_t, measured, true_calls = {}, {}, {}, {}, {}
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        module_self = {}
        for i, (name, start, end, parent, _, value) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur
            own = dur - child_time[i]
            self_t[name] = self_t.get(name, 0.0) + own
            module = name.split(".")[0]
            module_self[module] = module_self.get(module, 0.0) + own
            if value is not None:
                measured[name] = measured.get(name, 0) + value
                true_calls[name] = true_calls.get(name, 0) + (value > 0)

        def outer_time(group):
            """Time inside the group's outermost spans (nested ones not twice)."""
            total = 0.0
            for name, start, end, parent, _, _ in spans:
                if name not in group:
                    continue
                p = parent
                while p >= 0 and spans[p][0] not in group:
                    p = spans[p][3]
                if p < 0:
                    total += end - start
            return total

        def count(*names):
            return sum(calls.get(n, 0) for n in names)

        def ratio(a, b):
            return a / b if b else 0.0

        walk_s = incl.get("invariants._enumerate_polytope_points", 0.0) - sum(
            end - start
            for name, start, end, parent, _, _ in spans
            if name == "invariants._fm_cascade"
            and parent >= 0
            and spans[parent][0] == "invariants._enumerate_polytope_points"
        )
        visited = measured.get("invariants._enumerate_polytope_points", 0)
        kept = measured.get("invariants._interior_points_upto", 0)
        sampler_cones = sum(
            1
            for name, _, _, parent, _, _ in spans
            if name == "cones.make_cone" and parent >= 0 and spans[parent][0] == "lab.sample_random"
        )
        cache = self.cache_totals()
        hits, misses = cache if cache else (0, 0)
        relint = calls.get("cones.in_relint", 0)

        values = {
            "cones.make_cone.calls": count("cones.make_cone"),
            "cones.make_cone.self_s": self_t.get("cones.make_cone", 0.0),
            "cones.dd.calls": count("cones._double_description"),
            "cones.dd.s": incl.get("cones._double_description", 0.0),
            "cones.lp.calls": count("cones._lp_max"),
            "cones.lp.s": incl.get("cones._lp_max", 0.0),
            "cones.in_cone.calls": count("cones.in_cone"),
            "cones.membership.calls": count("cones.membership"),
            "invariants.mld.calls": count("invariants.mld"),
            "invariants.count_window.calls": count("invariants.count_window"),
            "invariants.pi1_reg.calls": count("invariants.pi1_reg"),
            "invariants.self_s": module_self.get("invariants", 0.0),
            "invariants.enumerations": count("invariants._enumerate_polytope_points"),
            "invariants.fm.s": incl.get("invariants._fm_cascade", 0.0),
            "invariants.fm.rows": measured.get("invariants._fm_cascade", 0),
            "invariants.walk.s": walk_s,
            "invariants.walk.visited": visited,
            "invariants.walk.kept": kept,
            "invariants.walk.yield": ratio(kept, visited),
            "invariants.cache.hits": hits,
            "invariants.cache.misses": misses,
            "invariants.cache.hit_ratio": ratio(hits, hits + misses),
            "lab.check_instance.calls": count("lab.check_instance"),
            "lab.check_instance.self_s": self_t.get("lab.check_instance", 0.0),
            "lab.scan.self_s": self_t.get("lab.scan", 0.0),
            "lab.sample_random.calls": count("lab.sample_random"),
            "lab.sample_random.self_s": self_t.get("lab.sample_random", 0.0),
            "lab.sample_random.cones_per_germ": ratio(sampler_cones, count("lab.sample_random")),
            "structure.decompose.calls": count("structure.decompose"),
            "structure.trichotomy.calls": count("structure.trichotomy"),
            "structure.blowup_report.calls": count("structure.blowup_report"),
            "structure.self_s": module_self.get("structure", 0.0),
            "structure.relint.tests": relint,
            "structure.relint.yield": ratio(true_calls.get("cones.in_relint", 0), relint),
            "linalg.elim.calls": count(*ELIM),
            "linalg.elim.s": outer_time(ELIM),
            "linalg.rebase.calls": count(*REBASE),
            "linalg.rebase.s": outer_time(REBASE),
            "linalg.nf.calls": count(*NORMAL_FORMS),
            "linalg.nf.s": outer_time(NORMAL_FORMS),
            "germio.parse_germ.calls": count("germio.parse_germ"),
            "germio.parse_germ.self_s": self_t.get("germio.parse_germ", 0.0),
            "cli.calls": count("cli.main"),
            "cli.self_s": self_t.get("cli.main", 0.0),
        }
        for name in values:
            if not any(src in self.originals for src in metric_sources(name)):
                values[name] = None
        if cache is None:
            for name in ("invariants.cache.hits", "invariants.cache.misses", "invariants.cache.hit_ratio"):
                values[name] = None
        return values


def metric_sources(metric: str):
    """The wrapped functions a per-layer metric is computed from."""
    special = {
        "cones.dd": ("cones._double_description",),
        "cones.lp": ("cones._lp_max",),
        "invariants.self_s": tuple(f"invariants.{n}" for n in WRAPPED["invariants"]),
        "invariants.enumerations": ("invariants._enumerate_polytope_points",),
        "invariants.fm": ("invariants._fm_cascade",),
        "invariants.walk": ("invariants._enumerate_polytope_points", "invariants._interior_points_upto"),
        "invariants.cache": CACHED,
        "structure.self_s": tuple(f"structure.{n}" for n in WRAPPED["structure"]),
        "structure.relint": ("cones.in_relint",),
        "linalg.elim": ELIM,
        "linalg.rebase": REBASE,
        "linalg.nf": NORMAL_FORMS,
        "cli": ("cli.main",),
    }
    for prefix, sources in special.items():
        if metric == prefix or metric.startswith(prefix + "."):
            return sources
    return (metric.rsplit(".", 1)[0],)
