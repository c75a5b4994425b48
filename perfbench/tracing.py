"""Spans around calls into lpiforms, recorded from outside the library.

`install(recorder)` replaces each wrapped function wherever lpiforms binds
it: in its defining module, in the package namespace, and in every lpiforms
module that imported it by name (so `derham.whitney` called inside
`verify_split` is seen too).  It returns a function that puts the originals
back.  Spans stay in memory until the run ends.  Their times are read from
refclock, in reference seconds.

Per-term helpers (`t_add`, `t_eval`, `t_clean`, `t_wedge`, `t_subst`) are
not wrapped: their call counts would swamp the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys

from refclock import now as clock

# span group -> the functions it covers, as (module, name or Class.method)
GROUPS: dict[str, tuple[tuple[str, str], ...]] = {
    "complexes.build": (("complexes", "build_complex"), ("complexes", "ray_complex"),
                        ("complexes", "barycentric_subdivide")),
    "cochains.coboundary": (("cochains", "coboundary"),),
    "cochains.norm": (("cochains", "lp_norm"), ("cochains", "pi_norm")),
    "derham.whitney": (("derham", "whitney"),),
    "derham.derham_map": (("derham", "derham_map"),),
    "derham.verify_split": (("derham", "verify_split"),),
    "derham.verify_stokes": (("derham", "verify_stokes"),),
    "polyform.lp_norm": (("polyform", "PolyForm.lp_norm"),),
    "polyform.calculus": (("polyform", "PolyForm.d"), ("polyform", "PolyForm.wedge"),
                          ("polyform", "t_d")),
    "polyform.prism_extend": (("polyform", "prism_extend"),),
    "contract.assemble": (("contract", "assemble"),),
    "contract.contract": (("contract", "contract"), ("contract", "verify_contraction")),
    "contract.cohomology": (("contract", "cohomology_dims"),
                            ("contract", "rational_cohomology_dims")),
    "mollify.regularize": (("mollify", "regularize"),),
    "mollify.cone_S": (("mollify", "cone_S"),),
    "mollify.grid_d": (("mollify", "grid_d"),),
    "mollify.support_control": (("mollify", "verify_support_control"),),
    "nontrivial.build_family": (("nontrivial", "build_family"),),
    "nontrivial.kernel_check": (("nontrivial", "derham_kernel_check"),),
    "nontrivial.subdivision_image": (("nontrivial", "subdivision_image"),),
    "nontrivial.series": (("nontrivial", "p_series"), ("nontrivial", "family_norm_series"),
                          ("nontrivial", "swapped_series")),
    "cli.main": (("cli", "main"),),
}

# slope metric -> span group whose calls carry the complex size
SLOPES = {
    "derham.whitney_slope": "derham.whitney",
    "derham.derham_map_slope": "derham.derham_map",
    "polyform.lp_norm_slope": "polyform.lp_norm",
}


def _size_of_first(args):
    return args[0].complex.simplex_count()


def _size_derham_map(args):
    return args[1].simplex_count()


SIZES = {
    ("derham", "whitney"): _size_of_first,
    ("derham", "derham_map"): _size_derham_map,
    ("polyform", "PolyForm.lp_norm"): _size_of_first,
}


# Counters, taken after the call returns and outside its span.
def _count_build(rec, args, result):
    rec.add("complexes.simplices", result.simplex_count())


def _count_lp_norm(rec, args, result):
    rec.add("polyform.terms", sum(len(p) for p in args[0].pieces.values()))


def _count_rule(rec, args, result):
    rec.add("polyform.quad_points", len(result[0]))


def _count_regularize(rec, args, result):
    omega, cfg = args[0], args[1]
    if cfg.epsilon == 0.0:
        return
    nodes = int(omega.mask().sum())
    kernel = len(cfg.nodes) if cfg.n == omega.n else len(
        type(cfg)(cfg.epsilon, cfg.kernel_grid, n=omega.n).nodes)
    rec.add("mollify.grid_nodes", nodes)
    rec.add("mollify.kernel_nodes", kernel)
    rec.add("mollify.pullback_points", nodes * kernel)


def _count_series(rec, args, result):
    rec.add("nontrivial.series_terms", max(int(m) for m in args[1]))


COUNTERS = {
    ("complexes", "build_complex"): _count_build,
    ("polyform", "PolyForm.lp_norm"): _count_lp_norm,
    ("polyform", "simplex_rule"): _count_rule,
    ("mollify", "regularize"): _count_regularize,
    ("nontrivial", "p_series"): _count_series,
}

COUNT_NAMES = ("complexes.simplices", "polyform.terms", "polyform.quad_points",
               "mollify.grid_nodes", "mollify.kernel_nodes", "mollify.pullback_points",
               "nontrivial.series_terms")


class Recorder:
    """In-memory spans: [group, pass, start, end, parent index, outermost
    span of its group, complex size], plus per-pass counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.pass_id = -1  # -1 is setup
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    def add(self, name: str, value: int) -> None:
        key = (self.pass_id, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, fn, group, size_fn, count_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.spans)
            outer = self._depth.get(group, 0) == 0
            self.spans.append([group, self.pass_id, 0.0, 0.0,
                               self._stack[-1] if self._stack else -1, outer, 0])
            self._stack.append(i)
            self._depth[group] = self._depth.get(group, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self._depth[group] -= 1
                rec = self.spans[i]
                rec[2], rec[3] = t0, t1
                if size_fn is not None:
                    rec[6] = size_fn(args)
            if count_fn is not None:
                count_fn(self, args, result)
            return result
        return wrapper

    def counter(self, fn, count_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count_fn(self, args, result)
            return result
        return wrapper

    def pass_layers(self) -> dict[int, dict[str, float]]:
        """Per pass: `<group>_s` (busy time, nested calls of one group
        counted once) and `<group>_self_s` (minus time in child spans)."""
        covered = [0.0] * len(self.spans)
        for group, _p, t0, t1, parent, _o, _s in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[int, dict[str, float]] = {}
        for i, (group, p, t0, t1, _parent, outer, _s) in enumerate(self.spans):
            layer = out.setdefault(p, {})
            if outer:
                layer[f"{group}_s"] = layer.get(f"{group}_s", 0.0) + (t1 - t0)
            key = f"{group}_self_s"
            layer[key] = layer.get(key, 0.0) + (t1 - t0 - covered[i])
        return out

    def slope(self, group: str, passes: list[int]) -> float:
        """Least-squares slope of log(time) against log(simplex count), time
        summed per size over the outermost calls of one pass, median over
        passes; 0.0 when the calls saw fewer than two sizes."""
        per_size: dict[int, list[float]] = {}
        for p in passes:
            sums: dict[int, float] = {}
            for g, sp, t0, t1, _parent, outer, size in self.spans:
                if g == group and sp == p and outer and size > 0:
                    sums[size] = sums.get(size, 0.0) + (t1 - t0)
            for size, t in sums.items():
                per_size.setdefault(size, []).append(t)
        if len(per_size) < 2:
            return 0.0
        xs = [math.log(s) for s in per_size]
        ys = [math.log(statistics.median(t)) for t in per_size.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                / sum((x - mx) ** 2 for x in xs))

    def metrics(self, passes: list[int]) -> dict[str, float]:
        """Setup (pass -1) plus the median over the given traced passes."""
        layers = self.pass_layers()
        out = {}
        for group in GROUPS:
            for key in (f"{group}_s", f"{group}_self_s"):
                per_pass = [layers.get(p, {}).get(key, 0.0) for p in passes]
                out[key] = layers.get(-1, {}).get(key, 0.0) + statistics.median(per_pass)
        for name in COUNT_NAMES:
            per_pass = [self.counts.get((p, name), 0) for p in passes]
            out[name] = self.counts.get((-1, name), 0) + statistics.median(per_pass)
        for name, group in SLOPES.items():
            out[name] = self.slope(group, passes)
        return out


def install(rec: Recorder):
    """Wrap every function in GROUPS and COUNTERS; return the undo function."""
    undo = []
    lib = [mod for name, mod in list(sys.modules.items())
           if name == "lpiforms" or name.startswith("lpiforms.")]
    targets = {}
    for group, funcs in GROUPS.items():
        for ref in funcs:
            targets[ref] = (group, SIZES.get(ref), COUNTERS.get(ref))
    for ref, count_fn in COUNTERS.items():
        targets.setdefault(ref, (None, None, count_fn))
    for (modname, name), (group, size_fn, count_fn) in targets.items():
        mod = importlib.import_module(f"lpiforms.{modname}")
        if "." in name:
            cls_name, meth = name.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            places = [(cls, meth)]
        else:
            original = getattr(mod, name)
            places = [(m, attr) for m in lib for attr, val in list(vars(m).items())
                      if val is original]
        if group is None:
            wrapper = rec.counter(original, count_fn)
        else:
            wrapper = rec.span(original, group, size_fn, count_fn)
        for owner, attr in places:
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore
