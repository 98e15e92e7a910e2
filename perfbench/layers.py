"""Per-layer instrumentation, installed from outside the program.

The layers are qci's modules.  ``Recorder("trace")`` wraps the public
functions listed in LAYERS and records a span (SPAN_FIELDS) for every
call, kept in memory and written when the pass ends.  Each wrapper
replaces the name in every qci module that binds the function, so calls
through ``from .x import f`` are caught too.

``Recorder("count")`` runs in a separate pass and counts what would
distort a timed pass: quandle operations inside the coloring search, and
the matrix shapes and integer bit-lengths that cross the modlinalg
boundary (xgcd included, since the HNF pivots pass through it).

``summarize`` and ``summarize_counts`` turn one pass's record into the
per-layer metrics.
"""

import json
import sys
import time

LAYERS = {
    "qci.cli": ["main"],
    "qci.algebra": ["Quandle.from_json"],
    "qci.diagram": ["parse_diagram", "crossing_geometry", "compute_indices",
                    "checkerboard"],
    "qci.coloring": ["enumerate_colorings", "propagate_shadow",
                     "component_orbits"],
    "qci.invariants": ["validate_cocycle", "weight_classical",
                       "weight_shadow", "weight_positive", "weight_twisted",
                       "weight_shadow_twisted", "weight_link_twisted",
                       "invariant_multiset", "orbit_refined_multisets"],
    "qci.cohomology": ["cohomology_basis", "link_twisted_cocycle_basis",
                       "differential", "is_cocycle",
                       "is_link_twisted_cocycle"],
    "qci.modlinalg": ["kernel_mod", "kernel_int", "howell", "howell_member",
                      "hnf", "solve_in_hnf", "snf_diagonal",
                      "quotient_invariant_factors", "quotient_over_int"],
}

SPAN_FIELDS = ("name", "command", "parent", "start", "end", "tag")
FLAVORS = ("classical", "shadow", "positive", "twisted", "shadow_twisted",
           "link_twisted")
GEOMETRY = {"crossing_geometry", "compute_indices", "checkerboard"}
WEIGHTS = {f"weight_{f}" for f in FLAVORS}
MULTISETS = {"invariant_multiset", "orbit_refined_multisets"}
CHECKS = {"is_cocycle", "is_link_twisted_cocycle"}


def _flavor_tag(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs.get("flavor")


def _count_tag(args, kwargs, result):
    return len(result)


TAGGERS = {"invariant_multiset": _flavor_tag,
           "orbit_refined_multisets": _flavor_tag,
           "enumerate_colorings": _count_tag}


def _max_bits(obj, rows_cols):
    """Largest integer bit-length in nested lists/tuples; records the
    shape of every list of rows on the way."""
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, (list, tuple)):
        if obj and all(isinstance(r, (list, tuple)) for r in obj):
            rows_cols.append((len(obj), max(len(r) for r in obj)))
        return max((_max_bits(x, rows_cols) for x in obj), default=0)
    return 0


class Recorder:
    def __init__(self, mode):
        self.mode = mode
        self.command = -1
        self.spans = {k: [] for k in SPAN_FIELDS}
        self.stack = []
        self.counts = {}
        self.in_search = 0
        self.patched = []

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "qci" or name.startswith("qci.")]
        for modname, names in LAYERS.items():
            for name in names:
                self._patch(sys.modules[modname], name, modules)
        if self.mode == "count":
            self._patch(sys.modules["qci.modlinalg"], "xgcd", modules)
            quandle = sys.modules["qci.algebra"].Quandle
            for name in ("apply", "unapply"):
                self._patch_op(quandle, name)

    def uninstall(self):
        for owner, name, orig in reversed(self.patched):
            setattr(owner, name, orig)
        self.patched = []

    def _patch(self, module, name, modules):
        if "." in name:
            cls_name, meth = name.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            wrapped = classmethod(self._wrap(name, orig.__func__))
            self.patched.append((cls, meth, orig))
            setattr(cls, meth, wrapped)
            return
        orig = getattr(module, name)
        wrapped = self._wrap(name, orig)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    self.patched.append((m, attr, orig))
                    setattr(m, attr, wrapped)

    def _patch_op(self, cls, name):
        orig = cls.__dict__[name]
        rec = self

        def counted(q, a, b):
            if rec.in_search:
                rec._count("quandle_ops", 1)
            return orig(q, a, b)

        self.patched.append((cls, name, orig))
        setattr(cls, name, counted)

    def _count(self, key, value, combine=int.__add__):
        per = self.counts.setdefault(self.command, {})
        per[key] = combine(per.get(key, 0), value)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn):
        if self.mode == "trace":
            return self._span_wrapper(name, fn)
        if name == "enumerate_colorings":
            return self._search_counter(fn)
        if name in LAYERS["qci.modlinalg"] or name == "xgcd":
            return self._size_counter(fn)
        return fn

    def _span_wrapper(self, name, fn):
        # one flat list per field: no object per span for the garbage
        # collector to walk while the pass runs
        sp, stack, clock = self.spans, self.stack, time.perf_counter
        names, cmds, parents, starts, ends, tags = (
            sp["name"], sp["command"], sp["parent"], sp["start"], sp["end"],
            sp["tag"])
        tagger = TAGGERS.get(name)
        rec = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            cmds.append(rec.command)
            parents.append(stack[-1] if stack else -1)
            tags.append(None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tagger is not None:
                tags[idx] = tagger(args, kwargs, result)
            return result

        return wrapper

    def _search_counter(self, fn):
        rec = self

        def wrapper(*args, **kwargs):
            rec.in_search += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.in_search -= 1
            rec._count("colorings", len(result))
            return result

        return wrapper

    def _size_counter(self, fn):
        rec = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            shapes = []
            bits = max(_max_bits(args, shapes), _max_bits(result, shapes))
            rec._count("max_bits", bits, max)
            for rows, cols in shapes:
                rec._count("max_rows", rows, max)
                rec._count("max_cols", cols, max)
            return result

        return wrapper

    def write(self, path):
        data = ({"spans": self.spans} if self.mode == "trace"
                else {"counts": {str(k): v for k, v in self.counts.items()}})
        with open(path, "w") as fh:
            json.dump(data, fh)


# -- metrics from a record -------------------------------------------------------

def summarize(spans, completed):
    """Per-layer metrics of one traced pass, over completed commands.

    Times are in seconds per pass.  Self time is a span's duration minus
    the time its child spans cover.
    """
    spans = list(zip(*(spans[k] for k in SPAN_FIELDS)))
    n = len(spans)
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * n
    under = [set() for _ in range(n)]  # names of all ancestors
    for i, s in enumerate(spans):
        p = s[2]
        if p >= 0:
            child[p] += dur[i]
            under[i] = under[p] | {spans[p][0]}
    m = {}

    def keep(i):
        return spans[i][1] in completed

    def total(names, self_time=False, outermost=False):
        return sum(dur[i] - (child[i] if self_time else 0.0)
                   for i in range(n) if keep(i) and spans[i][0] in names
                   and not (outermost and under[i] & names))

    def calls(names, outermost=False, cond=lambda i: True):
        return sum(1 for i in range(n) if keep(i) and spans[i][0] in names
                   and not (outermost and under[i] & names) and cond(i))

    m["cli.self_s"] = total({"main"}, self_time=True)
    m["cli.calls"] = calls({"main"})
    m["algebra.quandle_load_s"] = total({"Quandle.from_json"})
    m["algebra.quandle_load_calls"] = calls({"Quandle.from_json"})
    m["diagram.parse_s"] = total({"parse_diagram"})
    m["diagram.geometry_s"] = total(GEOMETRY, outermost=True)
    m["diagram.geometry_calls"] = calls(GEOMETRY)
    in_multiset = calls(GEOMETRY, cond=lambda i: bool(under[i] & MULTISETS))
    searched = sum(spans[i][5] for i in range(n) if keep(i)
                   and spans[i][0] == "enumerate_colorings"
                   and under[i] & MULTISETS)
    m["diagram.geometry_calls_per_coloring"] = (
        in_multiset / searched if searched else 0.0)
    m["coloring.search_s"] = total({"enumerate_colorings"}, outermost=True)
    m["coloring.colorings"] = sum(
        spans[i][5] for i in range(n) if keep(i)
        and spans[i][0] == "enumerate_colorings"
        and "enumerate_colorings" not in under[i])
    m["coloring.shadow_s"] = total({"propagate_shadow"})
    m["coloring.shadow_calls"] = calls({"propagate_shadow"})
    m["coloring.orbits_s"] = total({"component_orbits"})
    m["invariants.gate_s"] = total({"validate_cocycle"})
    m["invariants.gate_calls"] = calls({"validate_cocycle"})
    m["invariants.weigh_s"] = total(WEIGHTS, self_time=True)
    m["invariants.weigh_calls"] = calls(WEIGHTS, outermost=True)
    # weighing cost per coloring: an invariant_multiset call minus its
    # search and its gate, divided by the colorings it weighed
    cost = {f: 0.0 for f in FLAVORS}
    count = {f: 0 for f in FLAVORS}
    for i in range(n):
        if keep(i) and spans[i][0] == "invariant_multiset":
            cost[spans[i][5]] += dur[i]
    for i in range(n):
        p = spans[i][2]
        if keep(i) and p >= 0 and spans[p][0] == "invariant_multiset":
            if spans[i][0] in ("enumerate_colorings", "validate_cocycle"):
                cost[spans[p][5]] -= dur[i]
            if spans[i][0] == "enumerate_colorings":
                count[spans[p][5]] += spans[i][5]
    for f in FLAVORS:
        m[f"invariants.weigh_us_per_coloring.{f}"] = (
            cost[f] / count[f] * 1e6 if count[f] else 0.0)
    m["invariants.multiset_s"] = total(MULTISETS, self_time=True)
    m["cohomology.basis_s"] = total(
        {"cohomology_basis", "link_twisted_cocycle_basis"}, self_time=True)
    m["cohomology.differential_calls"] = calls({"differential"})
    m["cohomology.cocycle_check_s"] = total(CHECKS, outermost=True)
    m["modlinalg.kernel_s"] = total({"kernel_mod", "kernel_int"},
                                    self_time=True)
    m["modlinalg.howell_s"] = total({"howell", "howell_member"},
                                    self_time=True)
    m["modlinalg.quotient_s"] = total(
        {"quotient_invariant_factors", "quotient_over_int"}, self_time=True)
    m["modlinalg.hnf_s"] = total({"hnf", "solve_in_hnf"}, self_time=True)
    m["modlinalg.snf_s"] = total({"snf_diagonal"}, self_time=True)
    return m


def summarize_counts(counts, completed):
    """Per-layer counters of one counting pass, over completed commands."""
    per = [v for k, v in counts.items() if int(k) in completed]
    ops = sum(c.get("quandle_ops", 0) for c in per)
    found = sum(c.get("colorings", 0) for c in per)
    return {
        "coloring.quandle_ops_per_coloring": ops / found if found else 0.0,
        "modlinalg.max_rows": max((c.get("max_rows", 0) for c in per),
                                  default=0),
        "modlinalg.max_cols": max((c.get("max_cols", 0) for c in per),
                                  default=0),
        "modlinalg.max_bits": max((c.get("max_bits", 0) for c in per),
                                  default=0),
    }
