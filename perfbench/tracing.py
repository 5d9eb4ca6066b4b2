"""Span tracer for the benchmark's traced run.

The tracer wraps public callables of the maassforge modules from outside the
package: each listed function or method is replaced, at every module attribute
and class attribute that binds it, by a wrapper that records a span
``[name, start, end, parent, op, attr]``.  Spans stay in memory until the
process ends; ``summarize`` then turns them into per-layer metrics.

A span's layer is the first dotted part of its name (the module).  Its self
time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import fnmatch
import functools
import sys
import time
from collections import defaultdict

PACKAGE = "maassforge"

# (module, callables); a dotted entry is a method, "*" matches several names.
TRACED = (
    ("quadfield", ("QuadField.__init__", "QuadField.split_prime", "QuadField.enumerate_ideals")),
    ("classforms", ("ClassGroup.__init__", "ClassGroup.dlog")),
    ("heckechar", ("make_class_character", "check_gauss_norm_lemma", "gauss_sum_rational")),
    ("special", ("incomplete_k_mellin", "bessel_k0_array")),
    ("lseries", (
        "ClassCountTable.__init__", "ClassCountTable.coefficients", "hecke_l_coeffs",
        "l_value_at_1", "l_value_at_1_afe", "l_value_at_1_direct",
    )),
    ("maassform", ("build_theta", "ThetaForm.eval", "ThetaForm.ensure_coeffs", "ThetaForm.check_automorphy")),
    ("petersson", ("petersson_norm",)),
    ("cli", ("main", "cmd_*", "_emit")),
)

LAYERS = ("import", "quadfield", "classforms", "heckechar", "special", "lseries", "maassform", "petersson", "cli")

ROOT_SPAN = "bench.op"


def _len_or_zero(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


# What a span keeps of its call: fn(args, kwargs, result) -> number or tuple.
ATTRS = {
    "lseries.ClassCountTable.__init__":
        lambda a, k, r: (getattr(a[0], "n_max", 0), id(a[1]) if len(a) > 1 else 0),
    "lseries.ClassCountTable.coefficients":
        lambda a, k, r: _len_or_zero(r) * getattr(a[0], "h", 0) * 8,
    "lseries.hecke_l_coeffs": lambda a, k, r: _len_or_zero(r) - 1,
    "lseries.l_value_at_1_afe": lambda a, k, r: float(r),
    "lseries.l_value_at_1_direct": lambda a, k, r: float(r),
    "special.bessel_k0_array": lambda a, k, r: _len_or_zero(r),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.originals: dict[str, object] = {}
        self.missing: list[str] = []
        self.op_wall: dict[int, float] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        attr = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attr is not None:
                rec[5] = attr(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every callable in TRACED at every binding site in the package."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith(PACKAGE + ".")]
        module_level: dict[int, tuple[object, object]] = {}
        for modname, entries in TRACED:
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            if mod is None:  # not loaded by this workload
                continue
            for entry in entries:
                owner_name, _, pattern = entry.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                names = fnmatch.filter(list(vars(owner)), pattern) if isinstance(owner, type) or owner is mod else []
                if not names:
                    self.missing.append(f"{modname}.{entry}")
                for attr_name in names:
                    fn = vars(owner)[attr_name]
                    span = ".".join(filter(None, (modname, owner_name, attr_name)))
                    self.originals[span] = fn
                    wrapper = self.wrap(span, fn)
                    if owner is mod:
                        module_level[id(fn)] = (fn, wrapper)
                    else:
                        setattr(owner, attr_name, wrapper)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                hit = module_level.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    def run_op(self, op: int, fn, *args):
        """Run one benchmark operation under a root span.  Its wall time is
        also taken here, outside the span's wrapper, to check the spans."""
        self.op = op
        traced = self.wrap(ROOT_SPAN, fn)
        t0 = time.perf_counter()
        try:
            return traced(*args)
        finally:
            self.op_wall[op] = time.perf_counter() - t0

    def process_counters(self) -> dict:
        """Counters read from the program's caches at the end of the process."""
        out = {}
        split = self.originals.get("quadfield.QuadField.split_prime")
        info = getattr(split, "cache_info", None)
        calls = sum(1 for s in self.spans if s[0] == "quadfield.QuadField.split_prime")
        if info is not None:
            ci = info()
            out["quadfield.split_prime_misses"] = ci.misses
            out["quadfield.split_prime_cache_entries"] = ci.currsize
        else:  # no cache: every call computes
            out["quadfield.split_prime_misses"] = calls
            out["quadfield.split_prime_cache_entries"] = 0
        lseries = sys.modules.get(f"{PACKAGE}.lseries")
        out["lseries.tables_retained"] = _len_or_zero(getattr(lseries, "_tables", ()))
        return out


# Per-layer metrics of the traced run: name -> (unit, how the values of
# several processes combine).  import.* other than import.self_s come from
# -X importtime, trace.* from the pass timings; the rest from the spans and the
# program's caches.
PER_LAYER = {
    "import.total_s": ("s", None),
    "import.sympy_s": ("s", None),
    "import.scipy_integrate_s": ("s", None),
    "import.mpmath_s": ("s", None),
    "import.self_s": ("s", "sum"),
    "quadfield.split_prime_misses": ("count", "sum"),
    "quadfield.split_prime_cache_entries": ("count", "max"),
    "quadfield.enumerate_ideals_s": ("s", "sum"),
    "quadfield.self_s": ("s", "sum"),
    "classforms.classgroup_builds": ("count", "sum"),
    "classforms.classgroup_s": ("s", "sum"),
    "classforms.dlog_calls": ("count", "sum"),
    "classforms.dlog_s": ("s", "sum"),
    "classforms.self_s": ("s", "sum"),
    "heckechar.make_character_s": ("s", "sum"),
    "heckechar.self_s": ("s", "sum"),
    "special.incomplete_k_mellin_calls": ("count", "sum"),
    "special.incomplete_k_mellin_s": ("s", "sum"),
    "special.k0_points": ("count", "sum"),
    "special.k0_s": ("s", "sum"),
    "special.self_s": ("s", "sum"),
    "lseries.table_builds": ("count", "sum"),
    "lseries.table_rows_built": ("count", "sum"),
    "lseries.table_max_n": ("count", "max"),
    "lseries.table_useful_ratio": ("ratio", None),
    "lseries.table_build_s": ("s", "sum"),
    "lseries.realize_calls": ("count", "sum"),
    "lseries.realize_s": ("s", "sum"),
    "lseries.realize_bytes_computed": ("bytes", "sum"),
    "lseries.afe_calls": ("count", "sum"),
    "lseries.afe_s": ("s", "sum"),
    "lseries.direct_s": ("s", "sum"),
    "lseries.direct_n_max": ("count", "max"),
    "lseries.tables_retained": ("count", "max"),
    "lseries.oracle_disagreement_max": ("abs", "max"),
    "lseries.oracle_misses": ("count", "sum"),
    "lseries.self_s": ("s", "sum"),
    "maassform.eval_calls": ("count", "sum"),
    "maassform.eval_self_s": ("s", "sum"),
    "maassform.eval_terms": ("count", "sum"),
    "maassform.max_truncation": ("count", "max"),
    "maassform.ensure_coeffs_grows": ("count", "sum"),
    "maassform.self_s": ("s", "sum"),
    "petersson.norm_calls": ("count", "sum"),
    "petersson.norm_self_s": ("s", "sum"),
    "petersson.self_s": ("s", "sum"),
    "cli.cmd_self_s": ("s", "sum"),
    "cli.emit_s": ("s", "sum"),
    "cli.emit_bytes": ("bytes", "sum"),
    "cli.self_s": ("s", "sum"),
    "trace.harness_self_s": ("s", "sum"),
    "trace.spans": ("count", "sum"),
    "trace.traced_wall_s": ("s", None),
    "trace.untraced_wall_s": ("s", None),
    "trace.overhead_s": ("s", None),
}
USEFUL_ROWS = "lseries.table_useful_rows"  # sum over processes; numerator of the ratio

CALLS, TOTAL, SELF = 0, 1, 2
# metric -> (span name, which aggregate of its spans)
FROM_SPANS = {
    "trace.harness_self_s": (ROOT_SPAN, SELF),
    "quadfield.enumerate_ideals_s": ("quadfield.QuadField.enumerate_ideals", TOTAL),
    "classforms.classgroup_builds": ("classforms.ClassGroup.__init__", CALLS),
    "classforms.classgroup_s": ("classforms.ClassGroup.__init__", TOTAL),
    "classforms.dlog_calls": ("classforms.ClassGroup.dlog", CALLS),
    "classforms.dlog_s": ("classforms.ClassGroup.dlog", TOTAL),
    "heckechar.make_character_s": ("heckechar.make_class_character", TOTAL),
    "special.incomplete_k_mellin_calls": ("special.incomplete_k_mellin", CALLS),
    "special.incomplete_k_mellin_s": ("special.incomplete_k_mellin", TOTAL),
    "special.k0_s": ("special.bessel_k0_array", TOTAL),
    "lseries.table_builds": ("lseries.ClassCountTable.__init__", CALLS),
    "lseries.table_build_s": ("lseries.ClassCountTable.__init__", TOTAL),
    "lseries.realize_calls": ("lseries.ClassCountTable.coefficients", CALLS),
    "lseries.realize_s": ("lseries.ClassCountTable.coefficients", TOTAL),
    "lseries.afe_calls": ("lseries.l_value_at_1_afe", CALLS),
    "lseries.afe_s": ("lseries.l_value_at_1_afe", TOTAL),
    "lseries.direct_s": ("lseries.l_value_at_1_direct", TOTAL),
    "maassform.eval_calls": ("maassform.ThetaForm.eval", CALLS),
    "maassform.eval_self_s": ("maassform.ThetaForm.eval", SELF),
    "petersson.norm_calls": ("petersson.petersson_norm", CALLS),
    "petersson.norm_self_s": ("petersson.petersson_norm", SELF),
    "cli.emit_s": ("cli._emit", TOTAL),
}

ORACLE_MISS = 1e-6  # |AFE - direct oracle| above this counts as a miss


def merge(parts: list[dict]) -> dict:
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if key not in out:
                out[key] = value
            elif PER_LAYER.get(key, ("", "sum"))[1] == "max":
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out


def self_times(spans: list[list]) -> list[float]:
    cover = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            cover[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, cover)]


def _ancestor(spans, i: int, name: str) -> int:
    """Index of the nearest enclosing span called name, or -1."""
    j = spans[i][3]
    while j >= 0 and spans[j][0] != name:
        j = spans[j][3]
    return j


def summarize(spans: list[list], op_wall: dict[int, float]) -> tuple[dict, dict, list[dict]]:
    """(metrics, per span name [calls, total_s, self_s], per op its root
    count, malformed spans, sum of span self times and the wall time taken
    outside the root span)."""
    selft = self_times(spans)
    names: dict[str, list] = {}
    for s, st in zip(spans, selft):
        agg = names.setdefault(s[0], [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += s[2] - s[1]
        agg[2] += st

    m = defaultdict(int)
    for metric, (span, j) in FROM_SPANS.items():
        m[metric] = names.get(span, (0, 0.0, 0.0))[j]
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = sum(v[2] for k, v in names.items() if k.split(".")[0] == layer)
    m["trace.spans"] = len(spans)
    m["cli.cmd_self_s"] = sum(v[2] for k, v in names.items() if k.startswith("cli.cmd_"))

    group_max: dict[int, int] = {}
    grown: set[int] = set()
    oracle: dict[int, dict] = {}
    for i, s in enumerate(spans):
        name, attr = s[0], s[5]
        if name == "lseries.ClassCountTable.__init__":
            n, group = attr
            m["lseries.table_rows_built"] += n
            m["lseries.table_max_n"] = max(m["lseries.table_max_n"], n)
            group_max[group] = max(group_max.get(group, 0), n)
        elif name == "lseries.ClassCountTable.coefficients":
            m["lseries.realize_bytes_computed"] += attr
        elif name == "special.bessel_k0_array":
            m["special.k0_points"] += attr
            if _ancestor(spans, i, "maassform.ThetaForm.eval") >= 0:
                m["maassform.eval_terms"] += attr
                m["maassform.max_truncation"] = max(m["maassform.max_truncation"], attr)
        elif name == "lseries.hecke_l_coeffs":
            if _ancestor(spans, i, "lseries.l_value_at_1_direct") >= 0:
                m["lseries.direct_n_max"] = max(m["lseries.direct_n_max"], attr)
            j = _ancestor(spans, i, "maassform.ThetaForm.ensure_coeffs")
            if j >= 0:
                grown.add(j)
        elif name in ("lseries.l_value_at_1_afe", "lseries.l_value_at_1_direct"):
            j = _ancestor(spans, i, "lseries.l_value_at_1")
            if j >= 0:
                oracle.setdefault(j, {}).setdefault(name, attr)  # first AFE = cutoff 1
    m["maassform.ensure_coeffs_grows"] = len(grown)
    m[USEFUL_ROWS] = sum(group_max.values())
    for pair in oracle.values():
        if len(pair) == 2:
            gap = abs(pair["lseries.l_value_at_1_afe"] - pair["lseries.l_value_at_1_direct"])
            m["lseries.oracle_disagreement_max"] = max(m["lseries.oracle_disagreement_max"], gap)
            m["lseries.oracle_misses"] += gap > ORACLE_MISS

    ids = sorted(set(op_wall) | {s[4] for s in spans})
    ops = {op: {"op": op, "roots": 0, "bad_spans": 0, "self_sum_s": 0.0, "wall_s": op_wall.get(op)} for op in ids}
    for i, (s, st) in enumerate(zip(spans, selft)):
        op = ops[s[4]]
        op["self_sum_s"] += st
        if s[3] < 0:
            op["roots"] += s[0] == ROOT_SPAN
            op["bad_spans"] += s[0] != ROOT_SPAN or st < -1e-9
        else:
            op["bad_spans"] += not _nested(spans, i) or st < -1e-9
    return dict(m), names, list(ops.values())


def _nested(spans, i: int) -> bool:
    """Span i lies inside its parent, an earlier span of the same op."""
    s = spans[i]
    if s[3] >= i:
        return False
    parent = spans[s[3]]
    return parent[4] == s[4] and parent[1] <= s[1] and s[2] <= parent[2]


def finalize(raw: dict) -> dict:
    """Every per-layer metric, once the processes are merged (0 where no span
    of a workload reached it)."""
    built = raw.get("lseries.table_rows_built", 0)
    out = {name: raw.get(name, 0) for name in PER_LAYER}
    out["lseries.table_useful_ratio"] = raw.get(USEFUL_ROWS, 0) / built if built else 0.0
    return out


# The op wall time taken outside the root span's wrapper exceeds the sum of
# span self times only by the wrapper's own cost: allow 1 ms + 0.1%.
WRAPPER_SLACK_S, WRAPPER_SLACK_REL = 1e-3, 1e-3


def ops_consistent(ops: list[dict]) -> bool:
    """Each op has one root span, every other span nests in a parent of the
    same op with a self time >= 0, and the self times of its spans sum to the
    op's wall time taken outside the tracer's wrapper."""
    return all(
        o["roots"] == 1
        and o["bad_spans"] == 0
        and o["wall_s"] is not None
        and -1e-9 <= o["wall_s"] - o["self_sum_s"] <= WRAPPER_SLACK_S + WRAPPER_SLACK_REL * o["wall_s"]
        for o in ops
    )
