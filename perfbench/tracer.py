"""Outside-in boundary tracer: spans around the calls into each gcat layer.

`Tracer.install` wraps every public module-level function of each layer and
the `.validate` methods of its classes, at every gcat module attribute that
refers to them (modules import each other with `from .x import f`), and
`remove` puts the originals back. Nothing under `src/` is edited.

A span is `[layer, name, parent, job, start, end, counters, cap_hit]`, kept
in memory and written out at the end of the run. Self time is a span's
duration minus the durations of its children; the work counters are computed
at the boundary from arguments and results.
"""

import contextlib
import functools
import inspect
import json
import sys
import time

from workloads import BENCHMARK, LAYERS

# Leaf helpers called once per simplex, chain or table entry. They take and
# return tuples or strings and call nothing else; wrapping them would
# multiply the span count for no information, so their time stays in the
# caller's self time.
LEAF_HELPERS = {
    ("sset", "delta"), ("sset", "sigma"), ("sset", "is_identity_alpha"),
    ("sset", "compose_tuples"), ("sset", "surjections"), ("sset", "chain_id"),
    ("fincat", "pair_obj"), ("fincat", "pair_mor"), ("actions", "chaotic_mor"),
}


def _nondegenerate(X):
    return sum(X.n_nondeg(n) for n in X.dims())


# (layer, function) -> counters computed from (args, kwargs, result)
COUNTERS = {
    ("smith", "smith_invariants"): lambda a, k, r: {
        "nnz_in": sum(1 for v in a[2].values() if v), "rank_out": len(r),
        "torsion_out": sum(1 for d in r if d > 1)},
    ("sset", "nerve"): lambda a, k, r: {"simplices_out": _nondegenerate(r)},
    ("sset", "ex"): lambda a, k, r: {"simplices_out": _nondegenerate(r.sset)},
    ("sset", "is_kan_complex"): lambda a, k, r: {"problems_checked": r.problems_checked},
    ("sset", "is_kan_fibration"): lambda a, k, r: {"problems_checked": r.problems_checked},
    ("sset", "is_kan_complex_lazy_ex"): lambda a, k, r: {"problems_checked": r.problems_checked},
    ("fincat", "presented_pushout"): lambda a, k, r: {"morphisms_out": r.category.n_morphisms()},
    ("fincat", "functor_category_data"): lambda a, k, r: {"objects_out": r.cat.n_objects()},
    ("dwyer", "find_dwyer_witness"): lambda a, k, r: {"found": int(r is not None)},
    ("dwyer", "dwyer_pushout"): lambda a, k, r: {"morphisms_out": r.category.n_morphisms()},
    ("weq", "homotopy_fixed_points"): lambda a, k, r: {"objects_out": r.category.n_objects()},
    ("weq", "twisted_fun_fixed"): lambda a, k, r: {"objects_out": r.category.n_objects()},
    ("weq", "homology_certificate"): lambda a, k, r: {"passed": int(bool(r.passed))},
    ("corpus", "dwyer_span_corpus"): lambda a, k, r: {"spans_out": len(r)},
    ("serialize", "canonical_json"): lambda a, k, r: {"bytes_out": len(r.encode("utf-8"))},
}

# metric group -> the (layer, function) names whose spans it covers; a
# group's counters are taken from its outermost spans only, so a nested call
# inside the same group (is_kan_complex -> is_kan_fibration) counts once
GROUPS = {
    "smith.smith_invariants": {("smith", "smith_invariants")},
    "sset.nerve": {("sset", "nerve")},
    "sset.validate": {("sset", "FinSSet.validate"), ("sset", "SSetMap.validate"),
                      ("sset", "MonoidActionSSet.validate")},
    "sset.homology": {("sset", "homology"), ("sset", "boundary_matrix")},
    "sset.ex": {("sset", "ex"), ("sset", "e_map"), ("sset", "ex_map"), ("sset", "ex_action")},
    "sset.kan": {("sset", "is_kan_complex"), ("sset", "is_kan_fibration"),
                 ("sset", "is_kan_complex_lazy_ex")},
    "fincat.presented_pushout": {("fincat", "presented_pushout")},
    "fincat.functor_category_data": {("fincat", "functor_category_data"),
                                     ("fincat", "enumerate_functors"),
                                     ("fincat", "enumerate_nat_trans")},
    "fincat.validate": {("fincat", "validate_category"), ("fincat", "Functor.validate"),
                        ("fincat", "NatTrans.validate"), ("fincat", "EquivalenceWitness.validate")},
    "dwyer.find_dwyer_witness": {("dwyer", "find_dwyer_witness")},
    "dwyer.dwyer_pushout": {("dwyer", "dwyer_pushout")},
    "actions.fixed_category": {("actions", "fixed_category")},
    "weq.hofix": {("weq", "homotopy_fixed_points"), ("weq", "twisted_fun_fixed")},
    "weq.materialized_hofix": {("weq", "materialized_hofix")},
    "weq.homology_certificate": {("weq", "homology_certificate")},
    "cli.main": {("cli", "main")},
}

# unit of every per-layer metric, in report order; BENCHMARK.json is the one list
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


class Tracer:
    def __init__(self, g):
        self.g = g
        self.spans = []
        self.stack = []
        self.job = None
        self._saved = []       # (owner, attribute, original)
        self._seen_exc = []    # cap exceptions already attributed to a span
        self._cap_errors = (g.errors.SizeCapExceeded, g.errors.Inconclusive)

    def _wrap(self, layer, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counters = COUNTERS.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, name, stack[-1] if stack else -1, self.job, 0.0, 0.0, None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = clock()
                if isinstance(exc, self._cap_errors) and not any(e is exc for e in self._seen_exc):
                    self._seen_exc.append(exc)
                    rec[7] = True
                raise
            finally:
                stack.pop()
            rec[5] = clock()
            if counters is not None:
                rec[6] = counters(args, kwargs, result)
            return result

        return traced

    def install(self):
        wrapped = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = getattr(self.g, layer)
            for name, obj in vars(mod).items():
                if name.startswith("_") or (layer, name) in LEAF_HELPERS:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj) and "validate" in vars(obj):
                    original = vars(obj)["validate"]
                    self._saved.append((obj, "validate", original))
                    setattr(obj, "validate", self._wrap(layer, f"{name}.validate", original))
        for modname, mod in list(sys.modules.items()):
            if modname != "gcat" and not modname.startswith("gcat."):
                continue
            for name, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, entry[1])

    def remove(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    @contextlib.contextmanager
    def root(self, job):
        """One job (or the set-up): a root span the layer spans hang under."""
        rec = ["bench", "job", -1, job, time.perf_counter(), 0.0, None, False]
        self.job = job
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self.stack.pop()
            self.job = None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def layer_metrics(spans, include_setup=True):
    """Per-layer self times and work counters of a list of spans."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[2] >= 0:
            child_time[rec[2]] += rec[5] - rec[4]
    self_time = [rec[5] - rec[4] - child_time[i] for i, rec in enumerate(spans)]
    group_of = {key: group for group, keys in GROUPS.items() for key in keys}

    def outermost(i):
        group = group_of.get((spans[i][0], spans[i][1]))
        p = spans[i][2]
        while p >= 0:
            if group_of.get((spans[p][0], spans[p][1])) == group:
                return False
            p = spans[p][2]
        return True

    m = {"fincat.presented_pushout.inconclusive": 0, "serialize.parse.self_s": 0.0,
         "serialize.bytes_out": 0}
    for layer in LAYERS:
        m[f"{layer}.self_s"], m[f"{layer}.cap_hits"] = 0.0, 0
    m.update({f"{g}.self_s": 0.0 for g in GROUPS})
    count = {}
    for i, rec in enumerate(spans):
        layer, name, counters = rec[0], rec[1], rec[6] or {}
        if layer == "bench" or (not include_setup and rec[3] == "setup"):
            continue
        m[f"{layer}.self_s"] += self_time[i]
        m[f"{layer}.cap_hits"] += rec[7]
        group = group_of.get((layer, name))
        if group is not None:
            m[f"{group}.self_s"] += self_time[i]
            if outermost(i):
                count[f"{group}.calls"] = count.get(f"{group}.calls", 0) + 1
                for key, value in counters.items():
                    count[f"{group}.{key}"] = count.get(f"{group}.{key}", 0) + value
        if name.endswith("_from_doc") or (layer, name) in {("serialize", "load_pairs"),
                                                          ("serialize", "load_family")}:
            m["serialize.parse.self_s"] += self_time[i]
        if (layer, name) == ("fincat", "presented_pushout") and rec[7]:
            m["fincat.presented_pushout.inconclusive"] += 1
        if (layer, name) == ("serialize", "canonical_json"):
            m["serialize.bytes_out"] += counters.get("bytes_out", 0)
        if (layer, name) == ("dwyer", "find_dwyer_witness") and _under(spans, i, "corpus"):
            count["corpus.searches"] = count.get("corpus.searches", 0) + 1
        if (layer, name) == ("corpus", "dwyer_span_corpus"):
            count["corpus.spans_out"] = count.get("corpus.spans_out", 0) + counters["spans_out"]

    def ratio(num, den):
        return count.get(num, 0) / count[den] if count.get(den) else 0.0

    for key in ("calls", "nnz_in", "rank_out", "torsion_out"):
        m[f"smith.{key}"] = count.get(f"smith.smith_invariants.{key}", 0)
    m["sset.nerve.simplices_out"] = count.get("sset.nerve.simplices_out", 0)
    m["sset.ex.simplices_out"] = count.get("sset.ex.simplices_out", 0)
    m["sset.kan.problems_checked"] = count.get("sset.kan.problems_checked", 0)
    m["fincat.presented_pushout.calls"] = count.get("fincat.presented_pushout.calls", 0)
    m["fincat.presented_pushout.morphisms_out"] = count.get(
        "fincat.presented_pushout.morphisms_out", 0)
    m["fincat.functor_category_data.objects_out"] = count.get(
        "fincat.functor_category_data.objects_out", 0)
    m["dwyer.find_dwyer_witness.calls"] = count.get("dwyer.find_dwyer_witness.calls", 0)
    m["dwyer.witness_found_ratio"] = ratio("dwyer.find_dwyer_witness.found",
                                           "dwyer.find_dwyer_witness.calls")
    m["dwyer.pushout.morphisms_out"] = count.get("dwyer.dwyer_pushout.morphisms_out", 0)
    m["weq.hofix.objects_out"] = count.get("weq.hofix.objects_out", 0)
    m["weq.materialized_hofix.calls"] = count.get("weq.materialized_hofix.calls", 0)
    m["weq.certificate_pass_ratio"] = ratio("weq.homology_certificate.passed",
                                            "weq.homology_certificate.calls")
    m["corpus.spans_per_search"] = ratio("corpus.spans_out", "corpus.searches")
    m["cli.invocations"] = count.get("cli.main.calls", 0)
    return {name: m[name] for name in PER_LAYER if not name.startswith("trace.")}


def _under(spans, i, layer):
    p = spans[i][2]
    while p >= 0:
        if spans[p][0] == layer:
            return True
        p = spans[p][2]
    return False


def counters_of(metrics):
    """The work counters among the per-layer metrics: everything but times."""
    return {k: v for k, v in metrics.items()
            if PER_LAYER[k] != "s" and not k.startswith("trace.")}
