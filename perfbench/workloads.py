"""The benchmark's four workloads, each a fixed job list built from a seed.

A job is a named callable that returns a verdict, plus the verdict expected
of it. No expectation comes from the code under test: each is a textbook
fact (contractible spaces, group homology of BZ/n and BS3, Kan complexes,
the Ex unit), an agreement between two independent routes in gcat
(`dwyer_pushout` against `presented_pushout`, twisted against materialized
homotopy fixed points), a pi_0 refutation computed here, or an exit code
known by construction.

Jobs reach gcat only through module attributes looked up at call time
(`g.sset.nerve(...)`), so the boundary tracer sees every call.
"""

import contextlib
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
FIXED_SEED = 1      # draws the random inputs of spans, homology and cli, whatever --seed is
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)    # metric names, units and directions
LAYERS = ("fincat", "actions", "sset", "smith", "dwyer", "weq", "corpus", "serialize", "cli")
MODULES = ("config", "errors") + LAYERS


@dataclass(eq=False)
class Job:
    name: str
    run: object            # () -> verdict
    expect: object         # the verdict that counts as correct


@dataclass(eq=False)
class Workload:
    jobs: list
    stats: dict = field(default_factory=dict)   # fixed facts about the inputs


class Gcat:
    """The gcat modules of one import, by layer name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, sys.modules["gcat." + name])


def load_gcat():
    """Import gcat from this checkout's `src`, dropping any earlier import."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "gcat" or m.startswith("gcat.")]:
        del sys.modules[name]
    import gcat
    if not os.path.abspath(gcat.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gcat imported from {gcat.__file__}, not from {SRC}")
    for name in MODULES:
        importlib.import_module("gcat." + name)
    return Gcat()


# ---------------------------------------------------------------------------
# expectations computed here, independently of gcat


def components(objects, edges):
    """pi_0 of a graph, as a set of frozensets."""
    parent = {x: x for x in objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, t in edges:
        parent[find(s)] = find(t)
    out = {}
    for x in objects:
        out.setdefault(find(x), set()).add(x)
    return {frozenset(v) for v in out.values()}


def point_homology(degrees):
    return [(1, ())] + [(0, ())] * (degrees - 1)


def sphere_homology(n, degrees):
    """H_*(S^n) for degrees 0..degrees-1; S^0 is two points."""
    if n == 0:
        return [(2, ())] + [(0, ())] * (degrees - 1)
    return [(1 if k in (0, n) else 0, ()) for k in range(degrees)]


def cyclic_group_homology(n, degrees):
    """H_k(BZ/n; Z) = Z, Z/n, 0, Z/n, 0, ... (k = 0, 1, 2, 3, ...)."""
    return [(1, ())] + [(0, (n,) if k % 2 else ()) for k in range(1, degrees)]


# H_k(BS3; Z) for k = 0..3: Z, Z/2, 0, Z/6
S3_HOMOLOGY = [(1, ()), (0, (2,)), (0, ()), (0, (6,))]


# ---------------------------------------------------------------------------
# inputs


def fun_e_size(H, C):
    """(objects, morphisms) of Fun(E(H), C), counted without building it.

    A functor out of the chaotic category E(H) is its value on the base point
    plus one isomorphism out of it per other element; a natural
    transformation is its base-point component.
    """
    out_isos = {x: 0 for x in C.objects}
    for m in C.isos():
        out_isos[C.src[m]] += 1
    per_base = {x: out_isos[x] ** (len(H.elements) - 1) for x in C.objects}
    morphisms = sum(per_base[x] * per_base[y] * len(C.hom(x, y))
                    for x in C.objects for y in C.objects)
    return sum(per_base.values()), morphisms


def collapse(g, A):
    one = g.fincat.terminal_category()
    return g.fincat.Functor(A, one, {x: "*" for x in A.objects},
                            {m: "id*" for m in A.morphism_ids}).validate()


def cone_posets(g, rng, count, parts=1, size=5):
    """`count` random posets, each `parts` disjoint cones on `size` random
    elements below a top element: contractible cones, so H_0 = Z^parts."""
    out = []
    for _ in range(count):
        els, pairs = [], []
        for p in range(parts):
            names = [f"q{p}.{j}" for j in range(size)]
            els += names + [f"q{p}.top"]
            pairs += [(x, f"q{p}.top") for x in names]
            pairs += [(names[a], names[b]) for a in range(size) for b in range(a + 1, size)
                      if rng.random() < 0.35]
        out.append(g.fincat.poset_from_relation(els, pairs).to_fincat())
    return out


# ---------------------------------------------------------------------------
# spans: Dwyer witness search, explicit pushouts, fixed and homotopy fixed points


SPAN_GROUPS = (("1", 30), ("Z2", 24), ("Z3", 18), ("S3", 3))
HSD2_INCLUSIONS = [("bD", n, None) for n in range(3)] + [("L", n, k) for n in (1, 2) for k in range(n + 1)]
REFUTATIONS = 8


def hofix_pairs(g, G):
    return [(H, phi) for H in g.actions.subgroups(G) for phi in g.actions.homomorphisms(H, G)]


def _span_job(g, name, span, pairs):
    """`pairs` holds (H, phi, materialized hofix or None), see HOFIX_ORACLE."""

    def run():
        w = g.dwyer.find_dwyer_witness(span.i, (span.group, span.act_A, span.act_B))
        if w is None:
            return {"witness": False}
        w.validate()
        actD, _ = g.dwyer.equivariant_dwyer_pushout(span.act_A, span.act_B, span.act_C,
                                                     span.i, span.c, w)
        agree, _, _ = g.dwyer.pushout_cross_check(span.A, span.B, span.C, span.i, span.c, w)
        commute = True
        for H in g.actions.subgroups(span.group):
            DH = g.actions.fixed_category(g.actions.restrict_action(actD, H), H)
            wH = g.dwyer.restrict_witness_to_fixed(w, H)
            CH = g.actions.fixed_category(g.actions.restrict_action(span.act_C, H), H)
            cH = g.fincat.Functor(wH.i.source, CH,
                                  {x: span.c.object_map[x] for x in wH.i.source.objects},
                                  {m: span.c.morphism_map[m] for m in wH.i.source.morphism_ids}
                                  ).validate()
            poH = g.dwyer.dwyer_pushout(wH.i.source, wH.i.target, CH, wH.i, cH, wH)
            commute &= (DH.objects == poH.category.objects
                        and DH.morphisms == poH.category.morphisms
                        and DH.compose == poH.category.compose)
        hofix_agree = True
        for H, phi, mat in pairs:
            twisted = g.weq.homotopy_fixed_points(actD, H, phi).category
            if mat is None:
                continue
            hofix_agree &= ((twisted.n_objects(), twisted.n_morphisms())
                            == (mat.n_objects(), mat.n_morphisms())
                            and (twisted.n_objects() == 0
                                 or g.fincat.find_isomorphism(twisted, mat) is not None))
        return {"witness": True, "pushout_agrees": bool(agree),
                "fixed_points_commute": commute, "hofix_agrees": hofix_agree}

    return Job(name, run,
               {"witness": True, "pushout_agrees": True,
                "fixed_points_commute": True, "hofix_agrees": True})


def _hsd2_job(g, kind, n, k, style):
    K = g.sset.boundary_complex(n) if kind == "bD" else g.sset.horn_complex(n, k)
    i = g.sset.h_sd2_map(K, g.sset.standard_simplex_complex(n))
    A, B = i.source, i.target
    C, c = (B, i) if style == "glue" else (g.fincat.terminal_category(), collapse(g, A))

    def run():
        w = g.dwyer.find_dwyer_witness(i)
        if w is None:
            return {"witness": False}
        w.validate()
        agree, _, _ = g.dwyer.pushout_cross_check(A, B, C, i, c, w)
        return {"witness": True, "pushout_agrees": bool(agree)}

    label = f"bD{n}" if kind == "bD" else f"L{n}_{k}"
    return Job(f"hsd2:{label}:{style}", run, {"witness": True, "pushout_agrees": True})


def _refutation_job(g, rng, index):
    """A sieve A of a random poset B whose upward closure joins two components
    of A. A witness would be a cosieve X containing that closure with
    A -> X a homotopy equivalence, so pi_0(A) = pi_0(X); none exists."""
    while True:
        n = rng.randint(4, 7)
        els = [f"b{j}" for j in range(n)]
        pairs = [(els[a], els[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.35]
        B = g.fincat.poset_from_relation(els, pairs).to_fincat()
        below = {x: {s for _, s, t in B.morphisms if t == x} for x in B.objects}
        seeds = rng.sample(list(B.objects), rng.randint(2, 3))
        a_objs = sorted(set().union(*(below[x] for x in seeds)))
        if len(a_objs) == n:
            continue
        up = {t for _, s, t in B.morphisms if s in a_objs}
        a_edges = [(s, t) for _, s, t in B.morphisms if s in a_objs and t in a_objs]
        up_edges = [(s, t) for _, s, t in B.morphisms if s in up and t in up]
        if len(components(a_objs, a_edges)) > len(components(up, up_edges)):
            break
    A = B.full_subcategory(a_objs)
    i = g.fincat.Functor(A, B, {x: x for x in A.objects},
                         {m: m for m in A.morphism_ids}).validate()

    def run():
        return {"sieve": g.dwyer.is_sieve(i), "witness": g.dwyer.find_dwyer_witness(i) is not None}

    return Job(f"refute:{index}", run, {"sieve": True, "witness": False})


#: job name -> the materialized hofix of each of the job's (H, phi) pairs,
#: or None where Fun(E(H), D) is over DEFAULT_CAPS. It is an expectation,
#: not an input: built by the first set-up in this process and reused by
#: later ones (run.py times only those), so that
#: `setup_s` counts the inputs and the timed job only the twisted route.
#: Categories from an earlier import of gcat compare by structure.
HOFIX_ORACLE = {}


def build_spans(g, seed):
    """The seed orders the jobs and draws the refutation sieves. The corpus
    spans come from FIXED_SEED: they sit at the median job latency, and drawn
    from the seed they spread job_p50_ms over ten seeds by 0.24 of its median
    (quartile distance)."""
    rng = random.Random(seed)
    caps = g.config.DEFAULT_CAPS
    jobs = []
    stats = {"hofix_pairs": 0, "hofix_pairs_materialized": 0}
    for offset, (group_name, count) in enumerate(SPAN_GROUPS):
        corpus = g.corpus.dwyer_span_corpus(FIXED_SEED * 10 + offset, count, group_name)
        for index, span in enumerate(corpus):
            actD, _ = g.dwyer.equivariant_dwyer_pushout(span.act_A, span.act_B, span.act_C,
                                                        span.i, span.c, span.witness)
            pairs = []
            for H, phi in hofix_pairs(g, span.group):
                objs, mors = fun_e_size(H, actD.carrier)
                pairs.append((H, phi, objs <= caps.max_objects and mors <= caps.max_morphisms))
            name = f"span:{group_name}:{span.label}:{index}"
            if name not in HOFIX_ORACLE:
                HOFIX_ORACLE[name] = [g.weq.materialized_hofix(actD, H, phi, caps)
                                      if fits else None for H, phi, fits in pairs]
            pairs = [(H, phi, mat) for (H, phi, _), mat in zip(pairs, HOFIX_ORACLE[name])]
            stats["hofix_pairs"] += len(pairs)
            stats["hofix_pairs_materialized"] += sum(mat is not None for _, _, mat in pairs)
            jobs.append(_span_job(g, name, span, pairs))
    for kind, n, k in HSD2_INCLUSIONS:
        for style in ("glue", "collapse"):
            jobs.append(_hsd2_job(g, kind, n, k, style))
    for index in range(REFUTATIONS):
        jobs.append(_refutation_job(g, rng, index))
    rng.shuffle(jobs)
    return Workload(jobs, stats)


# ---------------------------------------------------------------------------
# homology: nerves, Smith normal form, `necessary` certificates


def _homology_job(name, g, make_cat, cap, expect, caps=None):
    def run():
        X = g.sset.nerve(make_cat(), cap, caps or g.config.DEFAULT_CAPS)
        return g.sset.homology(X, cap)
    return Job(name, run, expect)


def _certificate_job(name, g, make_map, cap, expect):
    def run():
        return g.weq.homology_certificate(make_map(), cap).passed
    return Job(name, run, expect)


def constant_circle_map(g):
    """The constant map on the boundary of the 2-simplex, S^1 -> S^1."""
    X = g.sset.complex_to_sset(g.sset.boundary_complex(2), 3)
    return g.sset.constant_sset_map(X, X).validate()


def build_homology(g, seed):
    """The seed orders the jobs. The random posets come from FIXED_SEED: they
    sit at the median job latency, and drawn from the seed they moved
    job_p50_ms by up to a fifth between seeds."""
    rng = random.Random(FIXED_SEED)
    wide = g.config.WIDE_CAPS
    jobs = []
    for n in range(1, 5):
        cat = g.fincat.chain_poset(n).to_fincat()
        jobs.append(_homology_job(f"nerve:[{n}]", g, lambda c=cat: c, 4, point_homology(4)))
    for k in range(2, 5):
        cat = g.actions.chaotic_category([f"x{i}" for i in range(k)])
        jobs.append(_homology_job(f"nerve:E({k})", g, lambda c=cat: c, 4, point_homology(4)))
    for n in range(2, 6):
        cat = g.actions.delooping(g.actions.cyclic_group(n))
        jobs.append(_homology_job(f"nerve:BZ{n}", g, lambda c=cat: c, 4,
                                  cyclic_group_homology(n, 4)))
    BS3 = g.actions.delooping(g.actions.symmetric_group(3))
    jobs.append(_homology_job("nerve:BS3", g, lambda: BS3, 4, S3_HOMOLOGY))

    # Fun(E(H), D) for generator categories D = cell x hSd2(...): the cell is
    # a contractible groupoid and E(H) ~ *, so the answer is that of
    # hSd2(bD^n) ~ S^(n-1) (source) or hSd2(D^n) ~ * (target).
    Z2 = g.actions.cyclic_group(2)
    phi = {h: h for h in Z2.elements}
    EH = g.actions.chaotic_category(Z2.elements)
    for n in (0, 1):
        gm = g.weq.generating_maps(g.weq.GeneratorSpec("g_global_thin", n,
                                                       params={"H": Z2, "G": Z2, "phi": phi}), wide)
        for side, D, expect in (("source", gm.functor.source,
                                 sphere_homology(n - 1, 3) if n else [(0, ())] * 3),
                                ("target", gm.functor.target, point_homology(3))):
            jobs.append(_homology_job(
                f"nerve:Fun(E(Z2),{side} of {gm.name})", g,
                lambda D=D: g.fincat.functor_category_data(EH, D, wide).cat, 3, expect, wide))

    # hSd2(D^n) with hSd2(bD^n) collapsed to a point is S^n
    for n in (1, 2):
        i = g.sset.h_sd2_map(g.sset.boundary_complex(n), g.sset.standard_simplex_complex(n))
        w = g.dwyer.find_dwyer_witness(i)
        one = g.fincat.terminal_category()
        po = g.dwyer.dwyer_pushout(i.source, i.target, one, i, collapse(g, i.source), w)
        jobs.append(_homology_job(f"nerve:S{n}", g, lambda c=po.category: c, n + 2,
                                  sphere_homology(n, n + 2)))

    # random contractible posets, and disjoint unions of them
    for index, cat in enumerate(cone_posets(g, rng, 6)):
        jobs.append(_homology_job(f"nerve:cone{index}", g, lambda c=cat: c, 3, point_homology(3)))
    for index, cat in enumerate(cone_posets(g, rng, 3, parts=3, size=3)):
        jobs.append(_homology_job(f"nerve:cones{index}", g, lambda c=cat: c, 3,
                                  [(3, ()), (0, ()), (0, ())]))

    # certificates of maps: True means "is a weak equivalence"
    bd2 = g.sset.boundary_complex(2)
    S1 = g.sset.complex_to_sset(bd2, 3)
    certs = [
        ("cert:[3]->*", lambda c=g.fincat.chain_poset(3).to_fincat(): collapse(g, c), True),
        ("cert:E(3)->*", lambda c=g.actions.chaotic_category(["a", "b", "c"]): collapse(g, c), True),
        ("cert:BZ2->*", lambda c=g.actions.delooping(Z2): collapse(g, c), False),
        ("cert:id(S1)", lambda: g.sset.identity_sset_map(S1).validate(), True),
        ("cert:bD2->D2", lambda: g.sset.complex_inclusion(bd2, g.sset.standard_simplex_complex(2), 3),
         False),
        ("cert:lastvertex(sd bD2)", lambda: g.sset.lastvertex_map(bd2, 3), True),
        # a known defect: the certificate compares invariants, never f_*
        ("cert:const(S1->S1)", lambda: constant_circle_map(g), False),
    ]
    for index, cat in enumerate(cone_posets(g, rng, 3)):
        certs.append((f"cert:cone{index}->*", lambda c=cat: collapse(g, c), True))
    for name, make_map, expect in certs:
        jobs.append(_certificate_job(name, g, make_map, 3, expect))
    random.Random(seed).shuffle(jobs)
    return Workload(jobs)


# ---------------------------------------------------------------------------
# ex_kan: Kan's Ex, its unit, Kan checks


def build_ex_kan(g, seed):
    rng = random.Random(seed)
    wide = g.config.WIDE_CAPS
    jobs = []

    # the unit e: X -> Ex X is a weak equivalence (Kan 1957)
    for name, X in g.corpus.emap_corpus(3):
        def unit(X=X):
            exd = g.sset.ex(X, 3, wide)
            return g.weq.homology_certificate(g.sset.e_map(X, exd), 3).passed
        jobs.append(Job(f"e-unit:{name}", unit, True))
    for name, ens in g.corpus.emap_equivariant_corpus(3):
        def unit_fixed(ens=ens):
            Z2 = ens.monoid
            exd = g.sset.ex(ens.carrier, 3, wide)
            exact = g.sset.ex_action(ens, exd)
            em = g.sset.e_map(ens.carrier, exd)
            return [g.weq.homology_certificate(g.sset.fixed_sset_map(em, ens, exact, H), 3).passed
                    for H in (g.actions.subgroup_from_elements(Z2, [Z2.unit]), Z2)]
        jobs.append(Job(f"e-unit-fixed:{name}", unit_fixed, [True, True]))

    # Ex(D^1) has 5 one-simplices: the maps Sd D^1 -> D^1
    d1 = g.sset.complex_to_sset(g.sset.standard_simplex_complex(1), 2)
    jobs.append(Job("ex-count:D1", lambda: g.sset.ex(d1, 2).sset.total_count(1), 5))

    # nerves of groupoids are Kan, nerves of posets with a non-identity arrow are not;
    # Ex of a Kan complex is Kan
    Z2, Z3 = g.actions.cyclic_group(2), g.actions.cyclic_group(3)
    groupoids = [("E(2)", g.actions.chaotic_category(["a", "b"])),
                 ("E(3)", g.actions.chaotic_category(["a", "b", "c"])),
                 ("BZ2", g.actions.delooping(Z2)), ("BZ3", g.actions.delooping(Z3))]
    posets = [("[1]", g.fincat.arrow_category()), ("[2]", g.fincat.chain_poset(2).to_fincat()),
              ("V", g.fincat.poset_from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")]).to_fincat())]
    posets += [(f"seeded:cone{index}", cat) for index, cat in enumerate(cone_posets(g, rng, 4, size=4))]
    for (name, C), kan in [(p, True) for p in groupoids] + [(p, False) for p in posets]:
        jobs.append(Job(f"kan:N({name})", lambda C=C: g.sset.is_kan_complex(g.sset.nerve(C, 3), 3).passed,
                        kan))
    for name, C in groupoids[:3]:
        jobs.append(Job(f"kan:Ex N({name})",
                        lambda C=C: g.sset.is_kan_complex_lazy_ex(g.sset.nerve(C, 2), 2).passed, True))
    rng.shuffle(jobs)
    return Workload(jobs)


# ---------------------------------------------------------------------------
# cli: in-process `gcat.cli.main` over written documents


class CliJob:
    """Runs one argv; checks the exit code, a fact about the report, and that
    the report is byte-identical to the first one this process got for that
    argv, in this set-up or an earlier one."""

    reports = {}    # argv -> first report text

    def __init__(self, g, argv, code, check=None):
        self.g, self.argv, self.code, self.check = g, argv, code, check

    def __call__(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.g.cli.main(self.argv)
        text = out.getvalue()
        identical = self.reports.setdefault(tuple(self.argv), text) == text
        fact = True if self.check is None else bool(self.check(json.loads(text)))
        return {"exit": code, "fact": fact, "identical": identical}


def build_cli(g, seed):
    """The seed orders the jobs and is the `corpus --seed` argument. The
    documents' random categories and spans come from FIXED_SEED: drawn from
    the seed they moved the job at job_tail_ms in and out of the tail."""
    rng = random.Random(FIXED_SEED)
    workdir = os.path.join(OUT, f"cli-docs-{seed}")
    os.makedirs(workdir, exist_ok=True)
    ser = g.serialize
    F = g.fincat

    def write(name, doc):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ser.canonical_json(doc))
        return path

    cases = []   # (label, argv, exit code, check)
    for index in range(3):
        cat = g.corpus.seeded_category(rng)
        doc = cat.to_doc()
        path = write(f"cat{index}.json", doc)
        cases.append((f"validate:cat{index}", ["validate", "--input", path], 0,
                      lambda r, n=len(doc["objects"]), m=len(doc["morphisms"]):
                      (r["objects"], r["morphisms"]) == (n, m)))
        cases.append((f"nerve:cat{index}", ["nerve", "--input", path, "--cap", "3"], 0,
                      lambda r, n=len(doc["objects"]): r["nondegenerate"]["0"] == n))
    bad = F.arrow_category().to_doc()
    bad["compose"] = [c for c in bad["compose"] if c[0] != "0<=1"]
    cases.append(("validate:bad-table", ["validate", "--input", write("bad.json", bad)], 1, None))
    # N([2]) has 3, 3, 1, 0 nondegenerate simplices; N(E(3)) has 3 * 2^n
    chain = write("chain2.json", F.chain_poset(2).to_fincat().to_doc())
    cases.append(("nerve:[2]", ["nerve", "--input", chain, "--cap", "3"], 0,
                  lambda r: r["nondegenerate"] == {"0": 3, "1": 3, "2": 1, "3": 0}))
    e3 = write("e3.json", g.actions.chaotic_category(["a", "b", "c"]).to_doc())
    cases.append(("nerve:E(3)", ["nerve", "--input", e3, "--cap", "3"], 0,
                  lambda r: r["nondegenerate"] == {"0": 3, "1": 6, "2": 12, "3": 24}))
    bd2 = write("bd2.json", ser.complex_doc(g.sset.boundary_complex(2)))
    cases.append(("homology:bD2", ["homology", "--input", bd2, "--kind", "complex"], 0,
                  lambda r: [d["betti"] for d in r["homology"]] == [1, 1, 0]))
    bz3 = write("bz3.json", g.actions.delooping(g.actions.cyclic_group(3)).to_doc())
    cases.append(("homology:BZ3", ["homology", "--input", bz3, "--cap", "4"], 0,
                  lambda r: [d["torsion"] for d in r["homology"]] == [[], [3], [], [3]]))
    d2 = write("d2.json", ser.complex_doc(g.sset.standard_simplex_complex(2)))
    # the face poset of D^2 has its 7 nonempty faces; Sd D^2 has 7 + 12 + 6 faces
    cases.append(("sd:D2", ["sd", "--input", d2], 0,
                  lambda r: (len(r["face_poset"]["objects"]), len(r["sd_complex"]["faces"])) == (7, 25)))
    d1 = write("d1.json", g.sset.complex_to_sset(g.sset.standard_simplex_complex(1), 2).to_doc())
    cases.append(("ex:D1", ["ex", "--input", d1, "--cap", "2"], 0,
                  lambda r: r["total"]["1"] == 5 and r["unit_injective"]))
    one, arrow = F.terminal_category(), F.arrow_category()
    at0 = write("i0.json", ser.functor_doc(F.Functor(one, arrow, {"*": "0"}, {"id*": "0<=0"})))
    at1 = write("i1.json", ser.functor_doc(F.Functor(one, arrow, {"*": "1"}, {"id*": "1<=1"})))
    cases.append(("check-dwyer:i0", ["check-dwyer", "--input", at0], 0,
                  lambda r: r["witness"] is not None))
    cases.append(("check-dwyer:not-sieve", ["check-dwyer", "--input", at1], 1,
                  lambda r: r["refusal"] == "not a sieve"))
    V = F.poset_from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")]).to_fincat()
    ab = V.full_subcategory(["a", "b"])
    refute = F.Functor(ab, V, {x: x for x in ab.objects}, {m: m for m in ab.morphism_ids})
    cases.append(("check-dwyer:refuted",
                  ["check-dwyer", "--input", write("refute.json", ser.functor_doc(refute))], 1,
                  lambda r: r["refusal"] == "exhaustive search found no witness"))
    for index, span in enumerate(g.corpus.dwyer_span_corpus(FIXED_SEED, 3)):
        doc = {"A": span.A.to_doc(), "B": span.B.to_doc(), "C": span.C.to_doc(),
               "i": {"object_map": span.i.object_map, "morphism_map": span.i.morphism_map},
               "c": {"object_map": span.c.object_map, "morphism_map": span.c.morphism_map}}
        cases.append((f"pushout:span{index}",
                      ["pushout", "--input", write(f"span{index}.json", doc), "--cross-check"], 0,
                      lambda r: r["cross_check"] is True))
    z2_pairs = {"G": "Z2", "H_group": "Z2",
                "pairs": [{"H": ["c0", "c1"], "phi": {"c0": "c0", "c1": "c1"}},
                          {"H": ["c0"], "phi": {"c0": "c0"}}]}
    pairs = write("pairs.json", z2_pairs)
    family = write("family.json", {"group": "Z2", "subgroups": [["c0"], ["c0", "c1"]]})
    for index, span in enumerate(g.corpus.dwyer_span_corpus(FIXED_SEED, 2, "Z2")):
        path = write(f"action{index}.json", ser.action_doc(span.act_B))
        n_fixed = sum(all(span.act_B.ob(h, x) == x for h in span.group.elements)
                      for x in span.B.objects)
        cases.append((f"fixed:action{index}", ["fixed", "--input", path, "--family", family], 0,
                      lambda r, n=n_fixed: len(r["fixed"]["{c0,c1}"]["objects"]) == n))
    # E(Z2) with translation: its homotopy fixed points form a contractible
    # groupoid on the 2 equivariant maps; the fixed points are empty
    Z2 = g.actions.cyclic_group(2)
    translation = g.actions.translation_action(Z2)
    tpath = write("translation.json", ser.action_doc(translation))
    cases.append(("hofix:E(Z2)", ["hofix", "--input", tpath, "--pairs", pairs], 0,
                  lambda r: len(r["homotopy_fixed_points"]["{c0,c1}->c0:c0,c1:c1"]["objects"]) == 2))
    cases.append(("weq:[2]->*", ["weq", "--input", write("c2.json", ser.functor_doc(
        collapse(g, F.chain_poset(2).to_fincat())))], 0, None))
    cases.append(("weq:S0->*", ["weq", "--input", write("s0.json", ser.functor_doc(
        collapse(g, F.discrete_category(["a", "b"]))))], 1, None))
    point = g.actions.trivial_action(Z2, one)
    gg = {"source_action": ser.action_doc(translation), "target_action": ser.action_doc(point),
          "functor": {"object_map": {x: "*" for x in translation.carrier.objects},
                      "morphism_map": {m: "id*" for m in translation.carrier.morphism_ids}}}
    cases.append(("gglobal-weq:E(Z2)->*",
                  ["gglobal-weq", "--input", write("gg.json", gg), "--pairs", pairs], 0, None))
    avatar = write("avatar.json", {"kind": "cell", "K": "Z2", "H": ["c0", "c1"],
                                   "phi": {"c0": "c0", "c1": "c1"}})
    cases.append(("saturate:cell", ["saturate", "--input", avatar, "--pairs", pairs], 0, None))
    for n in (0, 1):
        cases.append((f"gens:g_global_thin:{n}",
                      ["gens", "--model", "g_global_thin", "--n", str(n), "--params",
                       '{"H": "Z2", "G": "Z2", "phi": {"c0": "c0", "c1": "c1"}}'], 0,
                      lambda r: r["sieve"] and r["dwyer_witness"]))
    cases.append(("corpus:Z2", ["corpus", "--seed", str(seed), "--count", "3", "--group", "Z2"], 0,
                  lambda r: r["count"] == 3))
    jobs = [Job(f"cli:{label}", CliJob(g, argv, code, check),
                {"exit": code, "fact": True, "identical": True})
            for label, argv, code, check in cases]
    random.Random(seed).shuffle(jobs)
    return Workload(jobs)


JOB_LISTS = {
    "spans": build_spans,
    "homology": build_homology,
    "ex_kan": build_ex_kan,
    "cli": build_cli,
}

#: per workload: (job name prefix, wrong expectation) planted by the self-test
PLANTS = {
    "spans": ("refute:0", {"sieve": True, "witness": True}),
    "homology": ("nerve:BZ3", cyclic_group_homology(2, 4)),
    "ex_kan": ("ex-count:D1", 6),
    "cli": ("cli:validate:bad-table", {"exit": 0, "fact": True, "identical": True}),
}


def plant_wrong(workload_name, workload):
    name, wrong = PLANTS[workload_name]
    [job] = [j for j in workload.jobs if j.name == name]
    job.expect = wrong
