"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gcat import serialize as ser
from gcat.config import WIDE_CAPS
from gcat.errors import Inconclusive
from gcat.fincat import (
    Functor,
    arrow_category,
    chain_poset,
    find_isomorphism,
    poset_from_relation,
    terminal_category,
)
from gcat.actions import (
    cell_category,
    chaotic_category,
    cyclic_group,
    fixed_category,
    restrict_action,
    subgroup_from_elements,
    subgroups,
    symmetric_group,
    trivial_action,
    trivial_group,
)
from gcat.sset import (
    MonoidActionSSet,
    SSetMap,
    boundary_complex,
    complex_to_sset,
    e_map,
    equivariant_nerve,
    ex,
    ex_action,
    fixed_sset,
    fixed_sset_map,
    h_poset_nerve,
    h_sd2_map,
    horn_complex,
    nerve,
    nerve_functor,
    pushout_sset,
    standard_simplex_complex,
)
from gcat.dwyer import (
    dwyer_pushout,
    equivariant_dwyer_pushout,
    find_dwyer_witness,
    pushout_cross_check,
    restrict_witness_to_fixed,
)
from gcat.weq import (
    GeneratorSpec,
    cell_avatar,
    check_transfer_conditions,
    generating_maps,
    homology_certificate,
    poset_avatar,
    restriction_comparison,
    saturation_check,
)
from gcat.corpus import (
    curated_spans,
    dwyer_span_corpus,
    emap_corpus,
    emap_equivariant_corpus,
    seeded_poset,
)

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)
PHI_ID = {g: g for g in Z2.elements}


def report(number, name, ok, extra=""):
    line = f"criterion {number} [{name}]: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line, flush=True)
    assert ok, line


def equivariant_span_corpus():
    return (dwyer_span_corpus(101, 12, "Z2")
            + dwyer_span_corpus(102, 10, "Z3")
            + dwyer_span_corpus(103, 8, "S3"))


def fixed_span_pushout(span, H):
    wH = restrict_witness_to_fixed(span.witness, H)
    AH, BH = wH.i.source, wH.i.target
    CH = fixed_category(restrict_action(span.act_C, H), H)
    cH = Functor(AH, CH, {x: span.c.object_map[x] for x in AH.objects},
                 {m: span.c.morphism_map[m] for m in AH.morphism_ids}).validate()
    return dwyer_pushout(AH, BH, CH, wH.i, cH, wH)


def test_criterion_1_pushout_oracle_agreement():
    t0 = time.time()
    spans = dwyer_span_corpus(20260811, 50)
    agreed = 0
    closed = 0
    for span in spans:
        try:
            ok, _, _ = pushout_cross_check(span.A, span.B, span.C, span.i, span.c,
                                           span.witness)
        except Inconclusive:
            continue
        closed += 1
        agreed += ok
    curated_ok = True
    for name, span, expected in curated_spans():
        ok, po, _ = pushout_cross_check(span.A, span.B, span.C, span.i, span.c,
                                        span.witness)
        curated_ok &= ok and find_isomorphism(po.category, expected) is not None
    elapsed = time.time() - t0
    report(1, "pushout oracle agreement",
           closed == agreed and closed >= 45 and curated_ok and elapsed < 120,
           f"{agreed}/{closed} closed spans agree of {len(spans)}, curated ok, {elapsed:.1f}s")


def test_criterion_2_fixed_point_commutation():
    t0 = time.time()
    spans = equivariant_span_corpus()
    assert len(spans) >= 30
    failures = 0
    checks = 0
    for span in spans:
        actD, po = equivariant_dwyer_pushout(span.act_A, span.act_B, span.act_C,
                                             span.i, span.c, span.witness)
        for H in subgroups(span.group):
            DH = fixed_category(restrict_action(actD, H), H)
            poH = fixed_span_pushout(span, H)
            same = (DH.objects == poH.category.objects
                    and DH.morphisms == poH.category.morphisms
                    and DH.compose == poH.category.compose)
            checks += 1
            failures += not same
    report(2, "fixed-point commutation", failures == 0,
           f"{checks} subgroup checks over {len(spans)} spans, {time.time()-t0:.1f}s")


def nerve_pushout_with_action(span, cap=3):
    NA = equivariant_nerve(span.act_A, cap)
    NB = equivariant_nerve(span.act_B, cap)
    NC = equivariant_nerve(span.act_C, cap)
    ni = nerve_functor(span.i, NA.carrier, NB.carrier, cap)
    nc = nerve_functor(span.c, NA.carrier, NC.carrier, cap)
    P, from_b, from_c = pushout_sset(ni, nc)
    act = {}
    for g in span.group.elements:
        vals = {}
        for n in NC.carrier.dims():
            for s in NC.carrier.cells[n]:
                vals[(n, s)] = from_c.apply(NC.act[g].values[(n, s)])
        for n in P.dims():
            for s in P.cells[n]:
                if s.startswith("B:"):
                    vals[(n, s)] = from_b.apply(NB.act[g].values[(n, s[2:])])
        act[g] = SSetMap(P, P, vals)
    action = MonoidActionSSet(span.group, P, act).validate()
    return P, action, from_b, from_c


def test_criterion_3_nerve_comparison():
    t0 = time.time()
    spans = equivariant_span_corpus()
    cap = 3
    failures = 0
    checks = 0
    for span in spans:
        actD, po = equivariant_dwyer_pushout(span.act_A, span.act_B, span.act_C,
                                             span.i, span.c, span.witness)
        ND = equivariant_nerve(actD, cap)
        P, action, from_b, from_c = nerve_pushout_with_action(span, cap)
        nj = nerve_functor(po.leg_from_c, nerve(span.C, cap), ND.carrier, cap)
        nd = nerve_functor(po.leg_from_b, nerve(span.B, cap), ND.carrier, cap)
        vals = {}
        for n in P.dims():
            for s in P.cells[n]:
                if s.startswith("B:"):
                    vals[(n, s)] = nd.values[(n, s[2:])]
                else:
                    vals[(n, s)] = nj.values[(n, s)]
        comparison = SSetMap(P, ND.carrier, vals).validate()
        for H in subgroups(span.group):
            restricted = fixed_sset_map(comparison, action, ND, H)
            cert = homology_certificate(restricted, cap)
            checks += 1
            failures += not cert.passed
    report(3, "nerve comparison", failures == 0,
           f"{checks} fixed-point certificates over {len(spans)} spans, {time.time()-t0:.1f}s")


def test_criterion_4_ex_unit():
    t0 = time.time()
    cap = 3
    failures = []
    for name, X in emap_corpus(cap):
        exd = ex(X, cap, WIDE_CAPS)
        cert = homology_certificate(e_map(X, exd), cap)
        if not cert.passed:
            failures.append(name)
    for name, ens in emap_equivariant_corpus(cap):
        exd = ex(ens.carrier, cap, WIDE_CAPS)
        exact = ex_action(ens, exd)
        em = e_map(ens.carrier, exd)
        for H in (subgroup_from_elements(Z2, ["c0"]), Z2):
            restricted = fixed_sset_map(em, ens, exact, H)
            cert = homology_certificate(restricted, cap)
            if not cert.passed:
                failures.append(f"{name}^{{{','.join(H.elements)}}}")
    d1 = complex_to_sset(standard_simplex_complex(1), 2)
    count_ok = ex(d1, 2).sset.total_count(1) == 5
    report(4, "Ex unit", not failures and count_ok,
           f"|Ex(D1)_1|=5 {count_ok}, failures={failures}, {time.time()-t0:.1f}s")


def test_criterion_5_hsd2_dwyer():
    t0 = time.time()
    ok = True
    checked = 0
    for n in range(0, 3):
        m = h_sd2_map(boundary_complex(n), standard_simplex_complex(n))
        w = find_dwyer_witness(m)
        ok &= w is not None and w.validate() is w
        checked += 1
    for n in range(1, 3):
        for k in range(n + 1):
            m = h_sd2_map(horn_complex(n, k), standard_simplex_complex(n))
            w = find_dwyer_witness(m)
            ok &= w is not None and w.validate() is w
            checked += 1
    report(5, "hSd2 Dwyer property", ok, f"{checked} inclusions, {time.time()-t0:.1f}s")


def test_criterion_6_saturation_of_generators():
    t0 = time.time()
    failures = []
    # posets with trivial actions: unit must be an isomorphism
    posets = [arrow_category(), chain_poset(2).to_fincat(),
              poset_from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")]).to_fincat()]
    triv_sub = subgroup_from_elements(Z2, ["c0"])
    pairs2 = [(Z2, PHI_ID), (triv_sub, {"c0": "c0"})]
    for idx, P in enumerate(posets):
        rep = saturation_check(poset_avatar(P, Z2, Z2), pairs2)
        for key, v in rep["pairs"].items():
            if v["kind"] != "isomorphism":
                failures.append(f"poset{idx}:{key}")
    # cells for H, G in {Z2, Z4} with their defining pairs and restrictions;
    # only injective φ: a finite chaotic factor has no intertwiners for a
    # nontrivial kernel, so non-injective cells are outside the avatar's reach
    hom_24 = {"c0": "c0", "c1": "c2"}
    cells = [
        (Z2, Z2, PHI_ID),
        (Z2, Z4, hom_24),
        (Z4, Z4, {g: g for g in Z4.elements}),
    ]
    for K, G, phi in cells:
        cell = cell_avatar(cell_category(K, G, K, phi))
        pairs = [(K, phi)]
        if len(K.elements) == 4:
            sub = subgroup_from_elements(K, ["c0", "c2"])
            pairs.append((sub, {h: phi[h] for h in sub.elements}))
        else:
            sub = subgroup_from_elements(K, ["c0"])
            pairs.append((sub, {"c0": phi["c0"]}))
        rep = saturation_check(cell, pairs)
        for key, v in rep["pairs"].items():
            if not v["passed"] or v["kind"] not in ("equivalence", "isomorphism"):
                failures.append(f"cell({len(K.elements)},{len(G.elements)}):{key}")
    report(6, "saturation of generators", not failures,
           f"failures={failures}, {time.time()-t0:.1f}s")


def test_criterion_7_reduction_lemma_avatar():
    t0 = time.time()
    S3 = symmetric_group(3)
    corpus = [terminal_category(), arrow_category(),
              poset_from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")]).to_fincat()]
    gact_of = {id(C): trivial_action(trivial_group(), C) for C in corpus}
    failures = 0
    checks = 0
    subs = subgroups(S3)
    for Hp in subs:
        for H in subs:
            if not set(H.elements) <= set(Hp.elements):
                continue
            for C in corpus:
                rc = restriction_comparison(C, H, Hp, g_act=gact_of[id(C)], caps=WIDE_CAPS)
                checks += 1
                failures += not (rc.certificate.passed and rc.certificate.kind == "sufficient")
    report(7, "reduction lemma avatar", failures == 0,
           f"{checks} sufficient certificates, {time.time()-t0:.1f}s")


def test_criterion_8_exact_structural_identities():
    t0 = time.time()
    ok = True
    # N(C^H) equals N(C)^H on the nose for the equivariant corpus
    spans = dwyer_span_corpus(300, 6, "Z2") + dwyer_span_corpus(301, 4, "Z3")
    for span in spans:
        for H in subgroups(span.group):
            lhs = nerve(fixed_category(span.act_B, H), 3)
            rhs = fixed_sset(equivariant_nerve(span.act_B, 3), H)
            ok &= lhs.cells == rhs.cells
    # h(N(P)) = P exactly for seeded posets
    import random
    rng = random.Random(4)
    for _ in range(10):
        P = seeded_poset(rng, 5).to_fincat()
        ok &= h_poset_nerve(nerve(P, 3)).objects == P.objects
    # chaotic nerve counts: (EX)_n = X^{n+1}
    for size in (1, 2, 3, 4):
        N = nerve(chaotic_category([f"x{i}" for i in range(size)]), 3)
        ok &= all(N.total_count(n) == size ** (n + 1) for n in range(4))
    # |Ob((EH×G)/Γ)| = |G|
    hom_24 = {"c0": "c0", "c1": "c2"}
    for K, G, phi in [(Z2, Z2, PHI_ID), (Z2, Z4, hom_24),
                      (Z4, Z4, {g: g for g in Z4.elements})]:
        cell = cell_category(K, G, K, phi)
        ok &= cell.category.n_objects() == len(G.elements)
    report(8, "exact structural identities", ok, f"{time.time()-t0:.1f}s")


def test_criterion_9_transfer_harness():
    t0 = time.time()
    triv_sub = subgroup_from_elements(Z2, ["c0"])
    I = [generating_maps(GeneratorSpec("g_global_thin", n,
                                       params={"H": Z2, "G": Z2, "phi": PHI_ID}), WIDE_CAPS)
         for n in (0, 1)]
    J = [generating_maps(GeneratorSpec("g_global_thin", 1, k=k, acyclic=True,
                                       params={"H": Z2, "G": Z2, "phi": PHI_ID}), WIDE_CAPS)
         for k in (0, 1)]
    rep = check_transfer_conditions(I, J, ("fun_e", Z2), 3, WIDE_CAPS)
    elapsed = time.time() - t0
    report(9, "transfer-hypothesis harness", rep["all_passed"] and elapsed < 300,
           f"(1):{[e['passed'] for e in rep['condition1']]} "
           f"(2):{[e['passed'] for e in rep['condition2']]} "
           f"(3):{[e['passed'] for e in rep['condition3']]} {elapsed:.1f}s")


def test_the_script_runs_from_a_plain_checkout(tmp_path):
    """`scripts/run_acceptance.py` finds gcat in the checkout's src, with no
    install and no PYTHONPATH, and runs every criterion."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_acceptance.py"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "acceptance: 9/9 criteria passed" in proc.stdout


def test_make_corpus_runs_from_a_plain_checkout(tmp_path):
    """`scripts/make_corpus.py` finds gcat in the checkout's src, with no
    install and no PYTHONPATH, and its index hashes each span's document."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_corpus.py"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(script), "--seed", "1", "--count", "2",
                           "--group", "Z2", "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    index = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))
    assert len(index["spans"]) == 2
    for entry in index["spans"]:
        doc = json.loads((tmp_path / entry["file"]).read_text(encoding="utf-8"))
        assert entry["hash"] == ser.content_hash(doc)
