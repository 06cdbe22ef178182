"""Simplicial sets: normal forms, nerves, subdivision, Ex, homology, Kan."""

import hashlib
import heapq
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gcat
from gcat import serialize as ser

from gcat.errors import GcatError, NotAPosetNerve, SizeCapExceeded
from gcat.config import DEFAULT_CAPS, WIDE_CAPS, SizeCaps
from gcat.fincat import (
    Functor,
    arrow_category,
    chain_poset,
    discrete_category,
    functor_category_data,
    identity_functor,
    poset_from_relation,
    product_category,
    terminal_category,
)
from gcat.actions import (
    MonoidActionCat,
    chaotic_action,
    chaotic_category,
    cyclic_group,
    delooping,
    subgroup_from_elements,
    symmetric_group,
    translation_action,
)
from gcat.corpus import emap_corpus, emap_equivariant_corpus, seeded_category
from gcat.sset import (
    FinSSet,
    MonoidActionSSet,
    SSetMap,
    boundary_complex,
    chain_poset_of,
    complex_inclusion,
    complex_to_sset,
    compose_tuples,
    e_map,
    equivariant_nerve,
    ex,
    ex_action,
    face_poset,
    fixed_sset,
    h_poset_nerve,
    h_sd2,
    h_sd2_map,
    homology,
    horn_complex,
    is_identity_alpha,
    is_kan_complex,
    is_kan_complex_lazy_ex,
    is_kan_fibration,
    lastvertex_map,
    make_complex,
    nerve,
    nerve_functor,
    pi0,
    pushout_sset,
    sd_complex,
    standard_simplex_complex,
    boundary_matrix,
    identity_sset_map,
    _SdData,
    _alphas,
    _enumerate_sd_maps,
    _sd_steps,
    delta,
)
from gcat.dwyer import dwyer_pushout, find_dwyer_witness
from gcat.serialize import category_from_doc, sset_from_doc
from gcat.weq import GeneratorSpec, generating_maps
from gcat.smith import _Sparse, smith_invariants


# -- oracles ---------------------------------------------------------------


def brute_force_chains(cat, n):
    """Independent chain enumeration: identity-free composable n-chains."""
    if n == 0:
        return [((x,),) for x in cat.objects]
    nonid = [m for m in cat.morphism_ids if not cat.is_identity(m)]
    chains = [(m,) for m in nonid]
    for _ in range(n - 1):
        chains = [c + (m,) for c in chains for m in nonid if cat.dst[c[-1]] == cat.src[m]]
    return chains


def sympy_invariants(n_rows, n_cols, entries):
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form
    if not entries:
        return []
    M = Matrix(n_rows, n_cols, lambda r, c: entries.get((r, c), 0))
    snf = smith_normal_form(M)
    return sorted(abs(snf[i, i]) for i in range(min(n_rows, n_cols)) if snf[i, i] != 0)


# -- nerves ----------------------------------------------------------------


def test_nerve_counts_against_brute_force():
    for cat in [terminal_category(), arrow_category(), chaotic_category(["a", "b"]),
                chain_poset(2).to_fincat(), delooping(cyclic_group(2))]:
        N = nerve(cat, 3)
        for n in range(1, 4):
            assert N.n_nondeg(n) == len(brute_force_chains(cat, n))


def test_nerve_of_point_and_arrow():
    assert [nerve(terminal_category(), 3).n_nondeg(n) for n in range(4)] == [1, 0, 0, 0]
    assert [nerve(arrow_category(), 3).n_nondeg(n) for n in range(4)] == [2, 1, 0, 0]


def test_chaotic_nerve_product_formula():
    # (EX)_n = X^{n+1} in total; nondegenerate count |X|·(|X|-1)^n
    for size in (1, 2, 3):
        X = [f"x{i}" for i in range(size)]
        N = nerve(chaotic_category(X), 3)
        for n in range(4):
            assert N.total_count(n) == size ** (n + 1)
            assert N.n_nondeg(n) == size * (size - 1) ** n


def test_nerve_preserves_products():
    arrow = arrow_category()
    sq = product_category(arrow, arrow)
    n1 = nerve(sq, 3)
    n2 = product_sset(nerve(arrow, 3), nerve(arrow, 3))
    for n in range(4):
        assert n1.n_nondeg(n) == n2.n_nondeg(n)


def test_simplicial_identities_hold_everywhere():
    builds = [
        nerve(chaotic_category(["a", "b"]), 3),
        nerve(delooping(cyclic_group(2)), 3),
        complex_to_sset(boundary_complex(2), 3),
        product_sset(nerve(arrow_category(), 3), complex_to_sset(standard_simplex_complex(1), 3)),
    ]
    for X in builds:
        X.validate()  # includes the exhaustive d_i d_j check


def simplex_doc():
    """The document of Δ², faces listed as [dim, id, [[core, alpha], ...]]."""
    return complex_to_sset(standard_simplex_complex(2), 2).to_doc()


def corrupt_face(doc, sid, i, nf):
    """`doc` with face d_i of the simplex `sid` replaced by the normal form `nf`."""
    for entry in doc["faces"]:
        if entry[1] == sid:
            entry[2][i] = nf
    return doc


def as_edge_doc(doc):
    """`doc` replaced in place by the document of Δ¹ at cap 2."""
    doc.clear()
    doc.update(complex_to_sset(standard_simplex_complex(1), 2).to_doc())
    return doc


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(lambda d: d["cells"]["0"].reverse(),
                 "simplex ids at dim 0 not sorted/unique", id="unsorted-ids"),
    pytest.param(lambda d: d["faces"][-1][2].pop(),
                 "faces missing for (2,0,1,2)", id="missing-face"),
    pytest.param(lambda d: corrupt_face(d, "0,1,2", 0, ["0", [1, 0]]),
                 "bad face normal form on (2,0,1,2)", id="non-monotone-alpha"),
    pytest.param(lambda d: corrupt_face(d, "0,1,2", 0, ["0", [0, 2]]),
                 "face alpha not surjective on (2,0,1,2)", id="non-surjective-alpha"),
    pytest.param(lambda d: corrupt_face(d, "0,1", 1, ["9", [0]]),
                 "face core '9' unknown at dim 0", id="unknown-core"),
    # d_0 and d_1 swapped: d_0 d_2 = 1 but d_1 d_0 = 0
    pytest.param(lambda d: corrupt_face(corrupt_face(d, "0,1,2", 0, ["0,2", [0, 1]]),
                                        "0,1,2", 1, ["1,2", [0, 1]]),
                 "simplicial identity fails at (2,0,1,2,d0,d2)", id="broken-identity"),
    # d_0 the degenerate edge on 1, whose faces are pulled: d_0 d_1 = 2 but d_0 d_0 = 1
    pytest.param(lambda d: corrupt_face(d, "0,1,2", 0, ["1", [0, 0]]),
                 "simplicial identity fails at (2,0,1,2,d0,d1)", id="broken-identity-degenerate-face"),
    pytest.param(lambda d: corrupt_face(d.update(cap=1) or d, "0,1,2", 0, ["nope", [0, 1]]),
                 "simplices stored above cap 1", id="above-cap"),
    pytest.param(lambda d: (d.update(cap=1), d["cells"].pop("2")),
                 "simplices stored above cap 1", id="face-above-cap"),
    pytest.param(lambda d: as_edge_doc(d)["faces"].append([1, "ghost", [["nope", [0]], ["0", [0]]]]),
                 "faces stored for unknown simplex (1,ghost)", id="faces-of-unknown-simplex"),
    pytest.param(lambda d: as_edge_doc(d)["cells"].update({"-1": ["q"]}),
                 "cells stored at negative dimension -1", id="negative-dimension"),
])
def test_validate_rejects_each_malformed_document(corrupt, message):
    doc = simplex_doc()
    assert sset_from_doc(doc).to_doc() == doc
    corrupt(doc)
    with pytest.raises(GcatError) as info:
        sset_from_doc(doc)
    assert str(info.value) == message


def break_one_identity(n, i, j):
    """The document of Δⁿ with the identity d_i d_j = d_{j-1} d_i (i < j) of
    its top simplex broken and every other identity kept: d_j is replaced by
    a twin whose face i is a twin of the old one, with the same faces."""
    doc = complex_to_sset(standard_simplex_complex(n), n).to_doc()
    faces = {sid: fs for _, sid, fs in doc["faces"]}
    top = doc["cells"][str(n)][0]
    y = faces[top][j][0]
    z = faces[y][i][0]
    doc["cells"][str(n - 2)].append(z + "'")
    if n > 2:
        doc["faces"].append([n - 2, z + "'", faces[z]])
    doc["cells"][str(n - 1)].append(y + "'")
    doc["faces"].append([n - 1, y + "'", [[z + "'", f[1]] if k == i else f
                                          for k, f in enumerate(faces[y])]])
    faces[top][j] = [y + "'", faces[top][j][1]]
    for ids in doc["cells"].values():
        ids.sort()
    return doc, top


@pytest.mark.parametrize("n, i, j", [(n, i, j) for n in (2, 3) for j in range(n + 1) for i in range(j)])
def test_validate_names_each_broken_identity(n, i, j):
    doc, top = break_one_identity(n, i, j)
    with pytest.raises(GcatError) as info:
        sset_from_doc(doc)
    assert str(info.value) == f"simplicial identity fails at ({n},{top},d{i},d{j})"


def test_faces_of_degenerate_simplices_against_pull():
    """`faces_of` on a degenerate simplex, in one step per face, gives what
    pulling along each coface gives."""
    builds = [nerve(delooping(symmetric_group(3)), 4), nerve(chaotic_category(["a", "b", "c", "d"]), 4),
              complex_to_sset(boundary_complex(2), 3), ex(complex_to_sset(boundary_complex(2), 3), 3).sset]
    for X in builds:
        checked = 0
        for n in range(1, 5):
            for nf in X.all_simplices(n):
                if nf[1][-1] < n:
                    assert X.faces_of(nf) == tuple(X.pull(nf, delta(i, n)) for i in range(n + 1)), nf
                    checked += 1
        assert checked


def test_alpha_lookup_against_the_predicate():
    """A tuple is in `_alphas(len - 1)` exactly when it is monotone and onto
    [its last entry], over every int tuple of length 1 to 5 with entries in -1..5."""
    for length in range(1, 6):
        alphas = _alphas(length - 1)
        for t in itertools.product(range(-1, 6), repeat=length):
            monotone = all(t[k] <= t[k + 1] for k in range(length - 1))
            assert (t in alphas) == (monotone and set(t) == set(range(t[-1] + 1))), t


def test_validate_above_the_alpha_table():
    """Above dimension 10 `_alphas` holds no table, and the length,
    monotonicity and surjectivity tests decide each alpha alone: a 12-simplex
    whose faces all collapse to one vertex is valid, and so is its identity
    map; a non-monotone or non-surjective face alpha is still named."""
    def doc(alpha):
        return {"cap": 12, "cells": {"0": ["v"], "12": ["x"]},
                "faces": [[12, "x", [["v", alpha]] + [["v", [0] * 12]] * 12]]}
    X = sset_from_doc(doc([0] * 12))
    SSetMap(X, X, dict(identity_sset_map(X).values)).validate()
    for alpha, message in [([1] + [0] * 11, "bad face normal form on (12,x)"),
                           ([1] * 12, "face alpha not surjective on (12,x)")]:
        with pytest.raises(GcatError) as info:
            sset_from_doc(doc(alpha))
        assert str(info.value) == message
    values = {(0, "v"): ("v", (0,)), (12, "x"): ("x", (1,) * 13)}
    with pytest.raises(GcatError) as info:
        SSetMap(X, X, values).validate()
    assert str(info.value) == "map value alpha not a monotone surjection on (12,x)"


@pytest.mark.parametrize("change, message", [
    pytest.param(lambda v: v.pop((1, "0,2")), "map undefined on (1,0,2)", id="undefined"),
    pytest.param(lambda v: v.update({(1, "0,2"): ("0,2", (0, 1, 2))}),
                 "map changes dimension on (1,0,2)", id="changes-dimension"),
    pytest.param(lambda v: v.update({(1, "0,2"): ("0,3", (0, 1))}),
                 "map value core unknown on (1,0,2)", id="unknown-core"),
    pytest.param(lambda v: v.update({(1, "0,1"): ("0,1", (1, 1))}),
                 "map value alpha not a monotone surjection on (1,0,1)", id="alpha-not-onto"),
    pytest.param(lambda v: v.update({(2, "0,1,2"): ("0,1", (0, 1, 0))}),
                 "map value alpha not a monotone surjection on (2,0,1,2)", id="alpha-not-monotone"),
    pytest.param(lambda v: v.update({(1, "0,1"): ("1,2", (0, 1))}),
                 "map breaks face d0 on (1,0,1)", id="breaks-edge-face"),
    pytest.param(lambda v: v.update({(2, "0,1,2"): ("0", (0, 0, 0))}),
                 "map breaks face d0 on (2,0,1,2)", id="breaks-triangle-face"),
])
def test_sset_map_validate_rejects_each_broken_map(change, message):
    X = complex_to_sset(standard_simplex_complex(2), 2)
    values = dict(identity_sset_map(X).values)
    SSetMap(X, X, values).validate()
    change(values)
    with pytest.raises(GcatError) as info:
        SSetMap(X, X, values).validate()
    assert str(info.value) == message


def test_validate_pulls_each_distinct_face_once(monkeypatch):
    """`validate` reads the n faces of each distinct stored (n-1)-dimensional
    face normal form once, with `faces_of`: a nondegenerate one's are its
    stored faces, and a degenerate one's come in one step each from its
    core's stored faces, so nothing is pulled."""
    Z2 = cyclic_group(2)
    gm = generating_maps(GeneratorSpec("g_global_thin", 1, params={
        "H": Z2, "G": Z2, "phi": {h: h for h in Z2.elements}}))
    fun = functor_category_data(chaotic_category(Z2.elements), gm.functor.source, WIDE_CAPS).cat
    builds = [nerve(delooping(symmetric_group(3)), 4), nerve(fun, 3, WIDE_CAPS)]
    reads = pulls = 0
    faces_of, pull = FinSSet.faces_of, FinSSet.pull

    def counting_faces_of(self, nf):
        nonlocal reads
        reads += 1
        return faces_of(self, nf)

    def counting_pull(self, nf, f):
        nonlocal pulls
        pulls += 1
        return pull(self, nf, f)

    monkeypatch.setattr(FinSSet, "faces_of", counting_faces_of)
    monkeypatch.setattr(FinSSet, "pull", counting_pull)
    counts = []
    for X in builds:
        reads = pulls = 0
        X.validate(WIDE_CAPS)
        distinct = {n: {nf for sid in X.cells[n] for nf in X.faces[(n, sid)]}
                    for n in X.dims() if n >= 2}
        assert reads == sum(len(faces) for faces in distinct.values())
        assert pulls == 0
        counts.append((reads, sum(n * len(faces) for n, faces in distinct.items())))
    # the last entry is the n faces of every distinct face, read stored or
    # built in one step: the 917 and 424 faces that were all pulled before
    # stored faces were read
    assert counts == [(241, 917), (152, 424)]


def test_pull_against_composite_chains():
    """pull along every monotone f: [k] -> [n] gives the chain of composites
    of the simplex's arrows between f's vertices, identities dropped."""
    for cat in [arrow_category(), chain_poset(3).to_fincat(),
                chaotic_category(["a", "b", "c"]), delooping(cyclic_group(2))]:
        N = nerve(cat, 3)
        cores = {"|".join(ch): ch for n in range(1, 4) for ch in brute_force_chains(cat, n)}
        for n in range(4):
            for cid, alpha in N.all_simplices(n):
                core = cores[cid] if alpha[-1] else ()
                objects = [cat.src[core[0]]] + [cat.dst[m] for m in core] if core else [cid]
                vertices = [objects[a] for a in alpha]
                arrows = [core[alpha[t]] if alpha[t + 1] > alpha[t] else cat.identity[vertices[t]]
                          for t in range(n)]
                for k in range(4):
                    for f in itertools.combinations_with_replacement(range(n + 1), k + 1):
                        composites = []
                        for a, b in zip(f, f[1:]):
                            m = cat.identity[vertices[a]]
                            for arrow in arrows[a:b]:
                                m = cat.compose[(arrow, m)]
                            composites.append(m)
                        kept = [not cat.is_identity(m) for m in composites]
                        nonid = [m for m, keep in zip(composites, kept) if keep]
                        expect = ("|".join(nonid) if nonid else vertices[f[0]],
                                  tuple(itertools.accumulate(kept, initial=0)))
                        assert N.pull((cid, alpha), f) == expect, (cid, alpha, f)


def test_huge_cap_and_alpha_entries_are_read_in_bounded_time():
    """A document's cap and alpha entries are JSON integers of any size:
    `dims` ranged over 0..cap, and the surjectivity test of an alpha built the
    set 0..alpha[-1], so these hung or ran out of memory."""
    doc = complex_to_sset(standard_simplex_complex(1), 1).to_doc()
    doc["cap"] = 10 ** 12
    X = sset_from_doc(doc)
    assert X.dims() == [0, 1]
    values = {(0, "0"): ("0", (0,)), (0, "1"): ("1", (0,)), (1, "0,1"): ("0,1", (0, 10 ** 12))}
    with pytest.raises(GcatError) as info:
        SSetMap(X, X, values).validate()
    assert str(info.value) == "map value alpha not a monotone surjection on (1,0,1)"
    doc["faces"][0][2][0][1] = [10 ** 12]
    with pytest.raises(GcatError) as info:
        sset_from_doc(doc)
    assert str(info.value) == "face alpha not surjective on (1,0,1)"


# -- complexes, subdivision, hSd² -------------------------------------------


def test_standard_cells():
    assert complex_to_sset(boundary_complex(1)).n_nondeg(0) == 2
    horn = complex_to_sset(horn_complex(2, 1))
    assert horn.n_nondeg(0) == 3 and horn.n_nondeg(1) == 2
    assert max((len(f) - 1 for f in boundary_complex(0).faces), default=-1) == -1


def test_sd_counts_against_chain_enumeration():
    for K in [standard_simplex_complex(0), standard_simplex_complex(1),
              standard_simplex_complex(2), boundary_complex(2)]:
        P = face_poset(K)
        SK = sd_complex(K)
        assert len(P.elements) == len(K.faces)
        # one j-simplex per length-(j+1) chain, via direct chain counting
        for j in range(0, 3):
            chains = 0
            for combo in itertools.combinations(sorted(K.faces, key=lambda f: (len(f), f)), j + 1):
                ok = all(set(combo[i]) < set(combo[i + 1]) for i in range(j))
                chains += ok
            assert len([f for f in SK.faces if len(f) == j + 1]) == chains


def test_sd_complex_of_interval():
    SK = sd_complex(standard_simplex_complex(1))
    assert len([f for f in SK.faces if len(f) == 1]) == 3
    assert len([f for f in SK.faces if len(f) == 2]) == 2


def test_double_sd_of_circle_is_12_gon():
    SK = sd_complex(sd_complex(boundary_complex(2)))
    assert len([f for f in SK.faces if len(f) == 1]) == 12
    assert len([f for f in SK.faces if len(f) == 2]) == 12
    assert homology(complex_to_sset(SK, 2), 2) == [(1, ()), (1, ())]


def test_h_sd2_sizes():
    assert h_sd2(standard_simplex_complex(0)).n_objects() == 1
    assert h_sd2(standard_simplex_complex(1)).n_objects() == 5
    m = h_sd2_map(boundary_complex(1), standard_simplex_complex(1))
    assert m.source.n_objects() == 2
    assert all(m.source.is_identity(mm) for mm in m.source.morphism_ids)
    assert m.target.n_objects() == 5


def subdivision_complexes():
    """Δⁿ and ∂Δⁿ for n <= 3, every horn Λⁿ_k for n <= 3, and Sd Sd ∂Δ²."""
    out = [(f"D{n}", standard_simplex_complex(n)) for n in range(4)]
    out += [(f"bD{n}", boundary_complex(n)) for n in range(4)]
    out += [(f"L{n}_{k}", horn_complex(n, k)) for n in range(1, 4) for k in range(n + 1)]
    out.append(("sd sd bD2", sd_complex(sd_complex(boundary_complex(2)))))
    return out


def poset_doc(P):
    return [list(P.elements), sorted(P.leq)]


def h_sd2_doc(K):
    try:
        return h_sd2(K).to_doc()
    except SizeCapExceeded as exc:   # hSd² of Δ³ and ∂Δ³ exceed the object cap
        return str(exc)


#: sha256 of the face poset, Sd, hSd² and chain poset of the face poset of
#: every complex of `subdivision_complexes`, computed at commit a1b147b,
#: when each builder enumerated its chains with its own recursion
SUBDIVISION_DIGEST = "31f5b11596e04a657d7198bd5cd22916484a01995f5be5eb81a06bad56c8dc26"


def test_subdivisions_match_the_pinned_digest():
    h = hashlib.sha256()
    for label, K in subdivision_complexes():
        doc = [label, poset_doc(face_poset(K)), ser.complex_doc(sd_complex(K)),
               h_sd2_doc(K), poset_doc(chain_poset_of(face_poset(K)))]
        h.update(json.dumps(doc).encode())
    assert h.hexdigest() == SUBDIVISION_DIGEST


#: sha256 of `_SdData(n)`'s chains, search steps, blocks and segments (each
#: segment key applied to the step numbers) for n <= 4, computed at commit
#: a1b147b
SD_DATA_DIGEST = "9065669dfeb49b8ff1311e98c916ca573f7df3dd9756c1bb8a39a574ce7ba81b"


def test_sd_data_matches_the_pinned_digest():
    h = hashlib.sha256()
    for n in range(5):
        sdd = _SdData(n)
        steps = range(len(sdd.search_steps))
        doc = [n, sdd.chains, sdd.search_steps, sdd.blocks,
               [(start, end, None if key is None else key(steps)) for start, end, key in sdd.segments]]
        h.update(json.dumps(doc).encode())
    assert h.hexdigest() == SD_DATA_DIGEST


def test_subdivision_invariance_of_homology():
    for K in [standard_simplex_complex(1), standard_simplex_complex(2),
              boundary_complex(2), horn_complex(2, 0)]:
        a = homology(complex_to_sset(K, 3), 3)
        b = homology(complex_to_sset(sd_complex(K), 3), 3)
        assert a == b


def test_h_on_poset_nerves_and_refusal():
    P = chain_poset(2).to_fincat()
    assert h_poset_nerve(nerve(P, 3)).objects == P.objects
    with pytest.raises(NotAPosetNerve):
        h_poset_nerve(nerve(chaotic_category(["a", "b"]), 2))


# -- homology ---------------------------------------------------------------


def test_homology_simplices_and_sphere():
    assert homology(complex_to_sset(standard_simplex_complex(2), 3), 3) == \
        [(1, ()), (0, ()), (0, ())]
    assert homology(complex_to_sset(boundary_complex(2), 3), 3) == \
        [(1, ()), (1, ()), (0, ())]


def test_homology_above_the_cap_of_its_set_is_refused():
    """H_k reads the simplices up to dimension k + 1: the filled triangle
    stored at cap 1 is its 1-skeleton, a circle, so degrees 0..2 are refused
    (they used to give H_1 = Z)."""
    X = complex_to_sset(standard_simplex_complex(2), 1)
    assert homology(X, 1) == homology(X) == [(1, ())]
    with pytest.raises(GcatError) as info:
        homology(X, 3)
    assert str(info.value) == "homology at cap 3 needs X's simplices to dimension 3; X has cap 1"


def test_homology_contractible_groupoid():
    # the chaotic groupoid on a group is contractible
    N = nerve(translation_action(cyclic_group(2)).carrier, 4)
    assert homology(N, 4) == [(1, ()), (0, ()), (0, ()), (0, ())]


def test_homology_bz2_torsion():
    N = nerve(delooping(cyclic_group(2)), 4)
    assert homology(N, 4) == [(1, ()), (0, (2,)), (0, ()), (0, (2,))]


def test_smith_against_sympy_on_boundaries(monkeypatch):
    """Each whole boundary, and each boundary as `homology` reduces it, with
    the rows of the unit pivots of the degree below left out."""
    reduced = []

    def recording(n_rows, n_cols, entries, unit_cols=None):
        reduced.append((n_rows, n_cols, dict(entries)))
        return smith_invariants(n_rows, n_cols, entries, unit_cols)

    monkeypatch.setattr("gcat.sset.smith_invariants", recording)
    whole = []
    for X in [nerve(delooping(cyclic_group(2)), 3),
              complex_to_sset(boundary_complex(2), 3),
              nerve(chaotic_category(["a", "b"]), 3),
              nerve(delooping(cyclic_group(3)), 3),
              complex_to_sset(boundary_complex(3), 3)]:
        whole += [boundary_matrix(X, n) for n in range(1, 4)]
        homology(X, 3)
    assert [r for r, _, _ in whole] == [1, 1, 1, 3, 3, 0, 2, 2, 2, 1, 2, 4, 4, 6, 4]
    assert [r for r, _, _ in reduced] == [1, 1, 1, 3, 1, 0, 2, 1, 1, 1, 2, 3, 4, 3, 1]
    for r, c, entries in whole + reduced:
        assert smith_invariants(r, c, entries) == sympy_invariants(r, c, entries)


def test_smith_against_sympy_on_random_matrices():
    rng = random.Random(11)
    for _ in range(150):
        r, c, density = rng.randint(1, 8), rng.randint(1, 8), rng.random()
        entries = {(i, j): rng.choice((0, 1, -1, 2, -2, 3, 4, 6))
                   for i in range(r) for j in range(c) if rng.random() < density}
        assert smith_invariants(r, c, entries) == sympy_invariants(r, c, entries), entries
    assert smith_invariants(2, 2, {(0, 0): 2, (1, 1): 3}) == [1, 6]
    assert smith_invariants(2, 2, {(0, 0): 4, (1, 1): 6}) == [2, 12]
    with pytest.raises(ValueError):
        smith_invariants(2, 2, {(2, 0): 1})


def test_smith_against_sympy_on_mostly_unit_matrices():
    """Sparse matrices of mostly +-1, like the boundaries of nerves: the unit
    pivots, -1 ones among them, go through the row-only phase."""
    rng = random.Random(12)
    negative_pivots = 0
    for _ in range(120):
        r, c, density = rng.randint(1, 9), rng.randint(1, 9), rng.uniform(0.15, 0.6)
        entries = {(i, j): rng.choice((1, -1, 1, -1, 1, -1, 2, -3))
                   for i in range(r) for j in range(c) if rng.random() < density}
        negative_pivots += -1 in entries.values()
        assert smith_invariants(r, c, entries) == sympy_invariants(r, c, entries), entries
    assert negative_pivots >= 90
    # every entry is -1
    minus = {(0, 0): -1, (0, 1): -1, (1, 1): -1, (1, 2): -1, (2, 0): -1, (2, 2): -1}
    assert smith_invariants(3, 3, minus) == sympy_invariants(3, 3, minus) == [1, 1, 2]


def test_smith_finds_units_that_elimination_creates():
    """Column 1 holds no unit until column 0 is cleared (3 - 2 = 1), and in
    the second matrix column 2 none until column 1 is (-7 + 4 * 2 = 1): the
    unit phase takes them too and leaves nothing for the gcd stage."""
    for entries in ({(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 3},
                    {(0, 0): -1, (0, 1): 2, (1, 0): 1, (1, 1): -3, (1, 2): 2, (2, 1): 4, (2, 2): -7}):
        n = 1 + max(max(k) for k in entries)
        assert smith_invariants(n, n, entries) == sympy_invariants(n, n, entries)
        m = _Sparse(entries)
        assert m.eliminate_units(n) == list(range(n)) and not m.rows and not m.cols


def test_smith_on_empty_and_zero_lines():
    assert smith_invariants(0, 0, {}) == []
    assert smith_invariants(3, 4, {}) == sympy_invariants(3, 4, {}) == []
    assert smith_invariants(2, 2, {(0, 0): 0, (1, 1): 0}) == []
    zero_row = {(0, 0): 1, (0, 1): -1, (2, 0): 2, (2, 1): 2}
    zero_col = {(0, 0): -1, (1, 0): 1, (0, 2): 3, (1, 2): 3}
    for r, c, entries, factors in ((3, 2, zero_row, [1, 4]), (2, 3, zero_col, [1, 6])):
        assert smith_invariants(r, c, entries) == sympy_invariants(r, c, entries) == factors


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_smith_against_sympy_property(data):
    r, c = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    entries = data.draw(st.dictionaries(
        st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)),
        st.sampled_from((1, -1, 0, 2, -2, 3, -4, 6))))
    assert smith_invariants(r, c, entries) == sympy_invariants(r, c, entries)


def unit_free_matrix(n):
    """An n x n matrix with no +-1 entry, drawn from random.Random(5): each
    entry is nonzero with probability 0.3, one of 2, -2, 4, 6, 3.  The unit
    phase finds no pivot in it, so the gcd stage reduces all of it."""
    rng = random.Random(5)
    return {(i, j): rng.choice((2, -2, 4, 6, 3))
            for i in range(n) for j in range(n) if rng.random() < 0.3}


#: sha256 of json.dumps of sympy's invariant factors of unit_free_matrix(40)
#: (sorted nonzero |diagonal| of `smith_normal_form`, sympy 1.14, 37 s)
UNIT_FREE_40_DIGEST = "543593ee67c890c37d330a826cca71e095bced90e2077cb03d41154e8cb9db0f"


def test_smith_on_unit_free_matrices(monkeypatch):
    """Without unit pivots the gcd stage does all the work.  Its entries once
    grew to 198,162 bits at n = 25, and n = 40 did not finish in 100 s.  It
    reads each entry through `abs` when it picks a pivot, and at n = 40 none
    is longer than the largest invariant factor, 111 bits."""
    for n in (25, 30, 35):
        entries = unit_free_matrix(n)
        assert smith_invariants(n, n, entries) == sympy_invariants(n, n, entries), n
    bits = []
    monkeypatch.setattr("gcat.smith.abs", lambda v: bits.append(v.bit_length()) or abs(v),
                        raising=False)
    invariants = smith_invariants(40, 40, unit_free_matrix(40))
    assert len(invariants) == 40 and invariants[-1].bit_length() == max(bits) == 111
    assert hashlib.sha256(json.dumps(invariants).encode()).hexdigest() == UNIT_FREE_40_DIGEST


#: sha256 of the shape, nonzero count and invariant factors of every boundary
#: of `smith_digest_nerves`, computed at commit 1655916 with its one-phase gcd
#: elimination
SMITH_DIGEST = "59b387db9b48a07def6dc16a0e54931096674801eb1a8a47e912ddea3a98435f"


def smith_digest_nerves():
    """BZ2-BZ5, BS3 and E(2)-E(4) at cap 4; Fun(E(Z2), D) at cap 3 for D the
    source and target of g_global_thin n = 0, 1; and the S1 and S2 pushouts
    (hSd2(D^n) with hSd2(bD^n) collapsed) at caps 3 and 4."""
    out = [(f"BZ{n}", nerve(delooping(cyclic_group(n)), 4)) for n in range(2, 6)]
    out.append(("BS3", nerve(delooping(symmetric_group(3)), 4)))
    out += [(f"E({k})", nerve(chaotic_category([f"x{i}" for i in range(k)]), 4))
            for k in range(2, 5)]
    Z2 = cyclic_group(2)
    EH = chaotic_category(Z2.elements)
    for n in (0, 1):
        gm = generating_maps(GeneratorSpec("g_global_thin", n, params={
            "H": Z2, "G": Z2, "phi": {h: h for h in Z2.elements}}), WIDE_CAPS)
        for side, D in (("source", gm.functor.source), ("target", gm.functor.target)):
            C = functor_category_data(EH, D, WIDE_CAPS).cat
            out.append((f"Fun(E(Z2),{side} n={n})", nerve(C, 3, WIDE_CAPS)))
    one = terminal_category()
    for n in (1, 2):
        i = h_sd2_map(boundary_complex(n), standard_simplex_complex(n))
        A = i.source
        c = Functor(A, one, {x: "*" for x in A.objects},
                    {m: "id*" for m in A.morphism_ids}).validate()
        po = dwyer_pushout(A, i.target, one, i, c, find_dwyer_witness(i))
        out.append((f"S{n}", nerve(po.category, n + 2)))
    return out


def test_smith_invariants_match_the_pinned_digest():
    """The same invariant factors, boundary for boundary, as the one-phase
    gcd elimination that the unit phase was put in front of."""
    rows = []
    for name, X in smith_digest_nerves():
        for n in range(1, X.cap + 1):
            r, c, entries = boundary_matrix(X, n)
            rows.append([name, n, r, c, len(entries), smith_invariants(r, c, entries)])
    assert len(rows) == 51 and max(row[4] for row in rows) == 8328
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SMITH_DIGEST


def uncompressed_homology(X, cap):
    """`homology` before compression: each degree's factors are those of the
    whole `boundary_matrix`."""
    ranks, torsion = {0: 0}, {}
    for n in range(1, cap + 1):
        inv = smith_invariants(*boundary_matrix(X, n))
        ranks[n], torsion[n] = len(inv), tuple(d for d in inv if d > 1)
    return [(X.n_nondeg(k) - ranks[k] - ranks[k + 1], torsion[k + 1]) for k in range(cap)]


def benchmark_cone_posets():
    """The random posets of the homology benchmark, drawn in its order from
    random.Random(1): six cones on five elements below a top, then three
    disjoint unions of three cones on three."""
    rng = random.Random(1)
    out = []
    for count, parts, size in ((6, 1, 5), (3, 3, 3)):
        for _ in range(count):
            els, pairs = [], []
            for p in range(parts):
                names = [f"q{p}.{j}" for j in range(size)]
                els += names + [f"q{p}.top"]
                pairs += [(x, f"q{p}.top") for x in names]
                pairs += [(names[a], names[b]) for a in range(size) for b in range(a + 1, size)
                          if rng.random() < 0.35]
            out.append(poset_from_relation(els, pairs).to_fincat())
    return out


def homology_digest_nerves():
    """The nerves of `smith_digest_nerves`, BZ6 at cap 4, and the nerves of
    the homology benchmark's other categories: [1]-[4] at cap 4 and its
    random cones at cap 3."""
    out = smith_digest_nerves()
    out.append(("BZ6", nerve(delooping(cyclic_group(6)), 4)))
    out += [(f"[{n}]", nerve(chain_poset(n).to_fincat(), 4)) for n in range(1, 5)]
    out += [(f"cone{i}", nerve(C, 3)) for i, C in enumerate(benchmark_cone_posets())]
    return out


#: sha256 of `homology` of every nerve of `homology_digest_nerves`, computed
#: at commit 635373c, where each degree reduced the whole boundary
HOMOLOGY_DIGEST = "c5a606583763214b333c985a31fb5d71293ea480957f0d896da35ede4054a7b5"


def test_homology_matches_the_pinned_digest():
    rows = [[name, X.cap, homology(X)] for name, X in homology_digest_nerves()]
    assert len(rows) == 28 and sum(len(h) for _, _, h in rows) == 98
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == HOMOLOGY_DIGEST


def test_smith_leaves_each_boundary_of_homology_unchanged(monkeypatch):
    """`smith_invariants` copies the rows of each boundary that `homology`
    hands it, on every nerve of `homology_digest_nerves`: after the call the
    entries equal a copy taken before it, and the benchmark tracer's
    `nnz_in`, which reads them after the call returns, counts the same."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    nnz_in = importlib.import_module("tracer").COUNTERS[("smith", "smith_invariants")]
    counts = []

    def checking(n_rows, n_cols, entries, unit_cols=None):
        args = (n_rows, n_cols, entries, unit_cols)
        before, counted = dict(entries), nnz_in(args, {}, [])["nnz_in"]
        result = smith_invariants(*args)
        assert dict(entries) == before
        assert nnz_in(args, {}, result)["nnz_in"] == counted == len(before)
        counts.append(counted)
        return result

    monkeypatch.setattr("gcat.sset.smith_invariants", checking)
    for _, X in homology_digest_nerves():
        homology(X)
    assert len(counts) == 98 and sum(counts) == 18556


def test_unit_phase_stops_at_the_last_row(monkeypatch):
    """The largest boundary of the homology benchmark, ∂₃ of N(Fun(E(Z2), D))
    for D the target of g_global_thin n = 1, as `homology` reduces it: 459 x
    2,268 with 6,822 entries.  Its 459 unit pivots take every row by the
    927th pop, and the unit phase stops there; popping on until its heap was
    empty took 6,822 pops."""
    reduced = []

    def recording(n_rows, n_cols, entries, unit_cols=None):
        reduced.append((n_rows, n_cols, entries))
        return smith_invariants(n_rows, n_cols, entries, unit_cols)

    monkeypatch.setattr("gcat.sset.smith_invariants", recording)
    Z2 = cyclic_group(2)
    gm = generating_maps(GeneratorSpec("g_global_thin", 1, params={
        "H": Z2, "G": Z2, "phi": {h: h for h in Z2.elements}}), WIDE_CAPS)
    C = functor_category_data(chaotic_category(Z2.elements), gm.functor.target, WIDE_CAPS).cat
    homology(nerve(C, 3, WIDE_CAPS))
    n_rows, n_cols, entries = reduced[2]
    assert (n_rows, n_cols, len(entries)) == (459, 2268, 6822)
    pops = []
    monkeypatch.setattr("gcat.smith.heapq", types.SimpleNamespace(
        heapify=heapq.heapify, heappush=heapq.heappush,
        heappop=lambda heap: pops.append(None) or heapq.heappop(heap)))
    m = _Sparse(entries)
    assert len(m.eliminate_units(n_cols)) == n_rows and not m.rows
    assert len(pops) <= 1000


def test_homology_against_the_uncompressed_route():
    """Random complexes of edges, triangles and tetrahedra (no torsion, but
    many not contractible) and random categories (deloopings of Z2 and Z3
    have torsion in every odd degree)."""
    rng = random.Random(15)
    not_contractible = 0
    for _ in range(120):
        verts = range(rng.randint(4, 7))
        K = make_complex(rng.sample(verts, rng.randint(2, 4)) for _ in range(rng.randint(4, 12)))
        X = complex_to_sset(K, 4)
        h = homology(X, 4)
        assert h == uncompressed_homology(X, 4), sorted(K.faces)
        not_contractible += h != [(1, ())] + [(0, ())] * 3
    assert not_contractible == 51
    for seed in range(40):
        X = nerve(seeded_category(random.Random(seed)), 4)
        assert homology(X, 4) == uncompressed_homology(X, 4), seed


#: sha256 of the document of every nerve of `nerve_digest_nerves`, computed at
#: commit a1ed049, where each face was a composed chain put in normal form
NERVE_DIGEST = "92db94fd8f28f10ea17d064be43e8f7c3704b62fded440dd2e1098908b457e14"


def nerve_digest_nerves():
    """The nerves of `smith_digest_nerves`, N[1] and N(V) at cap 4, the
    discrete category on three objects and two parallel arrows at cap 3."""
    out = smith_digest_nerves()
    out += [(name, X) for name, X in emap_corpus(4) if name.startswith("N")]
    out.append(("discrete", nerve(discrete_category(["a", "b", "c"]), 3)))
    out.append(("parallel", nerve(parallel_arrows(), 3)))
    return out


def test_nerves_match_the_pinned_digest():
    """Faces built from the chain give the documents that normalizing each
    composed face chain gave, nerve for nerve."""
    docs = [[name, X.to_doc()] for name, X in nerve_digest_nerves()]
    assert len(docs) == 18
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == NERVE_DIGEST


def test_pi0():
    two = complex_to_sset(boundary_complex(1), 2)
    assert len(pi0(two)) == 2
    circle, _, _ = pushout_sset(
        complex_inclusion(boundary_complex(1), standard_simplex_complex(1)),
        complex_inclusion(boundary_complex(1), standard_simplex_complex(1)))
    assert len(pi0(circle)) == 1
    assert homology(circle, 2) == [(1, ()), (1, ())]


# -- Ex and its unit ---------------------------------------------------------


def fence_maps_oracle():
    """Monotone maps from the 3-element fence {0} < {01} > {1} to {0, 1}."""
    out = []
    for a, m, b in itertools.product((0, 1), repeat=3):
        if a <= m and b <= m:
            out.append((a, m, b))
    return out


def test_ex_interval_dimension_one_count():
    # oracle first: |Ex(Δ¹)₁| = monotone fence maps into [1]
    assert len(fence_maps_oracle()) == 5
    d1 = complex_to_sset(standard_simplex_complex(1), 2)
    exd = ex(d1, 2)
    assert exd.sset.total_count(1) == 5
    assert exd.sset.n_nondeg(1) == 3


def test_ex_point():
    exd = ex(complex_to_sset(standard_simplex_complex(0), 3), 3)
    assert [exd.sset.n_nondeg(n) for n in range(4)] == [1, 0, 0, 0]


def test_ex_of_ids_that_do_not_compare():
    # every simplex id is a string, so ids of types that do not compare never
    # reach the simplex table: int vertex ids make the document malformed
    with pytest.raises(TypeError) as info:
        sset_from_doc({"cap": 2, "cells": {"0": [0, 1], "1": ["e"]},
                       "faces": [[1, "e", [[1, [0]], [0, [0]]]]]})
    assert str(info.value) == "simplex id 0 is not a string"


def test_e_map_on_interval():
    d1 = complex_to_sset(standard_simplex_complex(1), 2)
    exd = ex(d1, 2)
    em = e_map(d1, exd).validate()
    assert em.is_injective()
    v = em.values[(1, "0,1")]
    assert v[1] == (0, 1)          # nondegenerate image
    # endpoints are preserved
    assert exd.sset.faces_of(v)[1] == em.values[(0, "0")]
    assert exd.sset.faces_of(v)[0] == em.values[(0, "1")]


def test_e_map_homology_small():
    for K in [standard_simplex_complex(1), boundary_complex(2)]:
        X = complex_to_sset(K, 3)
        exd = ex(X, 3)
        e_map(X, exd).validate()
        assert homology(X, 3) == homology(exd.sset, 3)


def test_ex_fixed_points_commute():
    Z2 = cyclic_group(2)
    sw = chaotic_action(Z2, {"c0": {"a": "a", "b": "b"}, "c1": {"a": "b", "b": "a"}})
    ens = equivariant_nerve(sw, 2)
    exd = ex(ens.carrier, 2)
    exact = ex_action(ens, exd)
    fixed_of_ex = fixed_sset(exact, Z2)
    ex_of_fixed = ex(fixed_sset(ens, Z2), 2)
    for n in range(3):
        assert fixed_of_ex.n_nondeg(n) == ex_of_fixed.sset.n_nondeg(n)


def test_e_map_equivariant():
    Z2 = cyclic_group(2)
    sw = chaotic_action(Z2, {"c0": {"a": "a", "b": "b"}, "c1": {"a": "b", "b": "a"}})
    ens = equivariant_nerve(sw, 2)
    exd = ex(ens.carrier, 2)
    exact = ex_action(ens, exd)
    em = e_map(ens.carrier, exd)
    for g in Z2.elements:
        assert ens.act[g].then(em).same_values(em.then(exact.act[g]))


def test_sd_map_search_on_boundary_of_triangle():
    """Sd Δ³ -> ∂Δ²: 654 maps, in the order (hashed as normal forms) of the
    normal-form search the int tables replaced; Ex keeps 477 nondegenerate."""
    X = complex_to_sset(boundary_complex(2), 3)
    maps = _enumerate_sd_maps(_sd_steps(3, X), DEFAULT_CAPS)
    assert len(maps) == 654
    nfs = [X.face_index(len(c) - 1).nfs for c in _SdData(3).chains]
    as_nfs = [[list(table[v]) for table, v in zip(nfs, m)] for m in maps]
    assert hashlib.sha256(json.dumps(as_nfs).encode()).hexdigest() == (
        "32422407dd55f0418ac7c0fff5d540bd8b8dddab57608541b728123b2b7495bf")
    assert [ex(X, 3).sset.n_nondeg(n) for n in range(4)] == [3, 11, 47, 477]


def test_sd_map_search_and_ex_count_against_their_caps():
    # every node of the Sd Δ³ -> ∂Δ² search, the root included, counts; a
    # first-only search pinned at its last step to the last map's value
    # backtracks through 74,296 nodes; Ex ∂Δ² has 477 nondegenerate 3-simplices
    X = complex_to_sset(boundary_complex(2), 3)
    with pytest.raises(SizeCapExceeded, match="Sd-map enumeration: 186474 exceeds cap 186473"):
        _enumerate_sd_maps(_sd_steps(3, X), SizeCaps(max_candidates=186473))
    maps = _enumerate_sd_maps(_sd_steps(3, X), SizeCaps(max_candidates=186474))
    pos = _SdData(3).search_steps[-1][0]
    with pytest.raises(SizeCapExceeded, match="Sd-map enumeration: 74296 exceeds cap 74295"):
        _enumerate_sd_maps(_sd_steps(3, X), SizeCaps(max_candidates=74295), {pos: maps[-1][pos]}, True)
    assert _enumerate_sd_maps(_sd_steps(3, X), SizeCaps(max_candidates=74296), {pos: maps[-1][pos]}, True)
    with pytest.raises(SizeCapExceeded, match="Ex simplices: 477 exceeds cap 476"):
        ex(X, 3, SizeCaps(max_simplices=476))


#: per carrier of both emap corpora, per n = 0..3: the node count of the
#: Sd-map search Sd Δⁿ -> X and the sha256 of its maps in order, computed
#: at commit c3345eb with the plain depth-first search, before replays
SEARCH_PINS = {
    "D0": [(2, "db407f11d7ede59abaab0e98e097ff2dae10a048207b801745d7199ef19c2387"),
           (6, "7809c754933dd1810accfcf5987678359643e94c8dd991845732ab680c1916c4"),
           (26, "21a2b967b8ace2c5dd56e7145a18304acf12c9f840b9e46c29f1e2bd08c91e39"),
           (150, "495d9e9a73f27cdbbb42079a7f8912f960ef6daaa8ace0448507b274182f0e91")],
    "D1": [(3, "9c731319e6f8d3c3e5b97bcf0eb502cf8f79bcd332c8da9fe2d1f69ebb19a9ae"),
           (26, "8b0e9bc63e49a46723097ca8d3ed88d07523cfea2e4fc763478b87b995ed075f"),
           (449, "9dad00741680bf7bfbc4cffc9ed94fc77c2d6aedaac9e76b8b21c6df135cfada"),
           (22587, "3becc7981af5800242021150a86860ba3fd5dd085c31fd050983cd917eb1a933")],
    "bD1": [(3, "9c731319e6f8d3c3e5b97bcf0eb502cf8f79bcd332c8da9fe2d1f69ebb19a9ae"),
            (21, "d25cc8e9144d3c4e4e23db6e2bb749ec0bc594edef51bd8d16055abec8de3af8"),
            (93, "9bc16a0d701c48e31b77cf7818dfb9d67aee1eb36e4573dc33d17db638c5d61c"),
            (417, "631d4148925e71ce862f6ea6bfdbc4be376efe14460a4afd09f4c950fa154920")],
    "bD2": [(4, "e743549bc64d382cd6be49eaf302163aa318a3cf3af64d150dbc8723430ee88f"),
            (72, "d34de95209d7c6257875c0198c99d4a828832dad1c3706f1f25f2e26dd1334d6"),
            (3086, "39b5eedc7907506f0b7c581a7662017818a8c70eff01d91899639daefcf90daa"),
            (186474, "953a4813d6656b9ba5b4c5c13e39e93c8b20965771f9e5373e1d22861ea76405")],
    "L2_1": [(4, "e743549bc64d382cd6be49eaf302163aa318a3cf3af64d150dbc8723430ee88f"),
             (64, "3bdde6b85fee55d79bb4237acbc729cc36b475f70c33bd8ec9647ed469237d7f"),
             (1152, "030238831176945c89560a42832073950062392ca9aed1038180540700cffdf0"),
             (49739, "f41aba10e262825b7236359580ed4b78a65ed38ce63f66305ca3c360ecf91a48")],
    "N[1]": [(3, "9c731319e6f8d3c3e5b97bcf0eb502cf8f79bcd332c8da9fe2d1f69ebb19a9ae"),
             (26, "8b0e9bc63e49a46723097ca8d3ed88d07523cfea2e4fc763478b87b995ed075f"),
             (449, "9dad00741680bf7bfbc4cffc9ed94fc77c2d6aedaac9e76b8b21c6df135cfada"),
             (22587, "3becc7981af5800242021150a86860ba3fd5dd085c31fd050983cd917eb1a933")],
    "N(V)": [(4, "e743549bc64d382cd6be49eaf302163aa318a3cf3af64d150dbc8723430ee88f"),
             (66, "3d6be4ae115b5c60f20bc6e1fa429b284a1301b76a3c702a3a5c370cfbfe6822"),
             (1516, "83672f772d063167c609e0b91240b7378419c0770f8664a1994ccf081f22234e"),
             (71822, "ad077711da3ca70db70d6d569f60c0cf4256a660337637d633da5221ecb79abc")],
    "N(V)-swap": [(4, "e743549bc64d382cd6be49eaf302163aa318a3cf3af64d150dbc8723430ee88f"),
                  (66, "3d6be4ae115b5c60f20bc6e1fa429b284a1301b76a3c702a3a5c370cfbfe6822"),
                  (1516, "83672f772d063167c609e0b91240b7378419c0770f8664a1994ccf081f22234e"),
                  (71822, "ad077711da3ca70db70d6d569f60c0cf4256a660337637d633da5221ecb79abc")],
    "discrete-swap": [(3, "9c731319e6f8d3c3e5b97bcf0eb502cf8f79bcd332c8da9fe2d1f69ebb19a9ae"),
                      (21, "d25cc8e9144d3c4e4e23db6e2bb749ec0bc594edef51bd8d16055abec8de3af8"),
                      (93, "9bc16a0d701c48e31b77cf7818dfb9d67aee1eb36e4573dc33d17db638c5d61c"),
                      (417, "631d4148925e71ce862f6ea6bfdbc4be376efe14460a4afd09f4c950fa154920")],
    "N[1]-trivial": [(3, "9c731319e6f8d3c3e5b97bcf0eb502cf8f79bcd332c8da9fe2d1f69ebb19a9ae"),
                     (26, "8b0e9bc63e49a46723097ca8d3ed88d07523cfea2e4fc763478b87b995ed075f"),
                     (449, "9dad00741680bf7bfbc4cffc9ed94fc77c2d6aedaac9e76b8b21c6df135cfada"),
                     (22587, "3becc7981af5800242021150a86860ba3fd5dd085c31fd050983cd917eb1a933")],
}


def emap_carriers(cap=3):
    return dict(emap_corpus(cap) + [(name, ens.carrier) for name, ens in emap_equivariant_corpus(cap)])


def maps_digest(maps):
    return hashlib.sha256(json.dumps(maps).encode()).hexdigest()


def assert_search_pinned(steps, count, digest, prescribed=None, first_only=False):
    """cap = count - 1 raises at node count; cap = count gives the pinned maps."""
    with pytest.raises(SizeCapExceeded, match=f"Sd-map enumeration: {count} exceeds cap {count - 1}$"):
        _enumerate_sd_maps(steps, SizeCaps(max_candidates=count - 1), prescribed, first_only)
    maps = _enumerate_sd_maps(steps, SizeCaps(max_candidates=count), prescribed, first_only)
    assert maps_digest(maps) == digest
    return maps


@pytest.mark.parametrize("name", sorted(SEARCH_PINS))
def test_sd_map_search_pinned_on_emap_carriers(name):
    X = emap_carriers()[name]
    for n, (count, digest) in enumerate(SEARCH_PINS[name]):
        assert_search_pinned(_sd_steps(n, X), count, digest)


def parallel_arrows():
    """Two parallel arrows f, g: a -> b.  Unlike the emap carriers, its nerve
    has 1-simplices that their vertices do not determine."""
    return category_from_doc({
        "objects": ["a", "b"], "identity": {"a": "1a", "b": "1b"},
        "morphisms": [["1a", "a", "a"], ["1b", "b", "b"], ["f", "a", "b"], ["g", "a", "b"]],
        "compose": [["1a", "1a", "1a"], ["1b", "1b", "1b"], ["f", "1a", "f"], ["g", "1a", "g"],
                    ["1b", "f", "f"], ["1b", "g", "g"]]})


def test_sd_map_search_pinned_on_parallel_arrows():
    # computed at commit c3345eb; the search of Sd Δ³ walks 2,898,421 nodes
    X = nerve(parallel_arrows(), 3)
    pins = [(3, "9c731319e6f8d3c3e5b97bcf0eb502cf8f79bcd332c8da9fe2d1f69ebb19a9ae"),
            (33, "e7a4c49c55dc4e09aa9221790044fc6d55cf4c54da4abd737a6a775744ef63db"),
            (8915, "38a184e4a8e35be4b06c9644a831a6f8cd34a965f4f54a2bd26fc6d00c2ff72b"),
            (2898421, "c2a4eb3e302e259d8ce3062518c142940ecab28e063fb48361d3728db8649a41")]
    for n, (count, digest) in enumerate(pins):
        assert_search_pinned(_sd_steps(n, X), count, digest)


def first_only_cases(maps):
    """Prescriptions for first-only searches of Sd Δ³, read off the maps."""
    sdd = _SdData(3)
    at = [pos for pos, _, _ in sdd.search_steps]   # chain positions in search order
    last, mid = maps[-1], maps[len(maps) // 2]
    return {
        "last step, last map": {at[-1]: last[at[-1]]},
        "last step, middle map": {at[-1]: mid[at[-1]]},
        "last step of the first triangle": {at[34]: last[at[34]]},
        "inside the third triangle": {at[52]: mid[at[52]]},
        "edge": {at[5]: last[at[5]]},
        "two faces": {p: last[p] for p in sdd.face_positions(0) + sdd.face_positions(1)},
        "no map": {at[-1]: maps[0][at[-1]], at[0]: last[at[0]]},
    }


#: per carrier and `first_only_cases` label: the node count and the sha256
#: of the result, computed at commit c3345eb.  Every case but "edge" and
#: "two faces" replays triangle blocks before its first hit (or its end).
FIRST_ONLY_PINS = {
    "bD2": {
        "last step, last map": (74296, "0e57cee6ee464a63f0c5be8843d21cef329648d58444f03630a5ef39c8335c77"),
        "last step, middle map": (87004, "b84ced53d126bdd2ec7662847b962d9454c4cd22738f86d64f1413e6f099c7bb"),
        "last step of the first triangle": (
            30005, "51e0377b1ca9bd27b3d78fc9b680b861751153af6913358b21491922d081c67b"),
        "inside the third triangle": (40780, "de26155c22ad36915f50a8a58735548fa7fbea6459b0c44ee8fca294e20857f7"),
        "edge": (406, "4b01a724514439eff0efaae701b6eb592a46a174e106977eecc1781ab9a14b28"),
        "two faces": (158, "c4f1c83eac9d7b50d076d39e3865a0acd49da2a39099ffa0ee800b170716b48b"),
        "no map": (10718, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    },
    "N(V)": {
        "last step, last map": (16709, "51a2cfcaa47946ed9481e1224285d7916344bc7ea4a7fc25d8349a81b6821641"),
        "last step, middle map": (15249, "b9b9654bf4c3e32842482eb4f16763b064a6484bfa53b6bc7da33ecb3ec56317"),
        "last step of the first triangle": (
            2795, "05bf2c2c25e10d9a2cce2abfa14a04ed64d7f96c78b990f46adedc32a90309ce"),
        "inside the third triangle": (4788, "9469be995546d3ae8a5c197e068e4d54299694fb08b834bd0db5ebb4ed24ac20"),
        "edge": (406, "72c415135953b7a006096e055db150a56f62cb7de40333ddfcc70ce308fe221d"),
        "two faces": (158, "62208fb1589bdb6f48fad8411f5edef23d00d88a03b0633ae4d894da421c52c7"),
        "no map": (8487, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    },
    "L2_1": {
        "last step, last map": (40958, "47b76b71ac321c35f29e1a5e8a3eadf2db98b42c89f67afe886e80cd17d355e2"),
        "last step, middle map": (15242, "3f0e4525df16f12fd0f73259c9341b21f50e53e78eb1ff3d361e234b26a40fe1"),
        "last step of the first triangle": (
            6798, "86dfba2b71bfc79cb61f0b5128c9c84e298088b1a87af0edd6c9e0c808dcfb28"),
        "inside the third triangle": (4291, "f6905cb310696ffb6ffd3f13b530700bfa34968cfef6fa1a90e367357ace98b3"),
        "edge": (505, "ea6138c7d38e2ec1eb98eb82b15021e45b4db7ef0bb2b484d42af3b8cbf4bb91"),
        "two faces": (158, "62208fb1589bdb6f48fad8411f5edef23d00d88a03b0633ae4d894da421c52c7"),
        "no map": (3044, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    },
}


@pytest.mark.parametrize("name", sorted(FIRST_ONLY_PINS))
def test_first_only_searches_pinned(name):
    steps = _sd_steps(3, emap_carriers()[name])
    maps = _enumerate_sd_maps(steps, DEFAULT_CAPS)
    for label, prescribed in first_only_cases(maps).items():
        count, digest = FIRST_ONLY_PINS[name][label]
        found = assert_search_pinned(steps, count, digest, prescribed, True)
        assert found == [m for m in maps if all(m[p] == v for p, v in prescribed.items())][:1], label


@pytest.mark.parametrize("n", range(5))
def test_sd_block_plan(n):
    """Every step is in one block of chains with one top face; a block's
    candidates read only itself and its boundary, the chains of Sd ∂F, all
    assigned by earlier blocks; the last block is the chains topped by [n]."""
    sdd = _SdData(n)
    order = [sdd.chains[pos] for pos, _, _ in sdd.search_steps]
    assert [sdd.step_of[sdd.position[c]] for c in order] == list(range(len(order)))
    covered = []
    for start, end, boundary in sdd.blocks:
        covered.extend(range(start, end))
        top = order[start][-1]
        assert all(c[-1] == top for c in order[start:end])
        assert all(b < start for b in boundary)
        assert {order[b] for b in boundary} == {c for c in sdd.chains if set(c[-1]) < set(top)}
        for step in range(start, end):
            faces = [sdd.step_of[f] for f in sdd.search_steps[step][2]]
            assert all(start <= f < step or f in boundary for f in faces)
    assert covered == list(range(len(order)))
    start, end, _ = sdd.blocks[-1]
    assert {order[i] for i in range(start, end)} == {c for c in sdd.chains if c[-1] == tuple(range(n + 1))}
    # segments: the replayed blocks, each on its own and keyed by its whole
    # boundary, and runs of the others
    probe = list(range(len(order)))
    replayed = [(start, end) for start, end, key in sdd.segments if key is not None]
    blocks = {(start, end): boundary for start, end, boundary in sdd.blocks}
    assert all(key(probe) == blocks[start, end] for start, end, key in sdd.segments if key is not None)
    assert sdd.segments[0][0] == 0 and sdd.segments[-1][1] == len(order) and sdd.segments[-1][2] is None
    assert all(a[1] == b[0] for a, b in zip(sdd.segments, sdd.segments[1:]))
    # the replayed blocks are those of the faces of dimension 2 to n - 1
    assert replayed == [(s, e) for s, e, _ in sdd.blocks if 3 <= len(order[s][-1]) <= n]


def test_ex_refuses_a_cap_above_its_input():
    # Δ² at cap 1 is its 1-skeleton: Ex at cap 2 of it was Ex of a circle,
    # with 47 nondegenerate 2-simplices and H₁ = ℤ, and its lazy Kan check
    # reported "no filler"
    X1, X2 = (complex_to_sset(standard_simplex_complex(2), cap) for cap in (1, 2))
    for check in (ex, is_kan_complex_lazy_ex):
        with pytest.raises(GcatError, match="cap 2 needs .* to dimension 2; .* has cap 1"):
            check(X1, 2)
    exd = ex(X2, 2)
    assert exd.sset.n_nondeg(2) == 123 and homology(exd.sset, 2) == homology(X2, 2)
    assert is_kan_complex_lazy_ex(X2, 2).passed
    assert ex(X1, 1).sset.cap == 1


def ex_digest(cap=3):
    """sha256, over both emap corpora, of Ex's document, the normal forms of
    its Sd-maps in search order, e's values and Ex's action."""
    def values(f):
        return sorted([n, s, c, list(a)] for (n, s), (c, a) in f.values.items())

    h = hashlib.sha256()
    cases = [(name, X, None) for name, X in emap_corpus(cap)]
    cases += [(name, ens.carrier, ens) for name, ens in emap_equivariant_corpus(cap)]
    for name, X, ens in cases:
        exd = ex(X, cap, WIDE_CAPS)
        searched = [[[c, list(a)] for c, a in exd.level_nf[n].values()] for n in range(cap + 1)]
        act = ex_action(ens, exd).act if ens else {}
        h.update(json.dumps([name, exd.sset.to_doc(), searched, values(e_map(X, exd)),
                             [[m, values(act[m])] for m in sorted(act)]]).encode())
    return h.hexdigest()


def test_ex_reports_match_the_normal_form_search():
    # the digest the normal-form Ex gave, under three hash seeds
    path = os.pathsep.join([str(Path(gcat.__file__).resolve().parents[1]), str(Path(__file__).parent)])
    code = "import test_sset; print(test_sset.ex_digest())"
    procs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
             for seed in ("0", "1", "2")]
    digests = [proc.communicate(timeout=120)[0].strip() for proc in procs]
    assert digests == ["3ae46c7282365f0e86086029716c55a99803c742364b4392268784afd6cb8438"] * 3


# -- Kan --------------------------------------------------------------------


def test_identity_map_is_kan_fibration():
    X = nerve(arrow_category(), 2)
    assert is_kan_fibration(identity_sset_map(X), 2).passed


def test_nerve_of_arrow_not_kan():
    # horn fillers over the point: every Λ¹ problem fills; the first failure
    # is an outer 2-horn hitting the non-invertible edge
    v = is_kan_complex(nerve(arrow_category(), 3), 2)
    assert not v.passed
    n, k = v.failure[0], v.failure[1]
    assert (n, k) == (2, 0)


def test_nerve_of_groupoid_is_kan():
    assert is_kan_complex(nerve(chaotic_category(["a", "b"]), 2), 2).passed


@pytest.mark.parametrize("C,horns", [(chaotic_category(["a", "b"]), 100),
                                     (delooping(cyclic_group(2)), 50)])
def test_lazy_and_materialized_ex_kan_checks_agree(C, horns):
    # the lazy checker counts one problem per horn of Ex N; the same horns,
    # enumerated by the shared _horns on the materialized Ex N, must agree
    from gcat.sset import _horns
    N = nerve(C, 2)
    lazy = is_kan_complex_lazy_ex(N, 2)
    S = ex(N, 2).sset
    enumerated = sum(len(_horns(S.face_index(n - 1)[0], n, k, DEFAULT_CAPS))
                     for n in (1, 2) for k in range(n + 1))
    assert lazy.passed and lazy.problems_checked == enumerated == horns
    materialized = is_kan_complex(S, 2)
    assert materialized.passed and materialized.problems_checked == horns


def test_horn_search_counts_against_max_candidates():
    # both checkers share _horns, whose search nodes count against the cap
    N = nerve(chaotic_category(["a", "b"]), 2)
    with pytest.raises(SizeCapExceeded, match="horn enumeration: 41 exceeds cap 40"):
        is_kan_complex_lazy_ex(N, 2, caps=SizeCaps(max_candidates=40))
    assert is_kan_complex_lazy_ex(N, 2, caps=SizeCaps(max_candidates=41)).passed
    with pytest.raises(SizeCapExceeded, match="horn enumeration: 51 exceeds cap 50"):
        is_kan_complex(nerve(chaotic_category(["a", "b", "c"]), 3), 3, SizeCaps(max_candidates=50))


def test_ex2_of_contractible_groupoid_is_kan_cap2():
    ne2 = nerve(chaotic_category(["a", "b"]), 2)
    exd = ex(ne2, 2)
    v = is_kan_complex_lazy_ex(exd.sset, 2, caps=SizeCaps(max_candidates=5_000_000))
    assert v.passed


# -- products and induced cells ---------------------------------------------------


def product_nf(nx, ny):
    """The normal form of the product simplex (nx, ny): the id of its
    nondegenerate core and the degeneracy common to both factors."""
    (cx, ax), (cy, ay) = nx, ny
    keep = (0, *(t for t in range(1, len(ax)) if ax[t] != ax[t - 1] or ay[t] != ay[t - 1]))
    beta = tuple(sum(1 for k in keep[1:] if k <= t) for t in range(len(ax)))
    fx, fy = compose_tuples(ax, keep), compose_tuples(ay, keep)
    return f"{cx}[{','.join(map(str, fx))}]*{cy}[{','.join(map(str, fy))}]", beta


def parse_product_id(pid):
    """The two factor normal forms named by a product simplex id."""
    left, right = pid.split("]*")
    cx, ax = left.rsplit("[", 1)
    cy, ay = right[:-1].rsplit("[", 1)
    return (cx, tuple(int(v) for v in ax.split(","))), (cy, tuple(int(v) for v in ay.split(",")))


def product_sset(X, Y, cap=None):
    """X × Y; nondegenerate simplices are pairs of normal forms sharing no
    common degeneracy position (Eilenberg-Zilber)."""
    cap = min(X.cap, Y.cap) if cap is None else cap
    pairs = {n: {} for n in range(cap + 1)}
    for n, at_n in pairs.items():
        for nx in X.all_simplices(n):
            for ny in Y.all_simplices(n):
                pid, beta = product_nf(nx, ny)
                if is_identity_alpha(beta):
                    at_n[pid] = (nx, ny)
    faces = {(n, pid): tuple(product_nf(fx, fy) for fx, fy in zip(X.faces_of(nx), Y.faces_of(ny)))
             for n in range(1, cap + 1) for pid, (nx, ny) in pairs[n].items()}
    return FinSSet(cap, {n: tuple(sorted(at_n)) for n, at_n in pairs.items() if at_n},
                   faces).validate()


def product_projections(X, Y, P):
    """The projections of P = X × Y onto X and onto Y."""
    values = {(n, pid): parse_product_id(pid) for n in P.dims() for pid in P.cells[n]}
    return (SSetMap(P, X, {key: v[0] for key, v in values.items()}),
            SSetMap(P, Y, {key: v[1] for key, v in values.items()}))


def pair_into_product(f, g, P):
    """(f, g): W -> X × Y for maps with common source."""
    W = f.source
    return SSetMap(W, P, {(n, s): product_nf(f.values[(n, s)], g.values[(n, s)])
                          for n in W.dims() for s in W.cells[n]})


def cosets(G, H, cap):
    """G/H as a discrete simplicial set, its points the left cosets gH named
    by least member, with the left G-action on their names."""
    coset = {g: min(G.mul(g, h) for h in H.elements) for g in G.elements}
    names = sorted(set(coset.values()))
    action = {k: {c: coset[G.mul(k, c)] for c in names} for k in G.elements}
    return FinSSet(cap, {0: tuple(names)}, {}), action


def induced_cell(G, H, K, cap):
    """G/H × K with the left translation action on the coset factor."""
    D, action = cosets(G, H, cap)
    KX = complex_to_sset(K, cap)
    P = product_sset(D, KX, cap)
    pd, pk = product_projections(D, KX, P)
    act = {g: pair_into_product(pd.then(SSetMap(D, D, {(0, c): (action[g][c], (0,))
                                                        for c in action[g]})), pk, P).validate()
           for g in G.elements}
    return MonoidActionSSet(G, P, act).validate()


def induced_cell_sd(G, H, K, cap):
    """(G/H × sd_complex(K), action) with the equivariant comparison to G/H × K."""
    cell_sd = induced_cell(G, H, sd_complex(K), cap)
    cell = induced_cell(G, H, K, cap)
    lv = lastvertex_map(K, cap)
    pd, pk = product_projections(cosets(G, H, cap)[0], lv.source, cell_sd.carrier)
    comparison = pair_into_product(pd, pk.then(lv), cell.carrier).validate()
    return cell_sd, cell, comparison


def test_induced_cell_free_count():
    Z2 = cyclic_group(2)
    triv = subgroup_from_elements(Z2, ["c0"])
    cell = induced_cell(Z2, triv, boundary_complex(1), 2)
    assert cell.carrier.n_nondeg(0) == 4
    for v in cell.carrier.cells[0]:
        assert cell.act["c1"].apply(cell.carrier.nf_of(0, v)) != cell.carrier.nf_of(0, v)


def test_induced_cell_point():
    Z2 = cyclic_group(2)
    cell = induced_cell(Z2, Z2, standard_simplex_complex(0), 2)
    assert cell.carrier.n_nondeg(0) == 1


def test_induced_cell_sd_comparison():
    Z2 = cyclic_group(2)
    triv = subgroup_from_elements(Z2, ["c0"])
    cell_sd, cell, cmp = induced_cell_sd(Z2, triv, standard_simplex_complex(1), 3)
    for g in Z2.elements:
        assert cell_sd.act[g].then(cmp).same_values(cmp.then(cell.act[g]))
    assert homology(cell_sd.carrier, 2) == homology(cell.carrier, 2)
    # fixed points under the full group: empty on both sides
    assert fixed_sset(cell_sd, Z2).dims() == []
    assert fixed_sset(cell, Z2).dims() == []
    # per-subgroup homology of fixed points match
    for H in (triv, Z2):
        a = fixed_sset(cell_sd, H)
        b = fixed_sset(cell, H)
        assert homology(a, 2) == homology(b, 2)


def test_lastvertex_map_validates():
    for K in [standard_simplex_complex(1), standard_simplex_complex(2), boundary_complex(2)]:
        lv = lastvertex_map(K, 3)
        assert homology(lv.source, 3) == homology(lv.target, 3)


# -- equivariant nerve --------------------------------------------------------


def test_equivariant_nerve_fixed_points_exact():
    Z2 = cyclic_group(2)
    arrow = arrow_category()
    sq = product_category(arrow, arrow)
    from gcat.fincat import pair_mor, pair_obj
    om = {pair_obj(a, b): pair_obj(b, a) for a in ("0", "1") for b in ("0", "1")}
    mm = {pair_mor(f, g): pair_mor(g, f) for f in arrow.morphism_ids for g in arrow.morphism_ids}
    act = MonoidActionCat(Z2, sq, {"c0": identity_functor(sq),
                                   "c1": Functor(sq, sq, om, mm)}).validate()
    from gcat.actions import fixed_category
    lhs = nerve(fixed_category(act, Z2), 3)
    rhs = fixed_sset(equivariant_nerve(act, 3), Z2)
    for n in range(4):
        assert lhs.n_nondeg(n) == rhs.n_nondeg(n)
    assert [lhs.n_nondeg(n) for n in range(3)] == [2, 1, 0]


def test_swap_nerve_has_empty_fixed_points():
    Z2 = cyclic_group(2)
    sw = chaotic_action(Z2, {"c0": {"a": "a", "b": "b"}, "c1": {"a": "b", "b": "a"}})
    assert fixed_sset(equivariant_nerve(sw, 2), Z2).dims() == []


def test_e_map_is_natural():
    # e ∘ f = Ex(f) ∘ e for a nerve map
    from gcat.sset import ex_map
    arrow = arrow_category()
    one = terminal_category()
    F = Functor(arrow, one, {"0": "*", "1": "*"}, {m: "id*" for m in arrow.morphism_ids})
    NX, NY = nerve(arrow, 2), nerve(one, 2)
    nf = nerve_functor(F, NX, NY, 2).validate()
    ex_src, ex_dst = ex(NX, 2), ex(NY, 2)
    lhs = nf.then(e_map(NY, ex_dst))
    rhs = e_map(NX, ex_src).then(ex_map(nf, ex_src, ex_dst))
    assert lhs.same_values(rhs)
