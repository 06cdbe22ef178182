"""Monoids, groups, strict actions, fixed points, quotients, retractions."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from gcat.errors import (
    ActionNotFree,
    EquivarianceViolation,
    GcatError,
    NotASubgroup,
    SubgroupNotInUnits,
)
from gcat.fincat import (
    Functor,
    arrow_category,
    find_isomorphism,
    pair_obj,
    product_category,
    terminal_category,
)
from gcat.actions import (
    FinGroup,
    FinMonoid,
    MonoidActionCat,
    check_equivariant,
    chaotic_functor,
    cell_category,
    chaotic_action,
    chaotic_category,
    cyclic_group,
    delooping,
    equivariant_retraction,
    fixed_category,
    graph_subgroup,
    make_group,
    product_action,
    product_monoid,
    quotient_by_free_action,
    restrict_action,
    subgroup_from_elements,
    subgroups,
    symmetric_group,
    translation_action,
    trivial_action,
    trivial_group,
    units_group,
)

from helpers import zero_monoid


def test_units_of_group_is_group():
    G = cyclic_group(3)
    assert units_group(G).elements == G.elements


def test_units_idempotent_monoid():
    M = FinMonoid(("1", "a"), {("1", "1"): "1", ("1", "a"): "a",
                               ("a", "1"): "a", ("a", "a"): "a"}, "1").validate()
    assert units_group(M).elements == ("1",)


def test_units_zero_monoid():
    assert units_group(zero_monoid()).elements == ("1", "g")


def test_subgroups_are_built_and_validated_once(monkeypatch):
    """A subgroup is validated when it is first asked for, and the same
    group is handed out after; a subset that is no subgroup is refused each
    time and not remembered."""
    calls = 0
    validate = FinGroup.validate

    def counting_validate(self):
        nonlocal calls
        calls += 1
        return validate(self)

    monkeypatch.setattr(FinGroup, "validate", counting_validate)
    M = zero_monoid()
    H = subgroup_from_elements(M, ["g", "1"])
    assert subgroup_from_elements(M, ["1", "g", "g"]) is H and units_group(M) is H
    assert units_group(M) is H and calls == 1
    for _ in range(2):
        with pytest.raises(NotASubgroup):
            subgroup_from_elements(M, ["1", "z", "g"])   # z has no inverse
    assert calls == 3 and ("1", "g", "z") not in M._subgroups


def subgroups_by_brute_force(G):
    """The subgroups of G as sorted element tuples, in the order of
    `subgroups`, from the closure of each of the 2^|G| subsets."""
    found = set()
    for seed in range(1 << len(G.elements)):
        closure = {G.unit, *(e for i, e in enumerate(G.elements) if seed >> i & 1)}
        while True:
            products = {G.mul(a, b) for a in closure for b in closure}
            if products <= closure:
                break
            closure |= products
        found.add(tuple(sorted(closure)))
    return sorted(found, key=lambda t: (len(t), t))


def test_subgroups_match_the_closures_of_all_subsets():
    groups = [cyclic_group(n) for n in range(1, 9)]
    groups += [symmetric_group(3), product_monoid(cyclic_group(2), cyclic_group(2))]
    for G in groups:
        assert [H.elements for H in subgroups(G)] == subgroups_by_brute_force(G)
    assert len(subgroups(symmetric_group(4))) == 30


def is_good_subgroup(M, H):
    """True iff right multiplication by the subgroup H on M is free."""
    return all(M.mul(m, h) != m for m in M.elements for h in H.elements if h != H.unit)


def test_good_subgroups():
    M = zero_monoid()
    H = subgroup_from_elements(M, ["1", "g"])
    assert is_good_subgroup(M, H) is False          # z·g = z
    assert is_good_subgroup(M, subgroup_from_elements(M, ["1"])) is True
    G = symmetric_group(3)
    for H in subgroups(G):
        assert is_good_subgroup(G, H) is True       # cancellation


def test_fixed_category_trivial_action():
    Z2 = cyclic_group(2)
    arrow = arrow_category()
    A = trivial_action(Z2, arrow)
    F = fixed_category(A, Z2)
    assert F.objects == arrow.objects and F.n_morphisms() == 3


def test_fixed_category_translation_is_empty():
    Z2 = cyclic_group(2)
    assert fixed_category(translation_action(Z2), Z2).n_objects() == 0


def test_fixed_category_swap_with_fixed_point():
    Z2 = cyclic_group(2)
    A = chaotic_action(Z2, {"c0": {"a": "a", "b": "b", "c": "c"},
                            "c1": {"a": "b", "b": "a", "c": "c"}})
    F = fixed_category(A, Z2)
    assert F.objects == ("c",) and F.n_morphisms() == 1


def test_fixed_requires_units():
    M = zero_monoid()
    one = terminal_category()
    A = trivial_action(M, one)
    with pytest.raises((SubgroupNotInUnits, NotASubgroup)):
        fixed_category(A, subgroup_from_elements(M, ["1", "z"]))


def z2_on(unit, other):
    return make_group([unit, other], {(unit, unit): unit, (unit, other): other,
                                      (other, unit): other, (other, other): unit}, unit)


def test_fixed_category_checks_units_then_subgroup():
    """A group H whose elements are not all units of the acting monoid, and
    one inside the units that is not a subgroup of them, are both refused
    by fixed_category itself."""
    one = terminal_category()
    with pytest.raises(SubgroupNotInUnits, match=r"^\('1', 'z'\) not inside units \('1', 'g'\)$"):
        fixed_category(trivial_action(zero_monoid(), one), z2_on("1", "z"))
    with pytest.raises(NotASubgroup, match=r"^\('c0', 'c1'\) is not closed / missing unit$"):
        fixed_category(trivial_action(cyclic_group(3), one), z2_on("c0", "c1"))


def test_chaotic_category_counts():
    assert chaotic_category([]).n_objects() == 0
    assert chaotic_category(["x"]).n_morphisms() == 1
    E2 = chaotic_category(["a", "b"])
    assert E2.n_morphisms() == 4
    assert all(m in E2.isos() for m in E2.morphism_ids)


def test_translation_action_is_free():
    G = cyclic_group(3)
    A = translation_action(G)
    for g in G.elements:
        if g == G.unit:
            continue
        for x in A.carrier.objects:
            assert A.ob(g, x) != x
        for m in A.carrier.morphism_ids:
            assert A.mor(g, m) != m


def test_delooping():
    assert find_isomorphism(delooping(trivial_group()), terminal_category()) is not None
    B = delooping(cyclic_group(2))
    assert B.n_objects() == 1 and B.n_morphisms() == 2
    assert all(m in B.isos() for m in B.morphism_ids)


def test_delooping_nerve_one_nondeg_per_dim():
    from gcat.sset import nerve
    N = nerve(delooping(cyclic_group(2)), 3)
    assert [N.n_nondeg(n) for n in range(4)] == [1, 1, 1, 1]


def test_graph_subgroup_examples():
    Z2, Z4 = cyclic_group(2), cyclic_group(4)
    triv = graph_subgroup(Z2, {"c0": "c0", "c1": "c0"}, Z4)
    assert triv.group.elements == (pair_obj("c0", "c0"), pair_obj("c1", "c0"))
    diag = graph_subgroup(Z2, {"c0": "c0", "c1": "c1"}, Z2)
    assert diag.group.elements == (pair_obj("c0", "c0"), pair_obj("c1", "c1"))
    tw = graph_subgroup(Z2, {"c0": "c0", "c1": "c2"}, Z4)
    assert tw.group.elements == (pair_obj("c0", "c0"), pair_obj("c1", "c2"))


def test_equivariant_retraction_translation():
    Z2 = cyclic_group(2)
    r = equivariant_retraction(Z2, Z2.elements, lambda s, h: Z2.mul(s, h))
    assert r == {"c0": "c0", "c1": "c1"}


def test_equivariant_retraction_two_copies():
    Z2 = cyclic_group(2)
    els = ["x.c0", "x.c1", "y.c0", "y.c1"]

    def act(s, h):
        tag, v = s.split(".")
        return f"{tag}.{Z2.mul(v, h)}"

    r = equivariant_retraction(Z2, els, act)
    for s in els:
        for h in Z2.elements:
            assert r[act(s, h)] == Z2.mul(r[s], h)


def test_retraction_rejects_fixed_point():
    Z2 = cyclic_group(2)
    with pytest.raises(ActionNotFree):
        equivariant_retraction(Z2, ["s"], lambda s, h: "s")


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3))
def test_retraction_property_on_free_sums(n, copies):
    G = cyclic_group(n)
    els = [f"t{i}.{g}" for i in range(copies) for g in G.elements]

    def act(s, h):
        tag, v = s.split(".")
        return f"{tag}.{G.mul(v, h)}"

    r = equivariant_retraction(G, els, act)
    for s in els:
        for h in G.elements:
            assert r[act(s, h)] == G.mul(r[s], h)


def test_quotient_trivial_group():
    one_grp = trivial_group()
    arrow = arrow_category()
    Q, q = quotient_by_free_action(trivial_action(one_grp, arrow))
    assert Q.objects == arrow.objects and Q.n_morphisms() == 3


def test_quotient_translation_is_delooping():
    Z2 = cyclic_group(2)
    Q, q = quotient_by_free_action(translation_action(Z2))
    assert Q.n_objects() == 1 and Q.n_morphisms() == 2
    assert find_isomorphism(Q, delooping(Z2)) is not None


def test_quotient_recovers_orbits():
    Z2 = cyclic_group(2)
    A = translation_action(Z2)
    Q, q = quotient_by_free_action(A)
    fibers = {}
    for x in A.carrier.objects:
        fibers.setdefault(q.object_map[x], set()).add(x)
    for x in A.carrier.objects:
        orbit = {A.ob(g, x) for g in Z2.elements}
        assert fibers[q.object_map[x]] == orbit
    assert A.carrier.n_objects() == Q.n_objects() * 2
    assert A.carrier.n_morphisms() == Q.n_morphisms() * 2


def test_quotient_rejects_non_free():
    Z2 = cyclic_group(2)
    one = terminal_category()
    with pytest.raises(ActionNotFree):
        quotient_by_free_action(trivial_action(Z2, one))


def test_cell_object_count_is_order_of_G():
    Z2, Z4 = cyclic_group(2), cyclic_group(4)
    for K, G, phi in [
        (Z2, Z2, {"c0": "c0", "c1": "c1"}),
        (Z2, Z4, {"c0": "c0", "c1": "c2"}),
        (Z4, Z2, {"c0": "c0", "c1": "c1", "c2": "c0", "c3": "c1"}),
    ]:
        cell = cell_category(K, G, K, phi)
        assert cell.category.n_objects() == len(G.elements)


def cell_cases():
    """(label, (K, G, H, φ)) for the cells of the four G-global models of
    `generating_maps`, over Z2 and Z4, and one over Z3 with φ an automorphism."""
    Z2, Z3, Z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    one, half = subgroup_from_elements(Z2, ["c0"]), subgroup_from_elements(Z4, ["c0", "c2"])
    ident = {h: h for h in Z2.elements}
    return [("g_global_thin", (Z2, Z2, Z2, ident)),
            ("g_global_thin, trivial phi", (Z2, Z2, Z2, {"c0": "c0", "c1": "c0"})),
            ("g_global_thick_avatar", (Z4, Z2, half, {"c0": "c0", "c2": "c1"})),
            ("g_homotopy_fp", (Z2, Z2, Z2, ident)),
            ("g_homotopy_fp_thick", (Z2, Z2, one, {"c0": "c0"})),
            ("g_global_thin over Z3", (Z3, Z3, Z3, {"c0": "c0", "c1": "c2", "c2": "c1"}))]


def action_doc(A):
    return [[m, sorted(A.act[m].object_map.items()), sorted(A.act[m].morphism_map.items())]
            for m in A.monoid.elements]


#: sha256 of each cell of `cell_cases`: its category, G- and (K×G)-actions
#: and coherence, computed at commit a1b147b, when the translations of Γ and
#: of K×G were built by two copies of the functor builder
CELL_DIGEST = "63a958f2556afb2388a7596017613dc013101d211e8dc012bab5017197ba136f"


def test_cells_match_the_pinned_digest():
    h = hashlib.sha256()
    for label, args in cell_cases():
        cell = cell_category(*args)
        doc = [label, cell.category.to_doc(), action_doc(cell.g_action), action_doc(cell.kg_action),
               sorted([list(k), sorted(v.items())] for k, v in cell.coherence.items())]
        h.update(json.dumps(doc).encode())
    assert h.hexdigest() == CELL_DIGEST


def test_fixed_commutes_with_products():
    Z2 = cyclic_group(2)
    S = chaotic_action(Z2, {"c0": {"a": "a", "b": "b"}, "c1": {"a": "b", "b": "a"}})
    arrowA = trivial_action(Z2, arrow_category())
    P = product_action(S, arrowA)
    lhs = fixed_category(P, Z2)
    rhs = product_category(fixed_category(S, Z2), fixed_category(arrowA, Z2))
    assert (lhs.n_objects(), lhs.n_morphisms()) == (rhs.n_objects(), rhs.n_morphisms())
    if lhs.n_objects():
        assert find_isomorphism(lhs, rhs) is not None


# -- restriction and equivariance checks -------------------------------------


def test_restrict_action_validates_no_functor_of_a_validated_action(monkeypatch):
    """Every act(h) of a validated action is a validated endofunctor, so the
    restriction to a subgroup re-validates none; yet it refuses an H whose
    unit or multiplication disagrees with the action, and one with an element
    the action lacks."""
    S3 = symmetric_group(3)
    act = product_action(translation_action(S3), trivial_action(S3, arrow_category()))
    validated = []
    validate = Functor.validate
    monkeypatch.setattr(Functor, "validate", lambda F: validated.append(F) or validate(F))
    for H in subgroups(S3):
        R = restrict_action(act, H)
        assert R.monoid is H and R.carrier is act.carrier
        assert all(R.act[h] is act.act[h] for h in H.elements)
    assert validated == []
    # s102 is an involution; a table that calls it idempotent disagrees with the action
    idem = FinMonoid(("s012", "s102"), {("s012", "s012"): "s012", ("s012", "s102"): "s102",
                                        ("s102", "s012"): "s102", ("s102", "s102"): "s102"},
                     "s012")
    with pytest.raises(GcatError, match=r"^act\('s102'·'s102'\) ≠ act\('s102'\)∘act\('s102'\)$"):
        restrict_action(act, idem)
    with pytest.raises(GcatError, match=r"^unit does not act as the identity$"):
        restrict_action(act, FinMonoid(("s102",), {("s102", "s102"): "s102"}, "s102"))
    with pytest.raises(KeyError):
        restrict_action(act, make_group(["s012", "x"], {("s012", "s012"): "s012", ("s012", "x"): "x",
                                                        ("x", "s012"): "x", ("x", "x"): "s012"},
                                        "s012"))
    assert validated == []


def equivariance_violation_by_composites(F, A, B):
    """The first m, in monoid order, where act_A(m) then F and F then act_B(m)
    differ as composite functors, or None; the oracle of `check_equivariant`."""
    for m in A.monoid.elements:
        if not A.act[m].then(F).same_maps(F.then(B.act[m])):
            return m
    return None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_check_equivariant_matches_the_composite_functors(data):
    S3 = symmetric_group(3)
    A = translation_action(S3)
    points = ["p", "q", "r"]
    perm = {g: {x: points[int(d)] for x, d in zip(points, g[1:])} for g in S3.elements}
    B = chaotic_action(S3, perm)
    if data.draw(st.booleans()):    # the orbit map g ↦ g·p, equivariant
        om = {g: perm[g]["p"] for g in S3.elements}
    else:
        om = {x: data.draw(st.sampled_from(points)) for x in A.carrier.objects}
    F = chaotic_functor(A.carrier, B.carrier, om).validate()
    if data.draw(st.booleans()):    # one more key than the carrier's objects
        F = Functor(F.source, F.target, {**F.object_map, "extra": "p"}, F.morphism_map)
    expected = equivariance_violation_by_composites(F, A, B)
    if expected is None:
        assert check_equivariant(F, A, B) is F
    else:
        with pytest.raises(EquivarianceViolation) as exc:
            check_equivariant(F, A, B)
        assert exc.value.witness == expected
        assert str(exc.value) == str(EquivarianceViolation(
            f"functor not equivariant at {expected!r}", witness=expected))
