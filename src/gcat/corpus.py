"""Seeded corpus generation: random small posets, group actions on them, and
Dwyer spans with verified witnesses.

The generator is biased toward posets and chaotic categories because exact
expectations exist there.  All randomness flows through an explicit seed;
identical seeds give identical corpora.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import GcatError
from .fincat import (
    FinCat,
    Functor,
    Poset,
    constant_functor,
    identity_functor,
    poset_from_relation,
    terminal_category,
    thin_functor,
)
from .actions import (
    FinGroup,
    MonoidActionCat,
    chaotic_action,
    chaotic_category,
    cyclic_group,
    full_subcategory_action,
    subgroups,
    symmetric_group,
    trivial_action,
    trivial_group,
)
from .dwyer import DwyerWitness, find_dwyer_witness


@dataclass(eq=False)
class DwyerSpan:
    """A span C <-c- A -i-> B with an (optionally equivariant) Dwyer witness."""

    A: FinCat
    B: FinCat
    C: FinCat
    i: Functor
    c: Functor
    witness: DwyerWitness
    group: Optional[FinGroup] = None
    act_A: Optional[MonoidActionCat] = None
    act_B: Optional[MonoidActionCat] = None
    act_C: Optional[MonoidActionCat] = None
    label: str = ""


def named_group(name: str) -> FinGroup:
    """The group called `name`: 1 or triv, Zn (cyclic) or Sn (symmetric) for
    n >= 1; any other name raises ValueError."""
    if name in ("1", "triv"):
        return trivial_group()
    order = name[1:]
    if name[:1] in ("Z", "S") and order.isdecimal() and int(order) >= 1:
        return (cyclic_group if name[0] == "Z" else symmetric_group)(int(order))
    raise ValueError(f"unknown group name {name!r}")


def seeded_poset(rng: random.Random, max_elems=5) -> Poset:
    n = rng.randint(1, max_elems)
    els = [f"p{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                pairs.append((els[i], els[j]))
    return poset_from_relation(els, pairs)


def seeded_g_poset(rng: random.Random, G: FinGroup):
    """A G-poset built as copies of a base poset indexed by a G-set, with an
    optional G-fixed bottom cone point; the copies hold at most 12 elements."""
    max_total = 12
    base = seeded_poset(rng, 3)
    subs = subgroups(G)
    orbit_subgroups = []
    total = 0
    while True:
        K = rng.choice(subs)
        size = len(G.elements) // len(K.elements)
        if total + size * len(base.elements) > max_total:
            break
        orbit_subgroups.append(K)
        total += size * len(base.elements)
        if rng.random() < 0.5 or total >= max_total - 1:
            break
    if not orbit_subgroups:
        orbit_subgroups = [G]
    cone = rng.random() < 0.5

    # sheet index set: disjoint cosets, tagged per orbit
    sheets = []
    sheet_act = {}
    for oi, K in enumerate(orbit_subgroups):
        cosets = sorted({min(G.mul(g, k) for k in K.elements) for g in G.elements})
        for c in cosets:
            sheets.append(f"o{oi}.{c}")
        for g in G.elements:
            for c in cosets:
                tgt = min(G.mul(G.mul(g, c), k) for k in K.elements)
                sheet_act.setdefault(g, {})[f"o{oi}.{c}"] = f"o{oi}.{tgt}"

    els = [f"{s}.{p}" for s in sheets for p in base.elements]
    pairs = [(f"{s}.{p}", f"{s}.{q}") for s in sheets for p, q in base.leq if p != q]
    if cone:
        els.append("bot")
        pairs.extend(("bot", e) for e in els if e != "bot")
    P = poset_from_relation(els, pairs)
    cat = P.to_fincat()

    def act_fun(g):
        om = {}
        for s in sheets:
            for p in base.elements:
                om[f"{s}.{p}"] = f"{sheet_act[g][s]}.{p}"
        if cone:
            om["bot"] = "bot"
        return thin_functor(cat, cat, om)

    action = MonoidActionCat(G, cat, {g: act_fun(g) for g in G.elements}).validate()
    return action


def _downward_g_stable(rng, act: MonoidActionCat):
    cat = act.carrier
    G = act.monoid
    chosen = set()
    for x in cat.objects:
        if rng.random() < 0.45:
            chosen.add(x)
    changed = True
    while changed:
        changed = False
        for x in list(chosen):
            for g in G.elements:
                y = act.ob(g, x)
                if y not in chosen:
                    chosen.add(y)
                    changed = True
            for m, s, t in cat.morphisms:
                if t in chosen and s not in chosen:
                    chosen.add(s)
                    changed = True
    return sorted(chosen)


def seeded_dwyer_span(rng: random.Random, G: Optional[FinGroup] = None) -> Optional[DwyerSpan]:
    """Propose a random span and keep it only when i has a Dwyer witness."""
    group = G if G is not None else trivial_group()
    act_B = seeded_g_poset(rng, group)
    B = act_B.carrier
    a_objs = _downward_g_stable(rng, act_B)
    if not a_objs or len(a_objs) == len(B.objects):
        return None
    act_A = full_subcategory_action(act_B, B.full_subcategory(a_objs))
    A = act_A.carrier
    i = thin_functor(A, B, {x: x for x in A.objects})
    w = find_dwyer_witness(i, (group, act_A, act_B))
    if w is None:
        return None

    style = rng.choice(["collapse", "identity", "cone", "chaotic"])
    if style == "chaotic" and len(a_objs) > 4:
        # chaotic targets on many objects make cap-3 nerves needlessly large
        style = "collapse"
    if style == "collapse":
        C = terminal_category()
        act_C = trivial_action(group, C)
        c = constant_functor(A, C, "*").validate()
    elif style == "identity":
        C, act_C = A, act_A
        c = identity_functor(A).validate()
    elif style == "cone":
        els = list(A.objects) + ["top"]
        pairs = [(s, t) for m, s, t in A.morphisms] + [(x, "top") for x in A.objects]
        P = poset_from_relation(els, pairs)
        C = P.to_fincat()
        funs = {}
        for g in group.elements:
            funs[g] = thin_functor(C, C, {**{x: act_A.ob(g, x) for x in A.objects}, "top": "top"})
        act_C = MonoidActionCat(group, C, funs).validate()
        c = thin_functor(A, C, {x: x for x in A.objects})
    else:
        elem_act = {g: {x: act_A.ob(g, x) for x in A.objects} for g in group.elements}
        act_C = chaotic_action(group, elem_act)
        C = act_C.carrier
        c = thin_functor(A, C, {x: x for x in A.objects})

    from .actions import check_equivariant
    check_equivariant(c, act_A, act_C)
    return DwyerSpan(A, B, C, i, c, w, group, act_A, act_B, act_C, label=style)


def dwyer_span_corpus(seed: int, count: int, group_name: Optional[str] = None):
    """Deterministic list of `count` verified spans for the given group."""
    rng = random.Random(seed)
    G = named_group(group_name) if group_name else None
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count:
            raise GcatError(f"span generation stalled after {attempts} attempts")
        span = seeded_dwyer_span(rng, G)
        if span is not None:
            out.append(span)
    return out


def curated_spans():
    """The two curated pushout cases: gluing to [2] and the collapse to [1]."""
    from .fincat import arrow_category, chain_poset

    one = terminal_category()
    arrow = arrow_category()
    i0 = thin_functor(one, arrow, {"*": "0"})
    w = find_dwyer_witness(i0)
    spans = []
    c_at1 = thin_functor(one, arrow, {"*": "1"})
    spans.append(("glue-[2]", DwyerSpan(one, arrow, arrow, i0, c_at1, w), chain_poset(2).to_fincat()))
    c_cl = thin_functor(one, one, {"*": "*"})
    spans.append(("collapse-[1]", DwyerSpan(one, arrow, one, i0, c_cl, w), arrow))
    return spans


def seeded_category(rng: random.Random) -> FinCat:
    """A random small category: poset, chaotic, or a delooping."""
    kind = rng.choice(["poset", "poset", "chaotic", "delooping"])
    if kind == "poset":
        return seeded_poset(rng, 5).to_fincat()
    if kind == "chaotic":
        n = rng.randint(1, 4)
        return chaotic_category([f"x{i}" for i in range(n)])
    from .actions import delooping
    return delooping(cyclic_group(rng.choice([2, 3])))


def emap_corpus(cap=3):
    """Simplicial sets for the Ex-unit certificates (plain part)."""
    from .sset import (
        boundary_complex,
        complex_to_sset,
        horn_complex,
        nerve,
        standard_simplex_complex,
    )
    from .fincat import arrow_category

    vposet = poset_from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")]).to_fincat()
    return [
        ("D0", complex_to_sset(standard_simplex_complex(0), cap)),
        ("D1", complex_to_sset(standard_simplex_complex(1), cap)),
        ("bD1", complex_to_sset(boundary_complex(1), cap)),
        ("bD2", complex_to_sset(boundary_complex(2), cap)),
        ("L2_1", complex_to_sset(horn_complex(2, 1), cap)),
        ("N[1]", nerve(arrow_category(), cap)),
        ("N(V)", nerve(vposet, cap)),
    ]


def emap_equivariant_corpus(cap=3):
    """(action, label): nerves with Z/2-actions for the equivariant Ex-unit checks."""
    from .sset import equivariant_nerve

    Z2 = cyclic_group(2)
    out = []
    vposet = poset_from_relation(["a", "b", "c"], [("a", "c"), ("b", "c")])
    cat = vposet.to_fincat()
    swap = thin_functor(cat, cat, {"a": "b", "b": "a", "c": "c"})
    actV = MonoidActionCat(Z2, cat, {"c0": identity_functor(cat), "c1": swap}).validate()
    out.append(("N(V)-swap", equivariant_nerve(actV, cap)))
    # free swap on the discrete two-point set (nerve of the discrete category)
    from .fincat import discrete_category
    dc = discrete_category(["a", "b"])
    sw = thin_functor(dc, dc, {"a": "b", "b": "a"})
    actD = MonoidActionCat(Z2, dc, {"c0": identity_functor(dc), "c1": sw}).validate()
    out.append(("discrete-swap", equivariant_nerve(actD, cap)))
    arrow = poset_from_relation(["0", "1"], [("0", "1")]).to_fincat()
    out.append(("N[1]-trivial", equivariant_nerve(trivial_action(Z2, arrow), cap)))
    return out
