"""Builders that several test modules share and that the program itself does
not run: the three-element monoid with a zero, Dwyer witnesses equivariant
for a monoid's units, and the document of a simplicial map."""

from gcat.actions import FinMonoid, restrict_action, units_group
from gcat.dwyer import find_dwyer_witness


def zero_monoid():
    """{1, g, z} with g² = 1 and z absorbing."""
    return FinMonoid(
        ("1", "g", "z"),
        {("1", "1"): "1", ("1", "g"): "g", ("1", "z"): "z",
         ("g", "1"): "g", ("g", "g"): "1", ("g", "z"): "z",
         ("z", "1"): "z", ("z", "g"): "z", ("z", "z"): "z"},
        "1").validate()


def monoid_dwyer_check(i, act_A, act_B):
    """Dwyer witness equivariant for the maximal subgroup of the acting monoid."""
    core = units_group(act_A.monoid)
    return find_dwyer_witness(i, (core, restrict_action(act_A, core), restrict_action(act_B, core)))


def sset_map_doc(f):
    """The document of the simplicial map f, as `serialize.sset_map_from_doc` reads it."""
    return {
        "source": f.source.to_doc(),
        "target": f.target.to_doc(),
        "values": sorted([n, sid, [v[0], list(v[1])]] for (n, sid), v in f.values.items()),
    }
