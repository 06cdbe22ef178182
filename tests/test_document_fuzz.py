"""The document boundary under fuzzing.

Every subcommand that reads a document gets a library-written one with its
keys, value types and list lengths mutated, through `gcat.cli.main` in
process.  Whatever the mutation, the exit code is a documented one, stdout
holds at most one JSON object, and no exception escapes `main`.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings, strategies as st

from gcat import cli, serialize as ser
from gcat.actions import cyclic_group, translation_action, trivial_action
from gcat.fincat import Functor, arrow_category, chain_poset, terminal_category
from gcat.sset import (
    boundary_complex,
    complex_to_sset,
    identity_sset_map,
    standard_simplex_complex,
)

from helpers import sset_map_doc

EXIT_CODES = {0, 1, 2, 64, 74}
PHI = {"c0": "c0", "c1": "c1"}


def cases():
    """The (label, argv, document) of each case, and the unmutated documents
    by placeholder.  Each argv holds the placeholder "DOC" where the document
    goes, as a file path or, for `gens` and `transfer-check`, as the inline
    JSON itself; "PAIRS", "FAMILY" and "ACTION" stand for the unmutated ones."""
    arrow, one = arrow_category(), terminal_category()
    D1 = complex_to_sset(standard_simplex_complex(1), 2)
    translation = translation_action(cyclic_group(2))
    point = trivial_action(cyclic_group(2), one)
    i0 = Functor(one, arrow, {"*": "0"}, {"id*": "0<=0"})
    i1 = Functor(one, arrow, {"*": "1"}, {"id*": "1<=1"})
    pairs = {"G": "Z2", "H_group": "Z2", "pairs": [{"H": ["c0", "c1"], "phi": PHI},
                                                   {"H": ["c0"], "phi": {"c0": "c0"}}]}
    return [
        ("validate", ["validate", "--input", "DOC"], arrow.to_doc()),
        ("nerve", ["nerve", "--cap", "2", "--input", "DOC"], chain_poset(2).to_fincat().to_doc()),
        ("homology-category", ["homology", "--input", "DOC"], arrow.to_doc()),
        ("homology-sset", ["homology", "--kind", "sset", "--input", "DOC"], D1.to_doc()),
        ("homology-complex", ["homology", "--kind", "complex", "--input", "DOC"],
         ser.complex_doc(boundary_complex(2))),
        ("sd", ["sd", "--input", "DOC"], ser.complex_doc(standard_simplex_complex(1))),
        ("ex", ["ex", "--input", "DOC"], D1.to_doc()),
        ("check-dwyer", ["check-dwyer", "--input", "DOC"], ser.functor_doc(i0)),
        ("pushout", ["pushout", "--cross-check", "--input", "DOC"],
         {"A": one.to_doc(), "B": arrow.to_doc(), "C": arrow.to_doc(),
          "i": ser.maps_doc(i0), "c": ser.maps_doc(i1)}),
        ("fixed", ["fixed", "--input", "DOC", "--family", "FAMILY"], ser.action_doc(translation)),
        ("fixed-family", ["fixed", "--input", "ACTION", "--family", "DOC"],
         {"group": "Z2", "subgroups": [["c0"], ["c0", "c1"]]}),
        ("hofix", ["hofix", "--input", "DOC", "--pairs", "PAIRS"], ser.action_doc(translation)),
        ("hofix-pairs", ["hofix", "--input", "ACTION", "--pairs", "DOC"], pairs),
        ("weq-functor", ["weq", "--input", "DOC"], ser.functor_doc(i0)),
        ("weq-map", ["weq", "--input", "DOC"], sset_map_doc(identity_sset_map(D1))),
        ("gglobal-weq", ["gglobal-weq", "--input", "DOC", "--pairs", "PAIRS"],
         {"source_action": ser.action_doc(translation), "target_action": ser.action_doc(point),
          "functor": {"object_map": {x: "*" for x in translation.carrier.objects},
                      "morphism_map": {m: "id*" for m in translation.carrier.morphism_ids}}}),
        ("saturate-cell", ["saturate", "--input", "DOC", "--pairs", "PAIRS"],
         {"kind": "cell", "K": "Z2", "H": ["c0", "c1"], "phi": PHI}),
        ("saturate-poset", ["saturate", "--input", "DOC", "--pairs", "PAIRS"],
         {"kind": "poset", "category": chain_poset(1).to_fincat().to_doc()}),
        ("gens", ["gens", "--model", "g_global_thin", "--n", "0", "--params", "DOC"],
         {"H": "Z2", "G": "Z2", "phi": PHI}),
        ("transfer-check", ["transfer-check", "--n-max", "0", "--phi", "DOC"], PHI),
    ], {"PAIRS": pairs, "FAMILY": {"group": "Z2", "subgroups": [["c0"]]},
        "ACTION": ser.action_doc(translation)}


CASES, FIXED = cases()

#: a JSON value of any type, to put in place of another
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4)


def containers(doc):
    """Every list and object in `doc`, `doc` itself first."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            out.append(node)
            stack.extend(reversed(list(node.values() if isinstance(node, dict) else node)))
    return out


@st.composite
def mutated(draw, doc):
    """`doc` after one to three mutations, each at a list or object of it:
    an entry retyped, dropped, duplicated or renamed (in a list, the list cut
    there), or one more entry of any type."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(containers(doc)))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["retype", "drop", "duplicate", "rename", "add"]))
        if op == "add" or not keys:
            if isinstance(node, dict):
                node[draw(st.text(max_size=3))] = draw(VALUES)
            else:
                node.append(draw(VALUES))
            continue
        key = draw(st.sampled_from(keys))
        if op == "retype":
            node[key] = draw(VALUES)
        elif op == "drop":
            del node[key]
        elif op == "duplicate" and isinstance(node, list):
            node.append(copy.deepcopy(node[key]))
        elif op == "duplicate":
            node[draw(st.text(max_size=3))] = copy.deepcopy(node[key])
        elif isinstance(node, dict):
            node[draw(st.text(max_size=3))] = node.pop(key)
        else:
            del node[key:]
    return doc


@st.composite
def invocations(draw):
    label, argv, doc = draw(st.sampled_from(CASES))
    return label, argv, draw(mutated(doc))


def write(directory, name, doc):
    path = directory / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@settings(max_examples=150, deadline=None)
@given(invocations())
def test_mutated_documents_exit_with_a_documented_code(tmp_path_factory, invocation):
    label, argv, doc = invocation
    directory = tmp_path_factory.getbasetemp()
    inline = label in ("gens", "transfer-check")
    files = {name: write(directory, f"{name}.json", fixed) for name, fixed in FIXED.items()}
    files["DOC"] = json.dumps(doc) if inline else write(directory, "doc.json", doc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([files.get(a, a) for a in argv])
    assert code in EXIT_CODES, (label, doc, code)
    lines = out.getvalue().splitlines()
    assert len(lines) <= 1, (label, doc, lines)
    if lines:
        assert isinstance(json.loads(lines[0]), dict)
