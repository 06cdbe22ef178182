#!/usr/bin/env python3
"""Generate a seeded corpus of Dwyer spans and write the documents to a
directory, one JSON file per span plus an index with content hashes."""

import argparse
import sys
from pathlib import Path

# the checkout's src, as pyproject.toml's `pythonpath` gives pytest, so that
# a plain checkout runs without an install
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gcat import serialize as ser  # noqa: E402
from gcat.corpus import dwyer_span_corpus  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--group", default=None, help="Z2, Z3, S3, ... (default: trivial)")
    ap.add_argument("--out", default="corpus_out")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    index = []
    for idx, span in enumerate(dwyer_span_corpus(args.seed, args.count, args.group)):
        doc = {
            "label": span.label,
            "A": span.A.to_doc(), "B": span.B.to_doc(), "C": span.C.to_doc(),
            "i": ser.maps_doc(span.i),
            "c": ser.maps_doc(span.c),
            "witness": ser.witness_doc(span.witness),
        }
        path = out / f"span_{idx:03d}.json"
        path.write_text(ser.canonical_json(doc), encoding="utf-8")
        index.append({"file": path.name, "hash": ser.content_hash(doc), "label": span.label})
    (out / "index.json").write_text(
        ser.canonical_json({"seed": args.seed, "count": args.count,
                            "group": args.group or "1", "spans": index}),
        encoding="utf-8")
    print(f"wrote {len(index)} spans to {out}/")


if __name__ == "__main__":
    main()
