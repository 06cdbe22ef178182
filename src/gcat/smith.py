"""Sparse integer Smith normal form.

Exact arithmetic on Python ints, deterministic pivoting.  Tuned for the
boundary matrices of normalized chain complexes: a first phase eliminates
unit pivots lying in singleton rows/columns (no fill-in, cascades through
most of a nerve), then unit pivots with minimal Markowitz cost, and only the
small remainder sees the general gcd elimination.
"""

from __future__ import annotations

from math import gcd


class _Sparse:
    def __init__(self, entries):
        self.rows = {}
        self.cols = {}
        for (r, c), v in entries.items():
            if v:
                self.rows.setdefault(r, {})[c] = v
                self.cols.setdefault(c, {})[r] = v

    def get(self, r, c):
        return self.rows.get(r, {}).get(c, 0)

    def set(self, r, c, v):
        if v:
            self.rows.setdefault(r, {})[c] = v
            self.cols.setdefault(c, {})[r] = v
        else:
            if r in self.rows and c in self.rows[r]:
                del self.rows[r][c]
                if not self.rows[r]:
                    del self.rows[r]
                del self.cols[c][r]
                if not self.cols[c]:
                    del self.cols[c]

    def add_row(self, dst, src, k):
        if not k:
            return
        for c, v in list(self.rows.get(src, {}).items()):
            self.set(dst, c, self.get(dst, c) + k * v)

    def add_col(self, dst, src, k):
        if not k:
            return
        for r, v in list(self.cols.get(src, {}).items()):
            self.set(r, dst, self.get(r, dst) + k * v)

    def drop_pivot(self, r, c):
        for cc in list(self.rows.get(r, {})):
            self.set(r, cc, 0)
        for rr in list(self.cols.get(c, {})):
            self.set(rr, c, 0)


def smith_invariants(n_rows: int, n_cols: int, entries: dict) -> list:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    entries: {(row, col): value}; zero values are ignored.
    """
    import heapq

    m = _Sparse(entries)
    units = 0

    # phase 1: unit pivots in singleton rows/columns -- no fill-in, cascades;
    # candidates kept in a lazy heap, revalidated on pop
    heap = []

    def consider_row(r):
        row = m.rows.get(r)
        if row and len(row) == 1:
            c, v = next(iter(row.items()))
            if abs(v) == 1:
                heapq.heappush(heap, (r, c))

    def consider_col(c):
        col = m.cols.get(c)
        if col and len(col) == 1:
            r, v = next(iter(col.items()))
            if abs(v) == 1:
                heapq.heappush(heap, (r, c))

    for r in list(m.rows):
        consider_row(r)
    for c in list(m.cols):
        consider_col(c)
    while heap:
        r, c = heapq.heappop(heap)
        v = m.get(r, c)
        if abs(v) != 1 or not (len(m.rows.get(r, ())) == 1 or len(m.cols.get(c, ())) == 1):
            continue
        touched_rows = set(m.cols.get(c, {})) - {r}
        touched_cols = set(m.rows.get(r, {})) - {c}
        for rr in list(m.cols.get(c, {})):
            if rr != r:
                m.add_row(rr, r, -m.get(rr, c) // v)
        for cc in list(m.rows.get(r, {})):
            if cc != c:
                m.add_col(cc, c, -m.get(r, cc) // v)
        m.drop_pivot(r, c)
        units += 1
        for rr in touched_rows:
            consider_row(rr)
        for cc in touched_cols:
            consider_col(cc)

    # phase 2: unit pivots, minimal fill (Markowitz cost), deterministic ties
    while True:
        pivot = None
        best = None
        for r, row in m.rows.items():
            lr = len(row) - 1
            for c, v in row.items():
                if abs(v) != 1:
                    continue
                cost = lr * (len(m.cols[c]) - 1)
                key = (cost, r, c)
                if best is None or key < best:
                    best = key
                    pivot = (r, c)
        if pivot is None:
            break
        r, c = pivot
        p = m.get(r, c)
        for rr in list(m.cols.get(c, {})):
            if rr != r:
                m.add_row(rr, r, -m.get(rr, c) // p)
        for cc in list(m.rows.get(r, {})):
            if cc != c:
                m.add_col(cc, c, -m.get(r, cc) // p)
        m.drop_pivot(r, c)
        units += 1

    # phase 3: general elimination with the gcd dance on the remainder
    diagonal = []
    while m.rows:
        best = None
        pivot = None
        for r, row in m.rows.items():
            for c, v in row.items():
                key = (abs(v), r, c)
                if best is None or key < best:
                    best = key
                    pivot = (r, c)
        r0, c0 = pivot
        while True:
            changed = False
            for r in sorted(m.cols.get(c0, {})):
                if r == r0:
                    continue
                p = m.get(r0, c0)
                q = m.get(r, c0) // p
                if q:
                    m.add_row(r, r0, -q)
                    changed = True
                if m.get(r, c0):
                    r0 = r
                    changed = True
                    break
            if changed:
                continue
            for c in sorted(m.rows.get(r0, {})):
                if c == c0:
                    continue
                p = m.get(r0, c0)
                q = m.get(r0, c) // p
                if q:
                    m.add_col(c, c0, -q)
                    changed = True
                if m.get(r0, c):
                    c0 = c
                    changed = True
                    break
            if not changed:
                break
        diagonal.append(abs(m.get(r0, c0)))
        m.drop_pivot(r0, c0)

    diagonal = [d for d in diagonal if d]
    changed = True
    while changed:
        changed = False
        for a in range(len(diagonal)):
            for b in range(a + 1, len(diagonal)):
                x, y = diagonal[a], diagonal[b]
                if y % x:
                    g = gcd(x, y)
                    diagonal[a], diagonal[b] = g, x * y // g
                    changed = True
    return [1] * units + sorted(diagonal)
