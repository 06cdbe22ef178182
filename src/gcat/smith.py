"""Sparse integer Smith normal form.

Exact arithmetic on Python ints, deterministic pivoting.  One loop pops
pivots from a lazy heap keyed by (|v|, Markowitz cost, row, col), so unit
pivots of least fill-in come first (Dumas-Saunders-Villard, J. Symb. Comput.
2001) and the gcd elimination sees only what no unit pivot cleared.  A popped
key is revalidated against the entry's current key; only the positions that
an elimination changed are pushed again.
"""

from __future__ import annotations

import heapq
from math import gcd


class _Sparse:
    def __init__(self, entries):
        self.rows = {}
        self.cols = {}
        self.changed = set()   # positions set to a nonzero value since the last clear
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
            self.changed.add((r, c))
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


def smith_invariants(n_rows: int, n_cols: int, entries: dict) -> list:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    entries: {(row, col): value} with 0 <= row < n_rows and 0 <= col < n_cols;
    zero values are ignored.
    """
    if not all(0 <= r < n_rows and 0 <= c < n_cols for r, c in entries):
        raise ValueError("an entry lies outside the n_rows x n_cols matrix")
    m = _Sparse(entries)
    # A key is one int that orders as the tuple (|v|, Markowitz cost, r, c)
    # does, in a third of a tuple's memory: a cost and r * n_cols + c are
    # both below span.
    span = n_rows * n_cols

    def key(r, c):
        cost = (len(m.rows[r]) - 1) * (len(m.cols[c]) - 1)
        return (abs(m.rows[r][c]) * span + cost) * span + r * n_cols + c

    heap = [key(r, c) for r, row in m.rows.items() for c in row]
    heapq.heapify(heap)
    units = 0
    diagonal = []
    while heap:
        popped = heapq.heappop(heap)
        r0, c0 = divmod(popped % span, n_cols)
        if not m.get(r0, c0):
            continue
        now = key(r0, c0)
        if now > popped:
            heapq.heappush(heap, now)
            continue
        # the gcd dance: clear column c0, then row r0, with the pivot at
        # (r0, c0); a nonzero remainder is a smaller entry and becomes the
        # pivot.  A unit pivot leaves no remainder: one pass over each.
        while True:
            p = m.get(r0, c0)
            for r in list(m.cols[c0]):
                if r != r0:
                    m.add_row(r, r0, -(m.get(r, c0) // p))
                    if m.get(r, c0):
                        r0 = r
                        break
            else:
                for c in list(m.rows[r0]):
                    if c != c0:
                        m.add_col(c, c0, -(m.get(r0, c) // p))
                        if m.get(r0, c):
                            c0 = c
                            break
                else:
                    break
        d = abs(m.get(r0, c0))
        if d == 1:
            units += 1
        else:
            diagonal.append(d)
        m.set(r0, c0, 0)
        for r, c in m.changed:
            if m.get(r, c):
                heapq.heappush(heap, key(r, c))
        m.changed.clear()

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
