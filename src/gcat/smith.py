"""Sparse integer Smith normal form: exact Python ints, deterministic
pivots, and two phases over one structure, rows as {col: value} plus the set
of row indices of each column.  The rows are copied from a `Rows`, which
`sset.boundary_matrix` writes in one pass over the faces, or bucketed from
any other (row, col) -> value mapping; the columns are derived from the rows.

Phase 1 takes unit pivots with row operations only (Dumas, Heckenbach,
Saunders & Welker, "Computing simplicial homology based on efficient Smith
normal form algorithms", 2003); boundaries of nerves have few others.  Of
the columns holding a +-1, least entries first, one pivots on its unit row
of fewest entries.  As p = +-1 is its own inverse, row -= (row[c] * p) *
pivot_row clears column c exactly.  Clearing the pivot row by column
operations would then change nothing else, so the pivot's row and column
are deleted.  A lazy heap keyed by (entry count, col) takes again each
column the pivot row touched, so units an elimination creates are found.
The phase ends when no row is left, since the columns still on the heap
then hold nothing: on the benchmark's largest boundary, 459 unit pivots
take every row by pop 927 of the 6,822 that emptying the heap would take.

The unit pivots' columns P are what `homology` compresses with (the
"compress" of Bauer, Kerber & Reininghaus, "Clear and compress: computing
persistent homology in chunks", 2014).  Phase 1 turns the columns P of a
boundary A into a triangular block with +-1 on its diagonal by row
operations alone, so they hold a unimodular minor U of A.  A cycle z of A
then has z_P = -U^-1 N z_rest, an integral function of its other
coordinates, and forgetting z_P is injective on cycles with a saturated
image: the next boundary, whose columns are cycles of A, keeps its rank and
its torsion with the rows P left out.  Phase-2 pivots may not be used so,
since their column operations mix P with the other columns.

Phase 2, the gcd stage on what is left, pops pivots of least |v|, then
Markowitz cost, from a lazy heap (Dumas-Saunders-Villard, J. Symb. Comput.
2001) that takes again only the positions an elimination changed.  A fix-up
makes the diagonal a divisibility chain.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from math import gcd


class Rows(Mapping):
    """A sparse integer matrix held as its rows, {row: {col: value}} with no
    zero value, and read as the mapping (row, col) -> value that
    `smith_invariants` takes: given one, it copies the rows as they are."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    def __getitem__(self, key):
        r, c = key
        return self.rows[r][c]

    def __iter__(self):
        return ((r, c) for r, row in self.rows.items() for c in row)

    def __len__(self):
        return sum(map(len, self.rows.values()))


class _Sparse:
    def __init__(self, entries):
        """The rows of `entries`, copied from a `Rows` or bucketed from any
        other (row, col) -> value mapping with its zero values left out, and
        the columns derived from them; `entries` is left unchanged."""
        if isinstance(entries, Rows):
            self.rows = {r: dict(row) for r, row in entries.rows.items() if row}
        else:
            self.rows = {}
            for (r, c), v in entries.items():
                if v:
                    self.rows.setdefault(r, {})[c] = v
        self.cols = {}
        for r, row in self.rows.items():
            for c in row:
                self.cols.setdefault(c, set()).add(r)
        self.changed = set()   # positions set to a nonzero value since the last clear

    def get(self, r, c):
        return self.rows.get(r, {}).get(c, 0)

    def set(self, r, c, v):
        if v:
            self.rows.setdefault(r, {})[c] = v
            self.cols.setdefault(c, set()).add(r)
            self.changed.add((r, c))
        elif r in self.rows and c in self.rows[r]:
            del self.rows[r][c]
            if not self.rows[r]:
                del self.rows[r]
            self.cols[c].discard(r)
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
        for r in list(self.cols.get(src, ())):
            self.set(r, dst, self.get(r, dst) + k * self.rows[r][src])

    def eliminate_units(self, n_cols):
        """Phase 1, until no column holds a +-1 or no row is left: the unit
        pivots' columns, in the order they were taken."""
        rows, cols = self.rows, self.cols
        heap = [len(rs) * n_cols + c for c, rs in cols.items()]
        heapq.heapify(heap)
        pivots = []
        while heap and rows:
            count, c = divmod(heapq.heappop(heap), n_cols)
            rs = cols.get(c, ())
            if len(rs) != count:
                continue   # stale: the column was pushed again with its new count
            unit_rows = [(len(rows[r]), r) for r in rs if rows[r][c] in (1, -1)]
            if not unit_rows:
                continue   # pushed again if a later pivot changes the column
            r0 = min(unit_rows)[1]
            pivot = rows.pop(r0)
            p = pivot[c]
            for r in rs - {r0}:
                row = rows[r]
                f = row[c] * p
                for c2, v in pivot.items():
                    new = row.get(c2, 0) - f * v
                    if new:
                        if c2 not in row:
                            cols[c2].add(r)
                        row[c2] = new
                    else:
                        del row[c2]
                        cols[c2].discard(r)
                if not row:
                    del rows[r]
            for c2 in pivot:
                rs2 = cols[c2]
                rs2.discard(r0)
                if rs2:
                    heapq.heappush(heap, len(rs2) * n_cols + c2)
                else:
                    del cols[c2]
            pivots.append(c)
        return pivots


def smith_invariants(n_rows: int, n_cols: int, entries, unit_cols=None) -> list:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    entries: a mapping {(row, col): value} with 0 <= row < n_rows and
    0 <= col < n_cols for every nonzero value; zero values are ignored.  A
    `Rows` has its rows copied, any other mapping is bucketed into rows.
    entries is left unchanged and let go once the rows are built, so a caller
    that hands over its only reference, as `homology` does, has it freed
    before elimination starts.
    unit_cols, a set if given, receives the columns of the unit pivots.
    """
    m = _Sparse(entries)
    del entries
    if any(not 0 <= r < n_rows for r in m.rows) or any(not 0 <= c < n_cols for c in m.cols):
        raise ValueError("an entry lies outside the n_rows x n_cols matrix")
    pivots = m.eliminate_units(n_cols)
    if unit_cols is not None:
        unit_cols.update(pivots)
    units = len(pivots)
    # A key is one int that orders as the tuple (|v|, Markowitz cost, r, c)
    # does, in a third of a tuple's memory: a cost and r * n_cols + c are
    # both below span.
    span = n_rows * n_cols

    def key(r, c):
        cost = (len(m.rows[r]) - 1) * (len(m.cols[c]) - 1)
        return (abs(m.rows[r][c]) * span + cost) * span + r * n_cols + c

    heap = [key(r, c) for r, row in m.rows.items() for c in row]
    heapq.heapify(heap)
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
        # pivot.
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
