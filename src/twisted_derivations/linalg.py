"""Exact linear algebra used by the derivation solver.

Two small engines, nothing general purpose: a fraction-free reduced row
echelon form over the integers (the constraint systems here have tiny
integer coefficients) and a plain eliminator over an exact field for
inhomogeneous solves. Columns are integers; rows are sparse dicts.
Pivoting always picks the smallest column index, so results are
deterministic and, since the reduced echelon form of a row space is
unique, independent of row insertion order.

The integer reducer keeps a column index (column -> stored rows touching
it) so that a new pivot is eliminated only from the rows that contain
it, and each elimination updates the index only for the columns it adds
or cancels. A caller whose system is block diagonal may run one reducer
per block over that block's column list: the union of the per-block
echelon forms is the echelon form of the whole system, so the pivots and
the kernel basis do not change.
"""

from __future__ import annotations

from math import gcd


def _normalize(row, pivot_col):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        for c in list(row):
            row[c] //= g
    if row[pivot_col] < 0:
        for c in list(row):
            row[c] = -row[c]
    return row


def _int_combine(target, a, b, source):
    """target <- a*target - b*source, in place, dropping zeros."""
    if a != 1:
        for c in list(target):
            target[c] *= a
    for c, v in source.items():
        nv = target.get(c, 0) - b * v
        if nv:
            target[c] = nv
        else:
            target.pop(c, None)
    return target


class IntegerRowReducer:
    """Incremental integer RREF; rows are dicts mapping column to int."""

    def __init__(self):
        self.rows = {}        # pivot column -> normalized row dict
        self._col_index = {}  # column -> set of pivot columns touching it

    @property
    def rank(self):
        return len(self.rows)

    def _index_add(self, pivot_col, row):
        for c in row:
            self._col_index.setdefault(c, set()).add(pivot_col)

    def add_row(self, row) -> bool:
        """Reduce a row into the current form. True if the rank grew."""
        row = {c: v for c, v in row.items() if v}
        # a single pass over the pivot columns present at entry suffices:
        # stored rows touch no pivot column other than their own, so the
        # eliminations below only ever introduce free columns
        for c in sorted(row):
            pivot_row = self.rows.get(c)
            if pivot_row is None or c not in row:
                continue
            _int_combine(row, pivot_row[c], row[c], pivot_row)
        if not row:
            return False
        pivot_col = min(row)
        _normalize(row, pivot_col)
        # eliminate the new pivot column from every stored row touching it;
        # scaling keeps a row's support, so only the columns of the new
        # row can enter or leave the stored row's support
        index = self._col_index
        a = row[pivot_col]
        for pc in list(index.get(pivot_col, ())):
            stored = self.rows[pc]
            b = stored[pivot_col]
            if a != 1:
                for c in stored:
                    stored[c] *= a
            for c, v in row.items():
                old = stored.get(c, 0)
                nv = old - b * v
                if nv:
                    stored[c] = nv
                    if not old:
                        index.setdefault(c, set()).add(pc)
                else:
                    del stored[c]
                    bucket = index[c]
                    bucket.discard(pc)
                    if not bucket:
                        del index[c]
            _normalize(stored, pc)
        self.rows[pivot_col] = row
        self._index_add(pivot_col, row)
        return True

    def nullspace_basis(self, columns):
        """Integer kernel basis, one vector per free column, in the order
        of columns.

        columns lists every column of the system; those without a pivot
        are free. Each vector has coprime entries and a positive entry at
        its free column.
        """
        free_cols = [c for c in columns if c not in self.rows]
        basis = []
        for f in free_cols:
            # x_f = 1 and x_p = -row[f] / row[p], scaled by the lcm of the
            # pivot entries (all positive) to clear the denominators
            pivots = self._col_index.get(f, ())
            scale = 1
            for p in pivots:
                d = self.rows[p][p]
                scale = scale * d // gcd(scale, d)
            out = {f: scale}
            for p in pivots:
                row = self.rows[p]
                out[p] = -row[f] * (scale // row[p])
            basis.append(_normalize(out, f))
        return basis


class FieldEliminator:
    """Row reduction over an exact field (used with Gaussian rationals).

    Pivot rows are normalized to pivot value one and kept mutually
    reduced, so after feeding all equations a particular solution reads
    off directly with every free variable at zero.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> (row dict, rhs)

    def add_equation(self, row, rhs) -> bool:
        """False when the equation contradicts the ones already seen."""
        row = {c: v for c, v in row.items() if v}
        for c in sorted(row):
            if c not in self.rows or c not in row:
                continue
            pivot_row, pivot_rhs = self.rows[c]
            factor = row[c]
            for pc, pv in pivot_row.items():
                nv = row.get(pc, 0) - factor * pv
                if nv:
                    row[pc] = nv
                else:
                    row.pop(pc, None)
            rhs = rhs - factor * pivot_rhs
        if not row:
            return not rhs
        pivot_col = min(row)
        inv = row[pivot_col]
        row = {c: v / inv for c, v in row.items()}
        rhs = rhs / inv
        for pc, (stored, stored_rhs) in list(self.rows.items()):
            if pivot_col in stored:
                factor = stored[pivot_col]
                for c, v in row.items():
                    nv = stored.get(c, 0) - factor * v
                    if nv:
                        stored[c] = nv
                    else:
                        stored.pop(c, None)
                self.rows[pc] = (stored, stored_rhs - factor * rhs)
        self.rows[pivot_col] = (row, rhs)
        return True

    def solve(self, n_cols):
        """(particular solution, kernel dimension) for the current system."""
        solution = {}
        for p, (_row, rhs) in self.rows.items():
            if rhs:
                solution[p] = rhs
        kernel_dim = n_cols - len(self.rows)
        return solution, kernel_dim
