"""Integral simplicial homology via sparse elimination and Smith normal form.

Chain complexes are built from explicit cell lists and a face rule; each
boundary is stored as sparse columns, and the constructor checks that the
boundary of a boundary vanishes.  Homology groups come out as a free rank
plus invariant-factor torsion.  Invariant factors are computed by
eliminating the +-1 pivots first, each worth a factor 1, and running exact
integer Smith normal form only on the small residue that is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InvariantBroken


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _snf(matrix, transforms: bool):
    a = [list(row) for row in matrix]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = _identity(nr) if transforms else None
    v = _identity(nc) if transforms else None

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def row_add(i, j, q):
        # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        if u is not None:
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_add(i, j, q):
        # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]
        if v is not None:
            for row in v:
                row[i] -= q * row[j]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                val = abs(a[i][j])
                if val and (best is None or val < best):
                    best = val
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])

        while True:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, q)
                    if a[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the submatrix
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, -1)  # fold the offending row into the pivot row

        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            if u is not None:
                u[t] = [-x for x in u[t]]
        t += 1

    return a, u, v


def smith_normal_form(matrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalise an integer matrix: returns (d, u, v) with u m v = d,
    u and v unimodular, and each diagonal entry dividing the next."""
    d, u, v = _snf(matrix, transforms=True)
    return d, u, v


def _sparse_factors(columns) -> tuple[int, ...]:
    """Invariant factors of the matrix with these sparse columns.

    Each +-1 entry is a pivot: column operations clear the rest of its row,
    after which its row and column split off with a factor 1.  Sweeps visit
    columns by ascending nonzero count and take the unit whose row is
    shortest, which keeps fill-in low; the remainder goes through _snf.
    """
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    rows: dict = {}  # row -> columns with a nonzero there
    for j, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(j)
    units = 0
    swept = True
    while swept:
        swept = False
        for j in sorted(cols, key=lambda j: len(cols[j])):
            col = cols.get(j)
            pivots = [r for r, v in col.items() if v in (1, -1)] if col else ()
            if not pivots:
                continue
            p = min(pivots, key=lambda r: len(rows[r]))
            del cols[j]
            for r in col:
                rows[r].discard(j)
            for k in rows.pop(p):
                other = cols[k]
                q = other.pop(p) * col[p]
                for r, v in col.items():
                    if r == p:
                        continue
                    new = other.get(r, 0) - q * v
                    if new:
                        other[r] = new
                        rows[r].add(k)
                    else:
                        del other[r]
                        rows[r].discard(k)
                if not other:
                    del cols[k]
            units += 1
            swept = True
    live = sorted(r for r, js in rows.items() if js)
    residue = [[cols[j].get(r, 0) for j in sorted(cols)] for r in live]
    d, _, _ = _snf(residue, transforms=False)
    diagonal = (row[i] for i, row in enumerate(d[: len(cols)]))
    return (1,) * units + tuple(x for x in diagonal if x)


def invariant_factors(matrix) -> tuple[int, ...]:
    """Non-zero diagonal of the Smith normal form."""
    width = len(matrix[0]) if matrix else 0
    return _sparse_factors(
        [{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(width)]
    )


def matrix_rank(matrix) -> int:
    return len(invariant_factors(matrix))


@dataclass(frozen=True)
class ChainComplex:
    """Finite chain complex of free abelian groups with chosen cell bases."""

    cells: tuple[tuple, ...]
    boundaries: tuple  # boundaries[d][j]: {row: nonzero coeff}, sparse column j of ∂_d

    @classmethod
    def from_cells(cls, cells: Sequence[Sequence], face_list: Callable) -> "ChainComplex":
        cells = tuple(tuple(layer) for layer in cells)
        while cells and not cells[-1]:
            cells = cells[:-1]
        index = [
            {cell: i for i, cell in enumerate(layer)} for layer in cells
        ]
        boundaries = [None]
        for d in range(1, len(cells)):
            rows, cols = index[d - 1], []
            for cell in cells[d]:
                col: dict = {}
                for coeff, face in face_list(d, cell):
                    row = rows.get(face)
                    if row is None:
                        raise InvariantBroken(
                            "face of a cell is missing from the complex", dim=d
                        )
                    col[row] = col.get(row, 0) + coeff
                if not all(col.values()):
                    col = {r: v for r, v in col.items() if v}
                cols.append(col)
            boundaries.append(cols)
        for d in range(2, len(cells)):
            _assert_zero_product(boundaries[d - 1], boundaries[d], d)
        return cls(cells, tuple(boundaries))

    def size(self, d: int) -> int:
        return len(self.cells[d]) if 0 <= d < len(self.cells) else 0

    @property
    def dimension(self) -> int:
        return len(self.cells) - 1

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(layer) for d, layer in enumerate(self.cells))


def _assert_zero_product(outer, inner, d):
    # outer: C_{d-1} -> C_{d-2}, inner: C_d -> C_{d-1}, both sparse columns
    for j, col in enumerate(inner):
        total: dict = {}
        for i, c in col.items():
            for r, v in outer[i].items():
                total[r] = total.get(r, 0) + c * v
        bad = [r for r, v in total.items() if v]
        if bad:
            raise InvariantBroken(
                "boundary of a boundary does not vanish", dim=d, row=min(bad), col=j
            )


@dataclass(frozen=True)
class HomologyResult:
    groups: tuple[tuple[int, tuple[int, ...]], ...]  # (rank, torsion) per degree

    def to_json(self) -> dict:
        return {
            "H": [
                {"rank": rank, "torsion": list(torsion)} for rank, torsion in self.groups
            ]
        }

    def __str__(self) -> str:
        parts = []
        for rank, torsion in self.groups:
            terms = ["Z"] * rank + [f"Z/{t}" for t in torsion]
            parts.append(" + ".join(terms) if terms else "0")
        return ", ".join(f"H{d} = {g}" for d, g in enumerate(parts))


def homology(complex_: ChainComplex) -> HomologyResult:
    """Integral homology of the complex, in every degree up to its top
    dimension; the empty complex has none.

    H_d has rank |C_d| - r_d - r_(d+1), with r_d the rank of d_d, and its
    torsion is the invariant factors of d_(d+1) above 1.
    """
    top = complex_.dimension
    factors = {}
    for d in range(1, top + 1):
        factors[d] = _sparse_factors(complex_.boundaries[d])

    groups = []
    for d in range(top + 1):
        rank_d = len(factors.get(d, ()))
        rank_up = len(factors.get(d + 1, ()))
        free = complex_.size(d) - rank_d - rank_up
        torsion = tuple(f for f in factors.get(d + 1, ()) if f > 1)
        groups.append((free, torsion))
    return HomologyResult(tuple(groups))


def connected_components(complex_: ChainComplex) -> int:
    """Number of path components, read off the 1-skeleton."""
    n = complex_.size(0)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if complex_.dimension >= 1:
        for col in complex_.boundaries[1]:
            ends = list(col)
            for a, b in zip(ends, ends[1:]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    return len({find(x) for x in range(n)})
