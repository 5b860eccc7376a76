"""Integral cellular homology via sparse integer elimination.

Chain complexes are built from explicit cell lists and a face rule that
gives each cell's signed faces: the simplices of a nerve, or Milgram's
regular CW cells of Q_n(k) and J_n(k) (``quasicat.cellular_q`` and
``cellular_j``).  Each boundary is stored as sparse columns, and the
constructor checks that the boundary of a boundary vanishes.  Homology
groups come out as a free rank plus invariant-factor torsion, from one
sparse elimination whose one step (_clear_cross) clears a pivot's row and
column: the +-1 pivots go first, each worth a factor 1, and the small
residue they leave is reduced in the same columns by Euclid steps on
least-magnitude pivots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InvariantBroken


def _sparse_factors(columns) -> tuple[int, ...]:
    """Invariant factors of the matrix with these sparse columns.

    Each +-1 entry is a pivot that splits off with a factor 1.  Sweeps
    visit columns by ascending nonzero count and take the unit whose row is
    shortest, which keeps fill-in low.  What the units leave goes to
    _residue_factors, in the same columns.
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
            p = None
            for r, v in cols.get(j, {}).items():
                if v in (1, -1) and (p is None or len(rows[r]) < len(rows[p])):
                    p = r
            if p is not None:
                _split_off(cols, rows, j, p)
                units += 1
                swept = True
    return (1,) * units + _residue_factors(cols, rows)


def _residue_factors(cols: dict, rows: dict) -> tuple[int, ...]:
    """Invariant factors of sparse columns that hold no unit pivot.

    Each round splits off a least-magnitude entry, which keeps the entries
    small, and the split-off values become invariant factors by (gcd, lcm)
    merging.  cols and rows are consumed.
    """
    found = []
    while cols:
        _, j, p = min((abs(v), j, r) for j, col in cols.items() for r, v in col.items())
        found.append(_split_off(cols, rows, j, p))
    for i in range(len(found)):
        for k in range(i + 1, len(found)):
            a, b = found[i], found[k]
            found[i], found[k] = math.gcd(a, b), math.lcm(a, b)
    return tuple(found)


def _split_off(cols, rows, j, p) -> int:
    """Eliminate from the pivot cols[j][p]: run _clear_cross until no
    remainder is left (each is smaller than its pivot, as in Euclid; a +-1
    pivot leaves none), then remove the pivot's column, whose other entries
    row steps would clear, and return the pivot's magnitude."""
    while (remainder := _clear_cross(cols, rows, j, p)) is not None:
        j, p = remainder
    col = cols.pop(j)
    for r in col:
        rows[r].discard(j)
    return abs(col[p])


def _clear_cross(cols, rows, j, p):
    """Clear row p against the pivot cols[j][p] with column steps, then
    look for a row step that leaves a remainder in column j.  Returns
    (column, row) of the first non-zero remainder, or None once the pivot
    is alone in its row and divides the rest of its column."""
    col = cols[j]
    pivot = col.pop(p)  # until it goes back, col is what a column step subtracts
    line = rows[p]
    line.discard(j)  # and line the columns of row p still to clear
    found = None
    while line:
        k = line.pop()
        other = cols[k]
        q, left = divmod(other.pop(p), pivot)
        for r, v in col.items() if q else ():  # q == 0: other[p] is a remainder
            new = other.get(r, 0) - q * v
            if new:
                other[r] = new
                rows[r].add(k)
            else:
                del other[r]
                rows[r].discard(k)
        if left:
            other[p] = left
            line.add(k)
            found = k, p
            break
        if not other:
            del cols[k]
    else:
        # row p now holds the pivot alone, so a row step changes column j only
        for r, v in col.items():
            if v % pivot:
                col[r] = v % pivot
                found = j, r
                break
    col[p] = pivot
    line.add(j)
    return found


def invariant_factors(matrix) -> tuple[int, ...]:
    """Non-zero diagonal of the Smith normal form, each entry dividing the
    next, from the sparse elimination of _sparse_factors."""
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
