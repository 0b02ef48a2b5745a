"""Primitive spaces as exact kernels of the reduced coproduct.

For each grade n the reduced coproduct is a linear map from the span of
the length-n packed words into the span of nonempty word pairs.  Its
matrix is assembled sparsely (only pairs that actually occur become rows)
and its kernel comes from one exact elimination:

- rows are cleared of denominators and reduced in integers, dividing each
  new row by the gcd of its entries;
- columns are taken from last to first, and each pivot is the remaining
  row with the fewest nonzeros in its column (Markowitz-style), which
  keeps fill-in low and never mixes the matrix's independent (length,
  supremum) blocks;
- back-substitution in ascending pivot order leaves each pivot row with
  its leading entry at p and other entries only at free columns left of
  p, so the kernel vector of free column f, e_f - sum_p R[p, f] e_p, is
  already in reduced echelon form over the canonical word basis.

The same elimination gives the rank.  Every kernel vector is then
re-checked against the coproduct itself, independently of the matrix, in
integers after clearing its denominators.  No step uses floating point,
so the reported dimensions and bases carry no numerical tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Tuple

from .algebra import LinComb
from .coalgebra import coproduct, reduced_coproduct
from .enumeration import enumerate_packed
from .words import Word

__all__ = [
    "ResourceLimitError",
    "RationalMatrix",
    "PrimitiveBasis",
    "delta_plus_matrix",
    "primitive_space",
    "DEFAULT_GRADE_CAP",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_GRADE_CAP = 6


class ResourceLimitError(RuntimeError):
    """A computation was refused because it exceeds a configured size cap."""


def _cancel(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    # a*row - b*prow with the smallest integers a, b that clear col,
    # divided by the gcd of its entries, so the integers stay small
    lead = prow[col]
    f = row[col]
    g = gcd(lead, f)
    a, b = lead // g, f // g
    out = {c: a * v for c, v in row.items()}
    for c, v in prow.items():
        nv = out.get(c, 0) - b * v
        if nv:
            out[c] = nv
        else:
            del out[c]
    g = gcd(*out.values())
    return {c: v // g for c, v in out.items()} if g > 1 else out


def _eliminate(rows: list[dict[int, Fraction]], ncols: int) -> dict[int, dict[int, Fraction]]:
    # the one elimination of the module docstring; returns {pivot column p:
    # row}, where the row stands for a 1 at p plus its entries, all at free
    # columns left of p.  holders maps each column to the rows not yet used
    # as pivots that are nonzero there, kept up to date under fill-in.
    work = []
    for r in rows:
        # entries are ints or Fractions, and both have a denominator
        r = {c: v for c, v in r.items() if v}
        scale = lcm(*(v.denominator for v in r.values()))
        work.append({c: int(v * scale) for c, v in r.items()})
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(work):
        for c in row:
            holders.setdefault(c, set()).add(i)
    pivots: dict[int, dict[int, int]] = {}
    for col in range(ncols - 1, -1, -1):
        live = holders.pop(col, None)
        if not live:
            continue
        p = min(live, key=lambda i: (len(work[i]), i))
        live.discard(p)
        prow = pivots[col] = work[p]
        rest = [c for c in prow if c != col]
        for c in rest:
            holders[c].discard(p)
        for i in live:
            row = work[i] = _cancel(work[i], prow, col)
            for c in rest:
                if c in row:
                    holders[c].add(i)
                else:
                    holders[c].discard(i)
    # back-substitution in ascending pivot order: the rows of smaller pivots
    # are already reduced, so substituting them brings in free columns only
    reduced = {}
    for p in sorted(pivots):
        row = pivots[p]
        for q in [c for c in row if c != p and c in pivots]:
            row = _cancel(row, pivots[q], q)
        pivots[p] = row
        lead = row[p]
        reduced[p] = {c: Fraction(v, lead) for c, v in row.items() if c != p}
    return reduced


class RationalMatrix:
    """Sparse exact-rational matrix of the reduced coproduct on one grade.

    Columns are the packed words of the grade in canonical order; rows are
    the nonempty word pairs that occur in at least one column's reduced
    coproduct, sorted canonically.
    """

    def __init__(
        self, col_labels: list[Word], row_labels: list[Tuple[Word, Word]], rows: list[dict[int, Fraction]]
    ) -> None:
        self.col_labels = col_labels
        self.row_labels = row_labels
        self.rows = rows

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    def rank(self) -> int:
        return len(_eliminate(self.rows, self.n_cols))

    def nullspace(self) -> list[list[Fraction]]:
        """Canonical kernel basis: reduced echelon vectors, leading entry 1.

        The vector of free column f is e_f minus the sum of R[p, f] e_p over
        the pivots p; R[p, f] is nonzero only for f < p, so its first nonzero
        is the 1 at f and it vanishes at every other free column.  Sorted by
        f, these vectors are already the kernel's reduced echelon form.
        """
        n = self.n_cols
        pivots = _eliminate(self.rows, n)
        basis = {f: [_ZERO] * n for f in range(n) if f not in pivots}
        for f, vec in basis.items():
            vec[f] = _ONE
        for p, row in pivots.items():
            for f, v in row.items():
                basis[f][p] = -v
        return list(basis.values())  # built in ascending f


class PrimitiveBasis:
    """Basis of the primitive space of one grade."""

    def __init__(self, grade: int, vectors: "list[LinComb]") -> None:
        self.grade = grade
        self.dimension = len(vectors)
        self.vectors = vectors

    def text(self) -> str:
        lines = [f"grade={self.grade} dim={self.dimension}"]
        lines.extend(v.text() for v in self.vectors)
        return "\n".join(lines)


def delta_plus_matrix(n: int) -> RationalMatrix:
    """Matrix of the reduced coproduct on the grade-n word basis.

    Rows are indexed only by pairs that occur in some column; all-zero rows
    are therefore never materialized.  Column count equals the number of
    packed words of length n.
    """
    if n < 1:
        raise ValueError(f"need a grade n >= 1, got {n}")
    cols = enumerate_packed(n)
    by_pair: dict[Tuple[Word, Word], dict[int, Fraction]] = {}
    for j, w in enumerate(cols):
        for pair, c in reduced_coproduct(w).terms.items():
            by_pair.setdefault(pair, {})[j] = c
    labels = sorted(by_pair)
    return RationalMatrix(col_labels=cols, row_labels=labels, rows=[by_pair[p] for p in labels])


_Pair = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _is_primitive(z: LinComb, deltas: dict[Word, dict[_Pair, int]]) -> bool:
    # independent of the matrix: evaluate the coproduct directly, once per
    # word (memoised in deltas, keyed by letter tuples), and compare
    # sum c_w * delta(w) with z (x) e + e (x) z in integers after clearing
    # the denominators of z
    scale = lcm(*(c.denominator for c in z.terms.values()))
    total: dict[_Pair, int] = {}
    expected: dict[_Pair, int] = {}
    for w, c in z.terms.items():
        a = int(c * scale)
        delta = deltas.get(w)
        if delta is None:
            delta = deltas[w] = {(u.letters, v.letters): m for (u, v), m in coproduct(w).terms.items()}
        for pair, m in delta.items():
            total[pair] = total.get(pair, 0) + a * m
        for pair in ((w.letters, ()), ((), w.letters)):
            expected[pair] = expected.get(pair, 0) + a
    return {pair: v for pair, v in total.items() if v} == expected


def primitive_space(n: int, max_grade: int = DEFAULT_GRADE_CAP) -> PrimitiveBasis:
    """Exact basis of the primitive elements of grade n.

    The kernel of the reduced-coproduct matrix is computed by one sparse
    rational elimination and comes out in reduced echelon form over the
    canonical word basis, so the output is deterministic.  Every vector is
    re-checked directly against the coproduct before being returned.
    """
    if n < 1:
        raise ValueError(f"need a grade n >= 1, got {n}")
    if n > max_grade:
        raise ResourceLimitError(
            f"grade {n} exceeds the configured cap {max_grade}; pass a larger max_grade"
        )
    matrix = delta_plus_matrix(n)
    kernel = matrix.nullspace()
    deltas: dict[Word, dict[_Pair, int]] = {}
    vectors = []
    for vec in kernel:
        z = LinComb((w, c) for w, c in zip(matrix.col_labels, vec) if c)
        if not _is_primitive(z, deltas):
            raise ArithmeticError(f"kernel vector is not primitive: {z.text()}")
        vectors.append(z)
    return PrimitiveBasis(grade=n, vectors=vectors)
