"""Primitive spaces as exact kernels of the reduced coproduct.

For each grade n the reduced coproduct is a linear map from the span of
the length-n packed words into the span of nonempty word pairs.  It keeps
length and supremum, so a row (u, v) meets only the words of supremum
sup(u) + sup(v), and its matrix is block diagonal by (n, k).
primitive_space takes the blocks k = 0..n one at a time: each block's
words are generated, its matrix is assembled sparsely (only pairs that
actually occur become rows), its kernel comes from one exact elimination
and is re-checked, and the block is dropped before the next is built.
The elimination of a matrix, a block or the whole grade:

- rows are cleared of denominators into the elimination's own integer
  copies, one per distinct row (a row identical to one already kept adds
  nothing to the row space), and cancelled in place against the pivot
  row; where the pivot's leading entry does not divide the row's entry,
  the row is first scaled, and afterwards divided by the gcd of its
  entries, and otherwise only the pivot row's columns change;
- columns are taken from last to first; the rows nonzero in a column are
  found by scanning the rows not yet used as pivots, so fill-in needs no
  index, and the pivot is the one with the fewest nonzeros
  (Markowitz-style), which keeps fill-in low; since rows never mix
  blocks, a block gives the same pivots, fill-in and reduced vectors
  alone as inside the whole grade, where the scan reads every row of the
  grade at each column;
- back-substitution in ascending pivot order leaves each pivot row with
  its leading entry at p and other entries only at free columns left of
  p, so the kernel vector of free column f, e_f - sum_p R[p, f] e_p, is
  already in reduced echelon form over the canonical word basis.  It is
  kept sparse, as its nonzero (column, value) pairs in ascending column
  order, starting with (f, 1); a value is an int when it is an integer
  and a Fraction only when it is not.

The same elimination gives the rank.  Every kernel vector is then
re-checked against the coproduct itself, in integers after clearing its
denominators.  The coproduct of each word is evaluated once, when its
block is assembled, and recorded beside the block's matrix by column,
with every split pair (the trivial ones too) numbered once; the re-check
adds up those records and never reads the matrix rows, their order or
the elimination.  The blocks' vectors are merged by their leading words,
and each must start strictly right of the one before in the whole
grade's canonical order, so the vectors are independent; that they span
the kernel rests on the elimination's rank.  The whole-grade matrix,
delta_plus_matrix(n), stays as the slower reference.  No step uses
floating point, so the reported dimensions and bases carry no numerical
tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import merge
from math import gcd, lcm
from operator import itemgetter
from typing import Tuple, Union

from .algebra import LinComb
from .coalgebra import Split, Tensor2, _delta
from .coalgebra import coproduct, reduced_coproduct  # noqa: F401  kept importable here: perfbench/tracer.py wraps them
from .enumeration import enumerate_packed
from .words import ResourceLimitError, Word, _canonical_key, _decode, _encode, _Packed, _refuse_above, _require_codable

__all__ = [
    "ResourceLimitError",
    "RationalMatrix",
    "PrimitiveBasis",
    "delta_plus_matrix",
    "primitive_space",
    "DEFAULT_GRADE_CAP",
]

DEFAULT_GRADE_CAP = 6

# one column's recorded coproduct; see RationalMatrix
_Coproduct = Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]


def _cancel(row: dict[int, int], prow: dict[int, int], col: int) -> None:
    # row <- a*row - b*prow in place, with the smallest integers a, b that
    # clear col; row is one of _eliminate's own copies.  When the lead
    # divides row[col] (a == 1, most cancellations), only prow's columns
    # change; otherwise the whole row is scaled, and then divided by the
    # gcd of its entries, so the integers stay small.  A row's scale moves
    # no pivot and no kernel value, -v / lead
    lead = prow[col]
    f = row[col]
    g = gcd(lead, f)
    a, b = lead // g, f // g
    if a != 1:
        for c in row:
            row[c] *= a
    get = row.get
    for c, v in prow.items():
        nv = get(c, 0) - b * v
        if nv:
            row[c] = nv
        else:
            del row[c]
    if a != 1:
        g = gcd(*row.values())
        if g > 1:
            for c in row:
                row[c] //= g


def _eliminate(rows: list[dict[int, Fraction]], ncols: int) -> dict[int, dict[int, int]]:
    # the one elimination of the module docstring; returns {pivot column p:
    # integer row}, with its leading entry at p and every other entry at a
    # free column left of p.  The rows are cancelled in place, so they are
    # copied first and the caller's rows are never touched; a copy equal,
    # entry for entry and in the same column order, to one already kept is
    # dropped, which leaves the row space as it is and saves time: block
    # (6, 5), whose 1 488 rows hold 1 116 distinct ones, took 0.97 s of CPU
    # with the drop and 1.26 s without (medians of 12 interleaved runs,
    # Python 3.11, 2-vCPU VM).  The keys of the kept rows, a tuple copy of
    # each, are read only while the rows are copied, so they are freed
    # before the first pivot: that took the tracemalloc peak of nullspace()
    # on block (6, 4) from 81.8 to 73.2 MiB.  At each column the rows not
    # yet used as pivots (rest) are scanned for an entry there; the scan
    # reads the working rows themselves, which every cancellation updates
    # in place, so it sees fill-in with no index to keep up to date.
    work = []
    seen = set()
    for r in rows:
        # entries are ints or Fractions, and both have a denominator
        scale = lcm(*(v.denominator for v in r.values()))
        row = {c: int(v * scale) for c, v in r.items() if v}
        key = tuple(row.items())
        if key not in seen:
            seen.add(key)
            work.append(row)
    del seen
    rest = set(range(len(work)))
    pivots: dict[int, dict[int, int]] = {}
    for col in range(ncols - 1, -1, -1):
        live = [i for i in rest if col in work[i]]
        if not live:
            continue
        p = min(live, key=lambda i: (len(work[i]), i))
        rest.remove(p)
        prow = pivots[col] = work[p]
        for i in live:
            if i != p:
                _cancel(work[i], prow, col)
    # back-substitution in ascending pivot order: the rows of smaller pivots
    # are already reduced, so substituting them brings in free columns only
    for p in sorted(pivots):
        row = pivots[p]
        for q in [c for c in row if c != p and c in pivots]:
            _cancel(row, pivots[q], q)
    return pivots


class RationalMatrix:
    """Sparse exact-rational matrix of the reduced coproduct on one grade or block.

    Columns are the packed words of the grade, or of one (length,
    supremum) block of it, in canonical order; rows are
    the nonempty word pairs that occur in at least one column's reduced
    coproduct, sorted canonically.

    A matrix from delta_plus_matrix also keeps, in the private attribute
    _coproducts, the full coproduct of each column's word as evaluated
    for the rows, indexed by column: a tuple (left, right, ids, mults)
    where ids and mults list the split pairs of the coproduct, numbered
    once per matrix with the trivial pairs included, and their
    multiplicities, and left and right are the numbers of the pairs
    w (x) e and e (x) w.  primitive_space re-checks its kernel against
    these records instead of evaluating each coproduct a second time.
    Other matrices have None there.
    """

    def __init__(
        self, col_labels: list[Word], row_labels: list[Tuple[Word, Word]], rows: list[dict[int, Fraction]]
    ) -> None:
        self.col_labels = col_labels
        self.row_labels = row_labels
        self.rows = rows
        self._coproducts: list[_Coproduct] | None = None

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    def rank(self) -> int:
        return len(_eliminate(self.rows, self.n_cols))

    def nullspace(self) -> list[list[Tuple[int, Union[int, Fraction]]]]:
        """Canonical kernel basis: reduced echelon vectors, leading entry 1.

        Each vector is the list of its nonzero entries as (column, value)
        pairs in ascending column order; a value is an int when it is an
        integer and a Fraction (denominator > 1) when it is not.  The
        vector of free column f is e_f minus the sum of R[p, f] e_p over
        the pivots p; R[p, f] is nonzero only for f < p, so it starts with
        (f, 1) and vanishes at every other free column.  Sorted by f, these
        vectors are already the kernel's reduced echelon form.
        """
        pivots = _eliminate(self.rows, self.n_cols)
        basis = {f: [(f, 1)] for f in range(self.n_cols) if f not in pivots}
        for p in sorted(pivots):
            row = pivots[p]
            lead = row[p]
            for f, v in row.items():
                if f != p:
                    # an int where lead divides v, as algebra keeps integers
                    q, r = divmod(-v, lead)
                    basis[f].append((p, Fraction(-v, lead) if r else q))
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


def delta_plus_matrix(n: int, sup: "int | None" = None) -> RationalMatrix:
    """Matrix of the reduced coproduct on the grade-n word basis, or on one block.

    Rows are indexed only by pairs that occur in some column; all-zero rows
    are therefore never materialized.  Column count equals the number of
    packed words of length n, or, with sup given, of length n and supremum
    sup: the (n, sup) block, whose words meet no row of another block,
    since the coproduct keeps length and supremum.  The coproduct of each
    column's word is evaluated once, and recorded by column in the
    matrix's _coproducts for the re-check of primitive_space.
    """
    if n < 1:
        raise ValueError(f"need a grade n >= 1, got {n}")
    _require_codable(n if sup is None else min(n, sup))
    cols = enumerate_packed(n, sup)
    packed = _Packed()
    ids: dict[Split, int] = {}
    number = ids.setdefault
    by_id: dict[int, dict[int, int]] = {}
    coproducts: list[_Coproduct] = []
    for j, w in enumerate(cols):
        x = _encode(w.letters)
        delta = _delta(x, packed)
        split_ids = []
        for pair, c in delta.items():
            i = number(pair, len(ids))
            split_ids.append(i)
            if pair[0] and pair[1]:
                by_id.setdefault(i, {})[j] = c
        left = number((x, 0), len(ids))
        right = number((0, x), len(ids))
        coproducts.append((left, right, tuple(split_ids), tuple(delta.values())))
    # the row labels decoded, once each, and sorted in Tensor2's pair order
    pairs = list(ids)  # in the order of their numbers
    labels = {i: (Word._raw(_decode(pairs[i][0])), Word._raw(_decode(pairs[i][1]))) for i in by_id}
    order = sorted(by_id, key=lambda i: Tensor2._sort_key(labels[i]))
    matrix = RationalMatrix(col_labels=cols, row_labels=[labels[i] for i in order], rows=[by_id[i] for i in order])
    matrix._coproducts = coproducts
    return matrix


def _is_primitive(z: dict[int, Union[int, Fraction]], coproducts: list[_Coproduct]) -> bool:
    # z maps column numbers to nonzero coefficients; sum c_w * delta(w)
    # minus (z (x) e + e (x) z) must vanish, in integers after clearing the
    # denominators of z, reading each delta(w) from the records of
    # delta_plus_matrix.  The pairs w (x) e and e (x) w occur in delta(w)
    # alone, so each starts at -c_w before delta(w) is added
    scale = lcm(*(c.denominator for c in z.values()))
    total: dict[int, int] = {}
    get = total.get
    for j, c in z.items():
        left, right, split_ids, mults = coproducts[j]
        a = c.numerator * (scale // c.denominator)
        total[left] = total[right] = -a
        for i, m in zip(split_ids, mults):
            total[i] = get(i, 0) + a * m
    return not any(total.values())


def _checked_kernel(matrix: RationalMatrix) -> list[Tuple[tuple, LinComb]]:
    # the kernel vectors of one block, in the order nullspace gives them,
    # each re-checked against the block's recorded coproducts and paired
    # with the canonical key of its leading word, its free column
    cols = matrix.col_labels
    coproducts = matrix._coproducts
    out = []
    for vec in matrix.nullspace():
        nonzero = {j: c for j, c in vec if c}
        # canonical words with nonzero coefficients: nothing to revalidate
        z = LinComb._raw({cols[j]: c for j, c in nonzero.items()})
        if not nonzero:
            raise ArithmeticError(f"kernel vectors are not in echelon form: {z.text()}")
        if not _is_primitive(nonzero, coproducts):
            raise ArithmeticError(f"kernel vector is not primitive: {z.text()}")
        out.append((_canonical_key(cols[min(nonzero)].letters), z))
    return out


def primitive_space(n: int, max_grade: int = DEFAULT_GRADE_CAP) -> PrimitiveBasis:
    """Exact basis of the primitive elements of grade n.

    The reduced coproduct keeps length and supremum, so its matrix is block
    diagonal by (n, k).  Each block k = 0..n is assembled, eliminated by
    one sparse rational elimination and re-checked alone, and dropped
    before the next is built; its kernel comes out in reduced echelon form
    over the block's words in canonical order.  Every vector is re-checked
    against the coproducts recorded when its block was assembled, not
    against the rows.  The blocks' vectors are then merged by their leading
    words, and each must start strictly right of the one before in the
    canonical order of the whole grade, so the vectors are independent and
    the output is the whole grade's reduced echelon basis; that they span
    the kernel rests on the elimination's rank.
    """
    if n < 1:
        raise ValueError(f"need a grade n >= 1, got {n}")
    _refuse_above("grade", n, max_grade, "pass a larger max_grade")
    # no block's matrix outlives its own _checked_kernel call
    blocks = [_checked_kernel(delta_plus_matrix(n, k)) for k in range(n + 1)]
    vectors = []
    last = None
    # merge, not sort: a block whose vectors are out of order stays so
    for key, z in merge(*blocks, key=itemgetter(0)):
        if last is not None and key <= last:
            raise ArithmeticError(f"kernel vectors are not in echelon form: {z.text()}")
        last = key
        vectors.append(z)
    return PrimitiveBasis(grade=n, vectors=vectors)
