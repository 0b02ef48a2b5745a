import copy
import random
import weakref
from fractions import Fraction
from math import comb, factorial

import pytest
import sympy

import packedwords.primitives as primitives
from oracles import _rref
from packedwords import (
    LinComb,
    PrimitiveBasis,
    RationalMatrix,
    ResourceLimitError,
    Tensor2,
    Word,
    coproduct,
    count_packed,
    count_packed_total,
    delta_plus_matrix,
    enumerate_packed,
    parse_word,
    primitive_space,
    product,
    reduced_coproduct,
)
from packedwords.words import _decode

def W(text):
    return parse_word(text)


def is_primitive(z):
    empty = W("e")
    expected = Tensor2({(w, empty): c for w, c in z.terms.items()}) + Tensor2(
        {(empty, w): c for w, c in z.terms.items()}
    )
    return coproduct(z) == expected


def span_rref(vectors, basis_words):
    """Row-reduce coefficient vectors over the canonical word basis."""
    m = sympy.Matrix(
        [[sympy.Rational(v.coefficient(w)) for w in basis_words] for v in vectors]
    )
    return m.rref()[0]


def to_sympy(matrix):
    return sympy.Matrix(matrix.n_rows, matrix.n_cols, lambda i, j: sympy.Rational(matrix.rows[i].get(j, 0)))


def sympy_nullspace_dim(matrix):
    if matrix.n_rows == 0:
        return matrix.n_cols
    return len(to_sympy(matrix).nullspace())


def reference_kernel(matrix):
    """Rank and canonical kernel by two passes of the slow _rref reference.

    The first pass reduces the matrix, the second puts the kernel vectors
    read off it into reduced echelon form.
    """
    n = matrix.n_cols
    pivots, reduced = _rref([dict(r) for r in matrix.rows], n)
    free = [c for c in range(n) if c not in pivots]
    vectors = []
    for f in free:
        vec = {f: Fraction(1)}
        for i, p in enumerate(pivots):
            if reduced[i].get(f):
                vec[p] = -reduced[i][f]
        vectors.append(vec)
    _, basis = _rref(vectors, n)
    return len(pivots), [[row.get(c, Fraction(0)) for c in range(n)] for row in basis]


def nnz(matrix):
    return sum(len(row) for row in matrix.rows)


def dense(vec, n):
    """A nullspace vector, given as (column, value) pairs, as a list of n values."""
    out = [Fraction(0)] * n
    for c, x in vec:
        out[c] = x
    return out


def check_pair_format(kernel):
    # nonzero values at strictly ascending columns, led by (f, 1); a value
    # is an int when it is an integer and a Fraction only when it is not
    for vec in kernel:
        assert vec and vec[0][1] == 1
        for _, x in vec:
            assert x
            assert type(x) is int or (type(x) is Fraction and x.denominator > 1), repr(x)
        cols = [c for c, _ in vec]
        assert cols == sorted(set(cols))


def integer_matrix(rows, n_cols):
    return RationalMatrix(
        col_labels=[Word((j,)) for j in range(n_cols)],
        row_labels=[(Word((i,)), Word()) for i in range(len(rows))],
        rows=rows,
    )


def random_rows(rng, n_rows, n_cols, density):
    return [
        {c: rng.choice([-3, -2, -1, 1, 2, 3]) for c in range(n_cols) if rng.random() < density}
        for _ in range(n_rows)
    ]


class TestDeltaPlusMatrix:
    def test_grade_one_is_zero_map(self):
        m = delta_plus_matrix(1)
        assert m.n_cols == 2
        assert m.n_rows == 0
        assert m.rank() == 0

    def test_grade_two_structure(self):
        m = delta_plus_matrix(2)
        assert m.n_cols == 6
        assert [w.text() for w in m.col_labels] == ["0,0", "0,1", "1,0", "1,1", "1,2", "2,1"]
        # the square word feeds the (x1, x0) row with multiplicity 2
        row = m.row_labels.index((W("1"), W("0")))
        col = m.col_labels.index(W("1,1"))
        assert m.rows[row].get(col, 0) == 2

    def test_grade_three_has_26_columns(self):
        m = delta_plus_matrix(3)
        assert m.n_cols == 26

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_are_occupied_and_sorted(self, n):
        # sorted by Word.__lt__ on each slot, with no label twice
        m = delta_plus_matrix(n)
        assert all(r for r in m.rows)
        assert m.row_labels == sorted(set(m.row_labels))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_entries_match_reduced_coproduct(self, n):
        m = delta_plus_matrix(n)
        assert m.col_labels == enumerate_packed(n)
        for j, w in enumerate(m.col_labels):
            t = reduced_coproduct(w)
            for i, pair in enumerate(m.row_labels):
                assert m.rows[i].get(j, 0) == t.coefficient(pair)

    def test_grade_zero_rejected(self):
        with pytest.raises(ValueError):
            delta_plus_matrix(0)


class TestPrimitiveSpace:
    def test_grade_one(self):
        basis = primitive_space(1)
        assert basis.dimension == 2
        assert basis.vectors == [LinComb.word(W("0")), LinComb.word(W("1"))]

    def test_grade_two(self):
        basis = primitive_space(2)
        assert basis.dimension == 2
        expected = [
            LinComb({W("0,1"): 1, W("1,0"): -1}),
            LinComb({W("1,2"): 1, W("2,1"): -1}),
        ]
        assert basis.vectors == expected
        words = delta_plus_matrix(2).col_labels
        assert span_rref(basis.vectors, words) == span_rref(expected, words)

    def test_grade_three_properties(self):
        basis = primitive_space(3)
        m = delta_plus_matrix(3)
        assert m.n_cols == 26
        assert basis.dimension + m.rank() == 26
        for z in basis.vectors:
            assert is_primitive(z)
            assert {len(w) for w in z.terms} == {3}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dimension_agrees_with_independent_solver(self, n):
        assert primitive_space(n).dimension == sympy_nullspace_dim(delta_plus_matrix(n))

    def test_grade_four_kernel_is_sympys_in_reduced_form(self):
        m = delta_plus_matrix(4)
        expected = sympy.Matrix.hstack(*to_sympy(m).nullspace()).T.rref()[0]
        ours = sympy.Matrix([[sympy.Rational(x) for x in dense(vec, m.n_cols)] for vec in m.nullspace()])
        assert ours == expected

    def test_rank_nullity_through_grade_four(self):
        for n in range(1, 5):
            m = delta_plus_matrix(n)
            basis = primitive_space(n)
            assert m.rank() + basis.dimension == count_packed_total(n)

    def test_vectors_linearly_independent(self):
        basis = primitive_space(3)
        words = delta_plus_matrix(3).col_labels
        assert span_rref(basis.vectors, words).rank() == basis.dimension

    def test_bracket_of_primitives_is_primitive(self):
        bases = {n: primitive_space(n).vectors for n in (1, 2, 3)}
        for a, b in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
            for z1 in bases[a]:
                for z2 in bases[b]:
                    bracket = product(z1, z2) - product(z2, z1)
                    assert reduced_coproduct(bracket) == Tensor2.zero()

    def test_normalized_leading_coefficients(self):
        for n in (1, 2, 3):
            for z in primitive_space(n).vectors:
                first = min(z.terms)
                assert z.coefficient(first) == 1

    def test_deterministic_output(self):
        assert primitive_space(3).text() == primitive_space(3).text()

    def test_grade_cap(self, monkeypatch):
        # refused before any block is built, so a lost cap fails here
        # rather than start grade 7
        def refuse(*args):
            raise AssertionError("primitive_space built a block of a grade it must refuse")

        monkeypatch.setattr(primitives, "delta_plus_matrix", refuse)
        with pytest.raises(ResourceLimitError):
            primitive_space(7)
        with pytest.raises(ValueError):
            primitive_space(0)

    def test_does_not_go_through_the_public_coproduct(self, monkeypatch):
        expected = primitive_space(4).vectors

        def refuse(x):
            raise AssertionError("primitives called the public coproduct")

        monkeypatch.setattr(primitives, "coproduct", refuse)
        monkeypatch.setattr(primitives, "reduced_coproduct", refuse)
        assert primitive_space(4).vectors == expected

    def test_header_format(self):
        text = primitive_space(1).text().splitlines()
        assert text[0] == "grade=1 dim=2"
        assert text[1:] == ["1*0", "1*1"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_coproduct_per_column(self, n, monkeypatch):
        # assembly and re-check share one _delta call per packed word
        calls = []
        real = primitives._delta

        def counted(code, packed):
            calls.append(_decode(code))
            return real(code, packed)

        monkeypatch.setattr(primitives, "_delta", counted)
        primitive_space(n)
        assert len(calls) == count_packed_total(n)
        assert sorted(calls) == sorted(w.letters for w in enumerate_packed(n))


class TestRecheck:
    """The coproduct re-check inside primitive_space, fed a doctored kernel."""

    def doctor(self, monkeypatch, change):
        # change maps the real kernel of one matrix, as a list of dense
        # vectors, and its column count to the doctored kernel, which is
        # handed on as nonzero (column, value) pairs.  primitive_space calls
        # nullspace once per (length, supremum) block, so the fault goes
        # into every block, those with an empty kernel too
        real = RationalMatrix.nullspace

        def doctored(self):
            kernel = change([dense(vec, self.n_cols) for vec in real(self)], self.n_cols)
            return [[(c, x) for c, x in enumerate(vec) if x] for vec in kernel]

        monkeypatch.setattr(RationalMatrix, "nullspace", doctored)

    def test_rejects_a_vector_off_the_kernel(self, monkeypatch):
        # every word of length >= 2 has a nonzero reduced coproduct
        self.doctor(monkeypatch, lambda kernel, n: [v[:-1] + [v[-1] + 1] for v in kernel])
        with pytest.raises(ArithmeticError, match="not primitive"):
            primitive_space(3)

    def test_accepts_rational_multiples(self, monkeypatch):
        plain = primitive_space(3).vectors
        self.doctor(monkeypatch, lambda kernel, n: [[x * Fraction(-2, 3) for x in v] for v in kernel])
        assert primitive_space(3).vectors == [Fraction(-2, 3) * z for z in plain]

    def test_rejects_a_zero_vector(self, monkeypatch):
        # zero is primitive, so only the independence check can catch it
        self.doctor(monkeypatch, lambda kernel, n: kernel + [[Fraction(0)] * n])
        with pytest.raises(ArithmeticError, match="not in echelon form"):
            primitive_space(2)

    def test_rejects_a_repeated_vector(self, monkeypatch):
        self.doctor(monkeypatch, lambda kernel, n: kernel + [list(v) for v in kernel[:1]])
        with pytest.raises(ArithmeticError, match="not in echelon form"):
            primitive_space(2)

    def test_rejects_vectors_out_of_order(self, monkeypatch):
        # each vector primitive and the set independent, but a block hands
        # them over last first: merging the blocks must not sort them back
        self.doctor(monkeypatch, lambda kernel, n: kernel[::-1])
        with pytest.raises(ArithmeticError, match="not in echelon form"):
            primitive_space(3)

    def test_does_not_read_the_matrix_rows(self, monkeypatch):
        # one entry of one row changed after assembly moves the kernel, and
        # the re-check, reading the coproducts recorded from _delta, must
        # notice.  Grade 2, because its four rows are independent: at grade
        # 3 every row lies in the span of the others, so changing one row
        # can only shrink the kernel inside the primitive space.  The word
        # 1,2 and the row (1, 1) lie in the supremum-2 block only
        real = primitives.delta_plus_matrix
        changed = []

        def doctored(n, sup=None):
            m = real(n, sup)
            if W("1,2") in m.col_labels:
                m.rows[m.row_labels.index((W("1"), W("1")))][m.col_labels.index(W("1,2"))] += 1
                changed.append(sup)
            return m

        monkeypatch.setattr(primitives, "delta_plus_matrix", doctored)
        with pytest.raises(ArithmeticError, match="not primitive"):
            primitive_space(2)
        assert changed == [2]

    def test_skips_explicit_zero_entries(self, monkeypatch):
        # a (0, 0) pair ahead of every vector: read as a leading entry, it
        # would break the echelon check, and stored, it would be a zero term
        plain = primitive_space(3).vectors
        real = RationalMatrix.nullspace
        monkeypatch.setattr(
            RationalMatrix, "nullspace", lambda self: [vec if vec[0][0] == 0 else [(0, Fraction(0))] + vec for vec in real(self)]
        )
        vectors = primitive_space(3).vectors
        assert vectors == plain
        assert all(c for z in vectors for c in z.terms.values())


class TestCancel:
    """One cancellation of a working row against a pivot row, in place."""

    def test_a_dividing_lead_touches_only_the_pivot_columns(self):
        # the lead 1 divides 2: the row is not scaled, and its entries
        # outside the pivot row's columns keep their common factor 2
        row = {0: 2, 3: 4, 5: 2}
        primitives._cancel(row, {5: 1, 1: 1}, 5)
        assert row == {0: 2, 3: 4, 1: -2}

    def test_a_lead_that_does_not_divide_scales_and_divides_the_row(self):
        # 2 * row - 3 * prow = {0: 12, 1: -6}, divided by its gcd 6
        row = {0: 6, 5: 3}
        primitives._cancel(row, {5: 2, 1: 2}, 5)
        assert row == {0: 2, 1: -1}


class TestSolverInvariance:
    def test_row_permutation_leaves_output_unchanged(self):
        m = delta_plus_matrix(2)
        rng = random.Random(7)
        order = list(range(m.n_rows))
        rng.shuffle(order)
        shuffled = RationalMatrix(
            col_labels=m.col_labels,
            row_labels=[m.row_labels[i] for i in order],
            rows=[dict(m.rows[i]) for i in order],
        )
        assert shuffled.nullspace() == m.nullspace()

    def test_column_permutation_preserves_the_span(self):
        m = delta_plus_matrix(2)
        n = m.n_cols
        rng = random.Random(11)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = RationalMatrix(
            col_labels=[m.col_labels[p] for p in perm],
            row_labels=list(m.row_labels),
            rows=[{perm.index(c): v for c, v in row.items()} for row in m.rows],
        )
        # map the permuted kernel back to the original column order
        restored = [dense([(perm[j], x) for j, x in vec], n) for vec in permuted.nullspace()]
        a = sympy.Matrix([[sympy.Rational(x) for x in vec] for vec in restored]).rref()[0]
        b = sympy.Matrix([[sympy.Rational(x) for x in dense(vec, n)] for vec in m.nullspace()]).rref()[0]
        assert a == b


class TestEliminationAgainstReference:
    """The one-pass sparse elimination against the two-pass _rref kernel."""

    def check(self, matrix):
        rank, kernel = reference_kernel(matrix)
        nullspace = matrix.nullspace()
        assert matrix.rank() == rank
        assert [dense(vec, matrix.n_cols) for vec in nullspace] == kernel
        assert rank + len(nullspace) == matrix.n_cols
        check_pair_format(nullspace)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reduced_coproduct_grades(self, n):
        self.check(delta_plus_matrix(n))

    @pytest.mark.parametrize("k", [2, 5])
    def test_grade_five_blocks(self, k):
        # blocks (5, 3) and (5, 4) take 5-6 s each against the reference
        self.check(delta_plus_matrix(5, k))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sparse_integer_matrices(self, seed):
        rng = random.Random(seed)
        n_rows, n_cols = rng.randint(1, 14), rng.randint(1, 14)
        self.check(integer_matrix(random_rows(rng, n_rows, n_cols, rng.choice([0.15, 0.3, 0.6])), n_cols))

    def test_zero_matrix(self):
        m = integer_matrix([{}, {}, {}], 5)
        assert m.rank() == 0
        assert m.nullspace() == [[(i, Fraction(1))] for i in range(5)]
        self.check(m)
        self.check(integer_matrix([], 4))

    def test_full_rank(self):
        rng = random.Random(3)
        n = 10
        rows = random_rows(rng, n, n, 0.3)
        for i, row in enumerate(rows):
            # nonzero diagonal above a zero lower triangle
            rows[i] = {c: v for c, v in row.items() if c > i}
            rows[i][i] = rng.choice([-2, -1, 1, 2])
        rng.shuffle(rows)
        m = integer_matrix(rows, n)
        assert m.rank() == n
        assert m.nullspace() == []
        self.check(m)

    def test_rational_entries(self):
        rng = random.Random(5)
        rows = [{c: Fraction(v, rng.randint(1, 4)) for c, v in row.items()} for row in random_rows(rng, 8, 11, 0.4)]
        self.check(integer_matrix(rows, 11))

    @staticmethod
    def sample(which):
        if which == "grade three":
            return delta_plus_matrix(3)
        if which == "random rational":
            rng = random.Random(17)
            rows = [{c: Fraction(v, rng.randint(1, 5)) for c, v in row.items()} for row in random_rows(rng, 12, 14, 0.4)]
            return integer_matrix(rows, 14)
        # rational multiples of integer rows: a kernel with ints and Fractions
        rng = random.Random(0)
        rows = [
            {c: v * Fraction(rng.choice([-1, 1, 2, 3]), rng.randint(2, 5)) for c, v in row.items()}
            for row in random_rows(rng, 8, 12, 0.3)
        ]
        return integer_matrix(rows, 12)

    @pytest.mark.parametrize("which", ["grade three", "random rational"])
    def test_input_rows_are_left_untouched(self, which):
        # the elimination cancels its own copies of the rows in place
        m = self.sample(which)
        before = copy.deepcopy(m.rows)
        m.rank()
        kernel = m.nullspace()
        assert m.rows == before
        assert m.nullspace() == kernel

    @pytest.mark.parametrize("which", ["grade three", "scaled rational"])
    def test_integral_entries_are_ints(self, which):
        # an integral kernel value is an int, never Fraction(k); the grade
        # three kernel is all integers, the scaled one has both kinds
        m = self.sample(which)
        values = [x for vec in m.nullspace() for _, x in vec[1:]]
        assert values
        assert all(type(x) is int for x in values if x.denominator == 1)
        assert all(type(x) is Fraction for x in values if x.denominator > 1)
        if which == "scaled rational":
            assert {type(x) for x in values} == {int, Fraction}
            assert all(type(v) is Fraction for row in m.rows for v in row.values())
        self.check(m)

    @pytest.mark.parametrize("which", ["grade three", "random rational"])
    @pytest.mark.parametrize("copies", ["every row twice", "one row three times"])
    def test_duplicate_rows_change_nothing(self, which, copies):
        # the elimination keeps one copy of identical rows; the row space,
        # the rank and the reduced kernel are those of the plain matrix
        plain = self.sample(which)
        if copies == "every row twice":
            rows = [dict(r) for r in plain.rows for _ in range(2)]
        else:
            k = len(plain.rows) // 2
            rows = [dict(r) for r in plain.rows] + [dict(plain.rows[k]), dict(plain.rows[k])]
        m = integer_matrix(rows, plain.n_cols)
        before = copy.deepcopy(m.rows)
        assert m.rank() == plain.rank()
        assert m.nullspace() == plain.nullspace()
        assert m.rows == before
        self.check(m)

    def test_rows_alike_only_in_their_columns_are_kept(self):
        # only identical rows are dropped, not rows with the same support
        rows = [{0: 1, 2: 1}, {0: 1, 2: 2}, {0: 2, 2: 1}, {0: 1, 2: 1}]
        m = integer_matrix(rows, 3)
        assert m.rank() == 2
        assert m.nullspace() == [[(1, 1)]]
        self.check(m)

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_rows_give_the_same_kernel(self, seed):
        rng = random.Random(100 + seed)
        rows = random_rows(rng, 12, 10, 0.3)
        rows += [dict(rows[0]), {c: 2 * v for c, v in rows[1].items()}]  # dependent rows
        shuffled = [dict(r) for r in rows]
        rng.shuffle(shuffled)
        m = integer_matrix(rows, 10)
        assert integer_matrix(shuffled, 10).nullspace() == m.nullspace()
        self.check(m)


def permutation_primitive_dims(n_max):
    # p_1..p_n_max from prod_n (1 - x^n)^(-p_n) = sum_n n! x^n, in integers:
    # series holds the product over the p_m found so far, so its coefficient
    # of x^n falls short of n! by exactly p_n
    p = [0] * (n_max + 1)
    series = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        p[n] = factorial(n) - series[n]
        # times (1 - x^n)^(-p_n) = sum_j C(p_n + j - 1, j) x^(n j)
        series = [sum(comb(p[n] + j - 1, j) * series[i - n * j] for j in range(i // n + 1)) for i in range(n_max + 1)]
    return p[1:]


def block_dimension(n, k):
    # dim Prim_(n,k) from the columns of supremum k alone: the coproduct
    # keeps length and supremum, so they meet no row of another block
    cols = [w for w in enumerate_packed(n) if w.sup == k]
    by_pair = {}
    for j, w in enumerate(cols):
        for pair, c in reduced_coproduct(w).terms.items():
            by_pair.setdefault(pair, {})[j] = c
    labels = sorted(by_pair)
    return len(cols) - RationalMatrix(cols, labels, [by_pair[q] for q in labels]).rank()


@pytest.fixture(scope="module")
def bases():
    return {n: primitive_space(n, max_grade=5).vectors for n in range(1, 6)}


def per_supremum(vectors):
    # {k: number of vectors whose words have supremum k}
    counts = {}
    for z in vectors:
        k = next(iter(z.terms)).sup
        counts[k] = counts.get(k, 0) + 1
    return counts


class TestStructuralOracles:
    """Dimensions of the primitive spaces, block by (length, supremum)."""

    def test_permutation_dimensions_from_n_factorial(self):
        # the sub-Hopf algebra of permutations is cocommutative, graded and
        # connected, so by Milnor-Moore and PBW its primitive dimensions p_n
        # satisfy prod (1 - x^n)^(-p_n) = sum n! x^n
        assert permutation_primitive_dims(7) == [1, 1, 4, 17, 92, 572, 4156]

    def test_each_basis_vector_has_one_supremum(self, bases):
        for vectors in bases.values():
            for z in vectors:
                assert len({w.sup for w in z.terms}) == 1, z.text()

    def test_supremum_n_block_is_the_permutation_block(self, bases):
        # a word of length n and supremum n is a permutation
        p = permutation_primitive_dims(5)
        assert [per_supremum(bases[n]).get(n, 0) for n in range(1, 6)] == p

    def test_blocks_eliminated_alone_give_the_same_dimensions(self, bases):
        for n in range(1, 6):
            dims = {k: block_dimension(n, k) for k in range(n + 1)}
            assert {k: d for k, d in dims.items() if d} == per_supremum(bases[n]), n

    def test_supremum_one_column_is_a_power_of_two(self, bases):
        # an observation, not an oracle: dim Prim_(n,1) = 2^(n-2) for n >= 2
        # is conjectured from these values, not proven
        assert [per_supremum(bases[n]).get(1, 0) for n in range(1, 6)] == [1, 1, 2, 4, 8]
        assert [block_dimension(n, 1) for n in (6, 7)] == [16, 32]


@pytest.fixture(scope="module")
def grade_five():
    return delta_plus_matrix(5)


def entries(matrix):
    # {(row label, column word): value} over the nonzero entries
    return {(matrix.row_labels[i], matrix.col_labels[j]): v for i, row in enumerate(matrix.rows) for j, v in row.items()}


class TestBlocks:
    """primitive_space one (length, supremum) block at a time, against the whole grade."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_text_is_the_whole_grade_kernel(self, n, bases, grade_five):
        # the slow reference: the whole grade's matrix eliminated at once
        m = grade_five if n == 5 else delta_plus_matrix(n)
        cols = m.col_labels
        whole = PrimitiveBasis(n, [LinComb({cols[j]: c for j, c in vec}) for vec in m.nullspace()])
        assert PrimitiveBasis(n, bases[n]).text() == whole.text()

    def test_grade_five_blocks_add_up_to_the_whole_grade(self, grade_five):
        blocks = [delta_plus_matrix(5, k) for k in range(6)]
        assert [m.n_cols for m in blocks] == [count_packed(5, k) for k in range(6)]
        sums = [sum(f(m) for m in blocks) for f in (lambda m: m.n_rows, lambda m: m.n_cols, nnz, lambda m: m.rank())]
        assert sums == [912, 1082, 22370, 475]
        assert sums == [grade_five.n_rows, grade_five.n_cols, nnz(grade_five), grade_five.rank()]
        # every entry of the whole grade lies in exactly one block
        split = {}
        for m in blocks:
            block = entries(m)
            assert not split.keys() & block.keys()
            split.update(block)
        assert split == entries(grade_five)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_block_columns_and_records(self, n):
        # a block's columns are the words of its supremum, in canonical
        # order, and its coproduct records hold the multiplicities that the
        # whole grade's matrix records for the same words
        whole = delta_plus_matrix(n)
        mults = dict(zip(whole.col_labels, (rec[3] for rec in whole._coproducts)))
        for k in range(n + 1):
            m = delta_plus_matrix(n, k)
            assert m.col_labels == [w for w in whole.col_labels if w.sup == k]
            assert [rec[3] for rec in m._coproducts] == [mults[w] for w in m.col_labels]

    def test_supremum_n_block_at_grade_six(self):
        # the permutation block (6, 6) alone: 720 columns, kernel p_6 = 572
        m = delta_plus_matrix(6, sup=6)
        assert m.n_cols == 720
        assert len(m.nullspace()) == permutation_primitive_dims(6)[5] == 572

    def test_empty_and_single_word_blocks(self, monkeypatch):
        assert delta_plus_matrix(3, 4).n_cols == 0
        assert delta_plus_matrix(3, 4).nullspace() == []
        # a supremum above any letter a code holds is still an empty block
        assert delta_plus_matrix(3, 300).n_cols == 0
        assert delta_plus_matrix(3, 300).nullspace() == []
        zero = delta_plus_matrix(3, 0)
        assert zero.col_labels == [W("0,0,0")]
        assert zero.nullspace() == []
        with pytest.raises(ValueError):
            delta_plus_matrix(3, -1)

        # a grade no code holds is refused before any word is generated
        def refuse(*args):
            raise AssertionError("delta_plus_matrix enumerated a grade it must refuse")

        monkeypatch.setattr(primitives, "enumerate_packed", refuse)
        with pytest.raises(ResourceLimitError):
            delta_plus_matrix(255)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_builds_one_block_at_a_time(self, n, monkeypatch):
        # one matrix per block k = 0..n, looked up through the module, and
        # each dropped before the next is built
        real = primitives.delta_plus_matrix
        calls, built = [], []

        def tracked(m, sup=None):
            assert all(ref() is None for ref in built), "a block outlived its elimination"
            calls.append((m, sup))
            matrix = real(m, sup)
            built.append(weakref.ref(matrix))
            return matrix

        monkeypatch.setattr(primitives, "delta_plus_matrix", tracked)
        primitive_space(n)
        assert calls == [(n, k) for k in range(n + 1)]
