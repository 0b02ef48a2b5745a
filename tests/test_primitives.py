import random
from fractions import Fraction
from math import comb, factorial

import pytest
import sympy

import packedwords.primitives as primitives
from oracles import _rref
from packedwords import (
    LinComb,
    RationalMatrix,
    ResourceLimitError,
    Tensor2,
    Word,
    coproduct,
    count_packed_total,
    delta_plus_matrix,
    enumerate_packed,
    parse_word,
    primitive_space,
    product,
    reduced_coproduct,
)

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
        ours = sympy.Matrix([[sympy.Rational(x) for x in vec] for vec in m.nullspace()])
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

    def test_grade_cap(self):
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


class TestRecheck:
    """The coproduct re-check inside primitive_space, fed a doctored kernel."""

    def doctor(self, monkeypatch, change):
        # change maps the real kernel, a list of dense vectors, to the doctored one
        real = RationalMatrix.nullspace
        monkeypatch.setattr(RationalMatrix, "nullspace", lambda self: change(real(self)))

    def test_rejects_a_vector_off_the_kernel(self, monkeypatch):
        # every word of length >= 2 has a nonzero reduced coproduct
        self.doctor(monkeypatch, lambda kernel: [v[:-1] + [v[-1] + 1] for v in kernel])
        with pytest.raises(ArithmeticError, match="not primitive"):
            primitive_space(3)

    def test_accepts_rational_multiples(self, monkeypatch):
        plain = primitive_space(3).vectors
        self.doctor(monkeypatch, lambda kernel: [[x * Fraction(-2, 3) for x in v] for v in kernel])
        assert primitive_space(3).vectors == [Fraction(-2, 3) * z for z in plain]

    def test_rejects_a_zero_vector(self, monkeypatch):
        # zero is primitive, so only the independence check can catch it
        self.doctor(monkeypatch, lambda kernel: kernel + [[Fraction(0)] * len(kernel[0])])
        with pytest.raises(ArithmeticError, match="not in echelon form"):
            primitive_space(2)

    def test_rejects_a_repeated_vector(self, monkeypatch):
        self.doctor(monkeypatch, lambda kernel: kernel + [list(kernel[0])])
        with pytest.raises(ArithmeticError, match="not in echelon form"):
            primitive_space(2)


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
        restored = [
            [vec[perm.index(c)] for c in range(n)] for vec in permuted.nullspace()
        ]
        a = sympy.Matrix([[sympy.Rational(x) for x in vec] for vec in restored]).rref()[0]
        b = sympy.Matrix([[sympy.Rational(x) for x in vec] for vec in m.nullspace()]).rref()[0]
        assert a == b


class TestEliminationAgainstReference:
    """The one-pass sparse elimination against the two-pass _rref kernel."""

    def check(self, matrix):
        rank, kernel = reference_kernel(matrix)
        nullspace = matrix.nullspace()
        assert matrix.rank() == rank
        assert nullspace == kernel
        assert rank + len(nullspace) == matrix.n_cols
        assert all(type(x) is Fraction for vec in nullspace for x in vec)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reduced_coproduct_grades(self, n):
        self.check(delta_plus_matrix(n))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sparse_integer_matrices(self, seed):
        rng = random.Random(seed)
        n_rows, n_cols = rng.randint(1, 14), rng.randint(1, 14)
        self.check(integer_matrix(random_rows(rng, n_rows, n_cols, rng.choice([0.15, 0.3, 0.6])), n_cols))

    def test_zero_matrix(self):
        m = integer_matrix([{}, {}, {}], 5)
        assert m.rank() == 0
        assert m.nullspace() == [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
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
