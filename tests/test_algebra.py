from fractions import Fraction

import pytest
from hypothesis import given

from oracles import (
    _factor_rightmost,
    brute_cut_table,
    brute_decompositions,
    brute_is_irreducible,
    complement,
    packed_words,
    reverse,
    sweep,
    words_up_to,
)
from packedwords import (
    LinComb,
    NotPackedError,
    Word,
    admissible_cuts,
    counit,
    enumerate_packed,
    factor_irreducible,
    is_irreducible,
    pack,
    parse_word,
    product,
    shifted_concat,
)


def W(text):
    return parse_word(text)


class TestShiftedConcat:
    def test_paper_example(self):
        assert shifted_concat(W("1,1"), W("1")) == W("1,1,2")

    def test_unit_laws(self):
        for u in words_up_to(5):
            assert shifted_concat(u, W("e")) == u
            assert shifted_concat(W("e"), u) == u

    def test_zero_letters_do_not_shift(self):
        assert shifted_concat(W("1"), W("0,1")) == W("1,0,2")

    def test_grading(self):
        for u in words_up_to(3):
            for v in words_up_to(3):
                w = shifted_concat(u, v)
                assert len(w) == len(u) + len(v)
                assert w.sup == u.sup + v.sup

    def test_associativity_exhaustive(self):
        ws = words_up_to(3)
        for u in ws:
            for v in ws:
                uv = shifted_concat(u, v)
                for w in ws:
                    assert shifted_concat(uv, w) == shifted_concat(u, shifted_concat(v, w))

    def test_not_commutative(self):
        assert shifted_concat(W("1"), W("1,1")) != shifted_concat(W("1,1"), W("1"))

    def test_reverse_complement_reverses_the_product(self):
        # rc(u * v) = rc(v) * rc(u), rc the reverse of the complement
        def rc(w):
            return Word(reverse(complement(w.letters)))

        ws = words_up_to(3)
        assert len(ws) ** 2 == 1225
        for u in ws:
            for v in ws:
                assert rc(shifted_concat(u, v)) == shifted_concat(rc(v), rc(u)), (u, v)


class TestLinComb:
    def test_zero_coefficients_are_dropped(self):
        a = LinComb({W("1"): 2, W("0"): 0})
        assert a.terms == {W("1"): Fraction(2)}
        assert not LinComb.zero()
        assert LinComb.word(W("1"), 0) == LinComb.zero()

    def test_keys_must_be_packed(self):
        with pytest.raises(NotPackedError):
            LinComb({W("2"): 1})

    def test_vector_space_operations(self):
        a = LinComb.word(W("1"))
        b = LinComb.word(W("0"))
        assert a + b == LinComb({W("1"): 1, W("0"): 1})
        assert a - a == LinComb.zero()
        assert -(2 * a) == LinComb.word(W("1"), -2)
        assert Fraction(1, 2) * (a + a) == a

    def test_unit_of_the_algebra(self):
        one = LinComb.unit()
        a = LinComb({W("1"): 3, W("0,1"): -1})
        assert one * a == a
        assert a * one == a

    def test_text_rendering_is_canonical(self):
        a = LinComb({W("1,1"): -1, W("1,0"): 2})
        assert a.text() == "2*1,0 + -1*1,1"
        assert LinComb.zero().text() == "0"
        assert LinComb.unit().text() == "1*e"
        assert LinComb.word(W("1"), Fraction(-1, 2)).text() == "-1/2*1"

    def test_items_sorted_canonically(self):
        a = LinComb({W("2,1"): 1, W("1"): 1, W("1,2"): 1})
        assert [w.text() for w, _ in a.items()] == ["1", "1,2", "2,1"]

    def test_non_integer_coefficients_stay_exact(self):
        w = W("1,0")
        for a in (LinComb({w: 0.5}), LinComb({w: "1/2"}), LinComb.word(w, Fraction(1, 2))):
            assert a.text() == "1/2*1,0"
            assert a.terms == {w: Fraction(1, 2)}

    def test_integer_coefficients_stay_integers(self):
        a = LinComb({W("1"): 2, W("0"): 1}) + LinComb.word(W("1"), 3)
        assert all(type(c) is int for c in a.terms.values())
        assert all(type(c) is int for c in product(a, a).terms.values())
        # an integral Fraction renders like the equal int
        assert LinComb.word(W("1"), Fraction(4, 2)).text() == (2 * LinComb.word(W("1"))).text() == "2*1"
        # every integral value is stored as an int, however it was reached
        half = Fraction(1, 2)
        for integral in (
            LinComb.word(W("1"), True),
            LinComb.word(W("1"), Fraction(4, 2)),
            LinComb({W("1"): 2.0}),
            half * a + half * a,
            Fraction(1, 3) * (3 * a),
        ):
            assert integral.terms and all(type(c) is int for c in integral.terms.values()), integral
        assert type(counit(half * LinComb.unit() + half * LinComb.unit())) is int

    def test_scalar_multiples_keep_the_type(self):
        a = LinComb({W("1"): 3, W("0,1"): -1})
        for scaled in (2 * a, Fraction(1, 3) * a, a * 2, 0 * a):
            assert type(scaled) is LinComb


class TestProduct:
    def test_bilinear_on_singletons(self):
        assert product(LinComb.word(W("1"), 2), LinComb.word(W("1"), 3)) == LinComb.word(W("1,2"), 6)

    def test_zero_annihilates(self):
        a = LinComb({W("1"): 5, W("0,1"): 1})
        assert product(a, LinComb.zero()) == LinComb.zero()

    def test_distributes(self):
        a = LinComb({W("1"): 1, W("0"): 1})
        assert product(a, W("1")) == LinComb({W("1,2"): 1, W("0,1"): 1})

    def test_words_promote(self):
        assert product(W("1,1"), W("1")) == LinComb.word(W("1,1,2"))


class TestAdmissibleCuts:
    def test_examples(self):
        assert admissible_cuts(W("1,1,2")) == {2}
        assert admissible_cuts(W("1,2,1")) == frozenset()
        assert admissible_cuts(W("0,0")) == {1}

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            admissible_cuts(W("e"))

    def test_matches_brute_force_decompositions(self):
        for n in range(1, 5):
            for w in enumerate_packed(n):
                expected = {len(a) for a, _ in brute_decompositions(w)}
                assert admissible_cuts(w) == expected, w
        for n in range(1, 7):
            table = brute_cut_table(n)
            assert len(table) == len(enumerate_packed(n))
            for w in enumerate_packed(n):
                assert admissible_cuts(w) == table[w], w


class TestIrreducible:
    def test_examples(self):
        assert is_irreducible(W("1,1,1"))
        assert not is_irreducible(W("1,1,2"))
        assert is_irreducible(W("1,0,1,0,1"))

    def test_single_letters(self):
        assert is_irreducible(W("0"))
        assert is_irreducible(W("1"))

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(W("e"))

    def test_matches_brute_force(self):
        for n in range(1, 5):
            for w in enumerate_packed(n):
                assert is_irreducible(w) == brute_is_irreducible(w), w


class TestFactorization:
    def test_examples(self):
        assert factor_irreducible(W("1,1,2")) == [W("1,1"), W("1")]
        assert factor_irreducible(W("1,1,1")) == [W("1,1,1")]
        assert factor_irreducible(W("0,1")) == [W("0"), W("1")]

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            factor_irreducible(W("e"))

    def test_round_trip_and_irreducible_factors(self):
        for n in range(1, 7):
            for w in enumerate_packed(n):
                factors = factor_irreducible(w)
                assert all(is_irreducible(f) for f in factors)
                rebuilt = factors[0]
                for f in factors[1:]:
                    rebuilt = shifted_concat(rebuilt, f)
                assert rebuilt == w

    def test_left_and_right_greedy_agree(self):
        for n in range(1, 8):
            for w in enumerate_packed(n):
                assert [f.letters for f in factor_irreducible(w)] == _factor_rightmost(w.letters)


class TestLongWordSweep:
    @sweep(1200)
    @given(packed_words(8, 14))  # beyond the exhaustive sweeps
    def test_cuts_factorization_and_greedy_orders(self, w):
        # a cut by the definition: the prefix is packed and multiplying it
        # with the packed suffix gives back the word
        letters = w.letters
        expected = set()
        for i in range(1, len(letters)):
            head = Word(letters[:i])
            if pack(head) == head and shifted_concat(head, pack(Word(letters[i:]))) == w:
                expected.add(i)
        assert admissible_cuts(w) == expected

        factors = factor_irreducible(w)
        assert all(is_irreducible(f) for f in factors)
        rebuilt = factors[0]
        for f in factors[1:]:
            rebuilt = shifted_concat(rebuilt, f)
        assert rebuilt == w
        assert [f.letters for f in factors] == _factor_rightmost(w.letters)
