import random
import sys
import threading
from fractions import Fraction

import pytest

import packedwords.coalgebra as coalgebra
from oracles import brute_antipode, brute_coproduct
from packedwords import (
    LinComb,
    NotPackedError,
    Tensor2,
    Word,
    antipode,
    coproduct,
    counit,
    enumerate_packed,
    pack,
    parse_word,
    product,
    reduced_coproduct,
    shifted_concat,
    verify_antipode,
    verify_bialgebra,
    verify_coassociativity,
)


def W(text):
    return parse_word(text)


def T(*terms):
    return Tensor2({(W(u), W(v)): c for u, v, c in terms})


def words_up_to(max_len):
    return [w for n in range(max_len + 1) for w in enumerate_packed(n)]


def seeded_words(seed, n, count):
    rng = random.Random(seed)
    return [pack(Word(rng.randint(0, n) for _ in range(n))) for _ in range(count)]


class TestTensor2:
    def test_slots_must_be_packed(self):
        with pytest.raises(NotPackedError):
            Tensor2({(W("2"), W("1")): 1})

    def test_vector_operations_and_zero(self):
        t = T(("1", "0", 2))
        assert t + t == T(("1", "0", 4))
        assert t - t == Tensor2.zero()
        assert -1 * t == T(("1", "0", -2))
        assert not Tensor2.zero()

    def test_slotwise_product(self):
        left = T(("1", "e", 1), ("e", "1", 1))
        right = T(("1", "e", 1), ("e", "1", 1))
        # (x1 (x) e + e (x) x1)^2 expands like a binomial with x1*x1 = x1x2
        assert left * right == T(("1,2", "e", 1), ("1", "1", 2), ("e", "1,2", 1))

    def test_swap(self):
        t = T(("1,1", "e", 1), ("1", "0", 2))
        assert t.swap() == T(("e", "1,1", 1), ("0", "1", 2))

    def test_text_rendering_is_canonical(self):
        t = T(("1,1", "e", 1), ("1", "0", 2), ("e", "1,1", 1))
        assert t.text() == "1*e (x) 1,1 + 2*1 (x) 0 + 1*1,1 (x) e"
        assert Tensor2.zero().text() == "0"

    def test_scalar_multiples_keep_the_type(self):
        t = T(("1", "0", 2), ("e", "1,1", 1))
        assert type(2 * t) is Tensor2
        assert type(Fraction(1, 3) * t) is Tensor2
        assert (Fraction(1, 2) * t).text() == "1/2*e (x) 1,1 + 1*1 (x) 0"

    def test_distinct_from_lincomb(self):
        assert LinComb.zero() != Tensor2.zero()
        assert Tensor2.zero() != LinComb.zero()
        with pytest.raises(TypeError):
            LinComb.unit() + Tensor2.zero()
        with pytest.raises(TypeError):
            Tensor2.zero() - LinComb.unit()


class TestCoproduct:
    def test_golden_three_letter_word(self):
        expected = T(
            ("1,2,1", "e", 1),
            ("1", "1,0", 1),
            ("1", "1,1", 1),
            ("1", "0,1", 1),
            ("1,2", "0", 1),
            ("1,1", "1", 1),
            ("2,1", "0", 1),
            ("e", "1,2,1", 1),
        )
        assert coproduct(W("1,2,1")) == expected

    def test_unit(self):
        assert coproduct(W("e")) == T(("e", "e", 1))

    def test_square_word_has_multiplicity_two(self):
        assert coproduct(W("1,1")) == T(("1,1", "e", 1), ("1", "0", 2), ("e", "1,1", 1))

    def test_extends_linearly(self):
        a = LinComb({W("1"): 2, W("e"): 1})
        assert coproduct(a) == 2 * coproduct(W("1")) + coproduct(W("e"))

    def test_requires_packed(self):
        with pytest.raises(NotPackedError):
            coproduct(W("2"))

    def test_grading_and_term_count(self):
        for w in words_up_to(4):
            total = Fraction(0)
            for (u, v), c in coproduct(w).terms.items():
                assert len(u) + len(v) == len(w)
                total += c
            assert total == 2 ** len(w)

    def test_not_cocommutative(self):
        d = coproduct(W("1,1"))
        assert d.swap() != d

    def test_coefficients_are_integers(self):
        for w in words_up_to(4):
            assert all(type(c) is int for c in coproduct(w).terms.values())


class TestCounit:
    def test_values(self):
        assert counit(LinComb.unit()) == 1
        assert counit(W("1,2,1")) == 0
        assert counit(LinComb({W("e"): 3, W("1"): 5})) == 3

    def test_counit_law(self):
        empty = W("e")
        for w in words_up_to(5):
            left = LinComb.zero()
            right = LinComb.zero()
            for (u, v), c in coproduct(w).terms.items():
                if u == empty:
                    left = left + LinComb.word(v, c)
                if v == empty:
                    right = right + LinComb.word(u, c)
            assert left == LinComb.word(w)
            assert right == LinComb.word(w)


class TestReducedCoproduct:
    def test_single_letters_are_primitive(self):
        assert reduced_coproduct(W("1")) == Tensor2.zero()
        assert reduced_coproduct(W("0")) == Tensor2.zero()

    def test_square_word(self):
        assert reduced_coproduct(W("1,1")) == T(("1", "0", 2))

    def test_unit_maps_to_zero(self):
        assert reduced_coproduct(W("e")) == Tensor2.zero()

    def test_primitive_combination(self):
        z = LinComb({W("0,1"): 1, W("1,0"): -1})
        assert reduced_coproduct(z) == Tensor2.zero()

    def test_all_slots_nonempty(self):
        empty = W("e")
        for w in words_up_to(4):
            for u, v in reduced_coproduct(w).terms:
                assert u != empty and v != empty

    def test_is_coproduct_without_trivial_terms(self):
        empty = W("e")

        def nontrivial(t):
            return Tensor2({(u, v): c for (u, v), c in t.terms.items() if empty not in (u, v)})

        for w in words_up_to(4):
            assert reduced_coproduct(w) == nontrivial(coproduct(w))
        mixed = LinComb({W("e"): 2, W("1"): -1, W("1,1"): Fraction(1, 2), W("0,1"): 3, W("1,0"): -3})
        assert reduced_coproduct(mixed) == nontrivial(coproduct(mixed))
        assert reduced_coproduct(mixed)


class TestAntipode:
    def test_unit(self):
        assert antipode(W("e")) == LinComb.unit()

    def test_single_letter(self):
        assert antipode(W("1")) == LinComb.word(W("1"), -1)

    def test_square_word(self):
        assert antipode(W("1,1")) == LinComb({W("1,1"): -1, W("1,0"): 2})

    def test_extends_linearly(self):
        a = LinComb({W("1,1"): 1, W("1"): 3})
        assert antipode(a) == antipode(W("1,1")) + 3 * antipode(W("1"))

    def test_coefficients_are_integers(self):
        for w in words_up_to(4):
            assert all(type(c) is int for c in antipode(w).terms.values())

    def test_algebra_antimorphism(self):
        ws = words_up_to(2)
        for u in ws:
            for v in ws:
                assert antipode(shifted_concat(u, v)) == product(antipode(v), antipode(u))


class TestHopfVerifiers:
    def test_coassociativity(self):
        assert verify_coassociativity(W("1,2,1"))
        assert verify_coassociativity(W("e"))
        for w in words_up_to(3):
            assert verify_coassociativity(w)

    def test_bialgebra(self):
        assert verify_bialgebra(W("1"), W("1"))
        for w in words_up_to(3):
            assert verify_bialgebra(W("e"), w)
        for u in words_up_to(2):
            for v in words_up_to(2):
                assert verify_bialgebra(u, v)

    def test_antipode_axiom(self):
        assert verify_antipode(W("e"))
        assert verify_antipode(W("1,1"))
        for w in words_up_to(2):
            assert verify_antipode(w)


class TestAgainstOracles:
    def test_coproduct_on_all_short_words(self):
        for w in words_up_to(5):
            assert coproduct(w) == brute_coproduct(w), w

    def test_coproduct_on_seeded_length_seven_words(self):
        words = seeded_words(7, 7, 8)
        assert all(len(w) == 7 for w in words)
        for w in words:
            assert coproduct(w) == brute_coproduct(w), w

    def test_antipode_on_all_short_words(self):
        memo = {}
        for w in words_up_to(5):
            assert antipode(w) == brute_antipode(w, memo), w

    def test_antipode_on_seeded_length_six_words(self):
        memo = {}
        for w in seeded_words(6, 6, 8):
            assert antipode(w) == brute_antipode(w, memo), w


def _corrupted_delta(word, fault):
    # the kernel's coproduct, except that on one word one nontrivial term
    # is lost or its multiplicity is raised by one
    real = coalgebra._delta

    def delta(letters):
        terms = real(letters)
        if letters == word:
            terms = dict(terms)
            split = max(k for k in terms if k[0] and k[1])
            if fault == "lose":
                del terms[split]
            else:
                terms[split] += 1
        return terms

    return delta


def _pairs_up_to(max_len):
    words = words_up_to(max_len)
    return [(u, v) for u in words for v in words if len(u) + len(v) <= max_len]


class TestVerifierFaults:
    """Each Hopf verifier must notice a coproduct that is wrong on one word."""

    @pytest.mark.parametrize("fault", ["lose", "multiplicity"])
    @pytest.mark.parametrize("word", [(1, 1), (1, 2, 1), (0, 1, 1)])
    def test_every_verifier_fails_on_a_corrupted_coproduct(self, monkeypatch, word, fault):
        monkeypatch.setattr(coalgebra, "_delta", _corrupted_delta(word, fault))
        assert not all(verify_coassociativity(w) for w in words_up_to(4))
        assert not all(verify_bialgebra(u, v) for u, v in _pairs_up_to(4))
        assert not all(verify_antipode(w) for w in words_up_to(4))

    def test_the_kernel_passes_the_same_checks(self):
        assert all(verify_coassociativity(w) for w in words_up_to(4))
        assert all(verify_bialgebra(u, v) for u, v in _pairs_up_to(4))
        assert all(verify_antipode(w) for w in words_up_to(4))


class TestThreads:
    def test_concurrent_callers_get_identical_results(self):
        words = words_up_to(4) + seeded_words(4, 6, 4)
        expected = [(antipode(w), verify_antipode(w)) for w in words]
        results = []

        def caller():
            results.append([(antipode(w), verify_antipode(w)) for w in words])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4
        for got in results:
            assert got == expected
