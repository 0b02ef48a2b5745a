import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given

import packedwords.cli as cli
import packedwords.coalgebra as coalgebra
from oracles import (
    CORRUPTED_WORDS,
    DELTA_FAULTS,
    EMPTY_SLOT_FAULTS,
    brute_antipode,
    brute_coproduct,
    complement,
    corrupted_delta,
    packed_words,
    reverse,
    sweep,
    takeuchi_antipode,
    words_up_to,
)
from packedwords import (
    LinComb,
    NotPackedError,
    ResourceLimitError,
    Tensor2,
    Word,
    antipode,
    coproduct,
    counit,
    enumerate_packed,
    factor_irreducible,
    is_irreducible,
    pack,
    parse_word,
    product,
    reduced_coproduct,
    shifted_concat,
    verify_antipode,
    verify_bialgebra,
    verify_coassociativity,
)
from packedwords.words import _decode, _encode, _Packed


def W(text):
    return parse_word(text)


def T(*terms):
    return Tensor2({(W(u), W(v)): c for u, v, c in terms})


def seeded_words(seed, n, count):
    rng = random.Random(seed)
    return [pack(Word(rng.randint(0, n) for _ in range(n))) for _ in range(count)]


def kernel(letters):
    # the coded coproduct kernel on a letter tuple, decoded
    return {(_decode(u), _decode(v)): c for (u, v), c in coalgebra._delta(_encode(letters), _Packed()).items()}


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

    def test_text_rendering_is_canonical(self):
        t = T(("1,1", "e", 1), ("1", "0", 2), ("e", "1,1", 1))
        assert t.text() == "1*e (x) 1,1 + 2*1 (x) 0 + 1*1,1 (x) e"
        # pairs with the same left slot follow their right slots
        assert T(("1", "1,1", 1), ("1", "0", 1)).text() == "1*1 (x) 0 + 1*1 (x) 1,1"
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
        assert Tensor2({(v, u): c for (u, v), c in d.terms.items()}) != d

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

    def test_bialgebra_with_an_empty_factor_takes_each_coproduct_once(self, monkeypatch):
        # the product is then the other factor, whose Δ serves both sides
        seen = Counter()
        real = coalgebra._delta

        def counted(code, packed):
            seen[_decode(code)] += 1
            return real(code, packed)

        monkeypatch.setattr(coalgebra, "_delta", counted)
        w = W("1,2,1")
        assert verify_bialgebra(W("e"), w)
        assert verify_bialgebra(w, W("e"))
        assert seen == Counter({(1, 2, 1): 2, (): 2})

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

    def test_kernel_on_the_unit_and_the_single_x0(self):
        assert coalgebra._delta(0, _Packed()) == {(0, 0): 1}
        assert kernel((0,)) == {((0,), ()): 1, ((), (0,)): 1}

    def test_kernel_on_all_words_up_to_length_six(self):
        for w in words_up_to(6):
            expected = {(u.letters, v.letters): c for (u, v), c in brute_coproduct(w).terms.items()}
            assert kernel(w.letters) == expected, w

    def test_kernel_on_seeded_twelve_letter_words(self):
        words = seeded_words(12, 12, 3)
        assert all(len(w) == 12 for w in words)
        for w in words:
            expected = {(u.letters, v.letters): c for (u, v), c in brute_coproduct(w).terms.items()}
            assert kernel(w.letters) == expected, w

    @pytest.mark.parametrize("n", [11, 12])
    def test_coproduct_at_the_cli_length_cap(self, n):
        # a permutation erases nothing; repeated nonzero letters take the
        # erase branch; several x0s stay fixed by every quotient
        rng = random.Random(n)
        perm = Word(rng.sample(range(1, n + 1), n))
        repeated = pack(Word(rng.randint(1, n // 3) for _ in range(n)))
        mixed = [0, 0, 0] + [rng.randint(1, n // 2) for _ in range(n - 3)]
        rng.shuffle(mixed)
        zeros = pack(Word(mixed))
        assert sorted(perm.letters) == list(range(1, n + 1))
        assert 0 not in repeated.letters and len(set(repeated.letters)) < n
        assert zeros.letters.count(0) == 3
        for w in (perm, repeated, zeros):
            assert len(w) == n
            assert coproduct(w) == brute_coproduct(w), w

    def test_antipode_on_all_short_words(self):
        memo = {}
        for w in words_up_to(5):
            assert antipode(w) == brute_antipode(w, memo), w

    def test_antipode_on_seeded_length_six_words(self):
        memo = {}
        for w in seeded_words(6, 6, 8):
            assert antipode(w) == brute_antipode(w, memo), w

    def test_antipode_against_takeuchi_on_all_short_words(self):
        for w in words_up_to(4):
            assert antipode(w) == takeuchi_antipode(w), w

    def test_antipode_against_takeuchi_on_seeded_length_six_words(self):
        words = seeded_words(66, 6, 8)
        assert all(len(w) == 6 for w in words)
        for w in words:
            assert antipode(w) == takeuchi_antipode(w), w

    def test_antipode_on_seeded_reducible_words_of_length_seven_and_eight(self):
        # reducible words take the product of their factors' antipodes
        words = [W("0,2,4,3,1,4,1"), W("1,2,3,2,2,0,0")]
        words += [w for n in (7, 8) for w in seeded_words(n, n, 12) if not is_irreducible(w)]
        factors = [factor_irreducible(w) for w in words]
        assert len(words) == 12 and all(len(f) >= 2 for f in factors)
        assert any(len(f) >= 3 for f in factors)
        assert any(w.letters[0] == 0 for w in words) and any(w.letters[-1] == 0 for w in words)
        memo = {}
        for w in words:
            assert antipode(w) == brute_antipode(w, memo), w

    def test_antipode_of_four_to_six_irreducible_factors(self):
        # the reducible antipode multiplies the factors' antipodes from the
        # last factor to the first, each placed after the product so far
        pieces = [w for n in (1, 2, 3) for w in enumerate_packed(n) if is_irreducible(w)]
        rng = random.Random(46)
        words = []
        while len(words) < 15:
            k = 4 + len(words) % 3
            factors = [rng.choice(pieces) for _ in range(k)]
            if sum(map(len, factors)) <= 8:
                w = factors[0]
                for f in factors[1:]:
                    w = shifted_concat(w, f)
                assert factor_irreducible(w) == factors
                words.append(w)
        assert any(len(w) == 8 for w in words)
        memo = {}
        for w in words:
            assert antipode(w) == brute_antipode(w, memo), w

    def test_antipode_reverses_products_of_irreducible_words(self):
        words = [w for n in (2, 3, 4) for w in seeded_words(n + 20, n, 6) if is_irreducible(w)]
        rng = random.Random(5)
        for _ in range(20):
            u, v = rng.choice(words), rng.choice(words)
            assert antipode(shifted_concat(u, v)) == product(antipode(v), antipode(u)), (u, v)


class TestCodeRange:
    """A word is coded one letter per byte, so letters stop at 254."""

    def test_the_reducible_word_up_to_254(self):
        # the product of 254 copies of the word 1, whose antipode is -1*1
        w = Word(range(1, 255))
        assert len(factor_irreducible(w)) == 254
        assert antipode(w) == LinComb.word(w)
        # an irreducible word whose antipode has several terms, before or
        # after the 250 factors of 1,2,...,250, reaches letter 252
        top, s = Word(range(1, 251)), W("2,1,2")
        assert antipode(shifted_concat(top, s)) == product(antipode(s), LinComb.word(top))
        assert antipode(shifted_concat(s, top)) == product(LinComb.word(top), antipode(s))

    def test_a_supremum_of_255_is_refused_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the kernel ran")

        for name in ("_encode", "_delta", "_antipode"):
            monkeypatch.setattr(coalgebra, name, refuse)
        w = Word(range(1, 256))
        calls = [coproduct, reduced_coproduct, antipode, verify_coassociativity, verify_antipode]
        for call in calls:
            with pytest.raises(ResourceLimitError, match="254"):
                call(w)
        # one word too large refuses the whole formal sum
        mixed = LinComb({W("1"): 1, w: 2})
        for call in (coproduct, antipode):
            with pytest.raises(ResourceLimitError, match="254"):
                call(mixed)

    def test_a_product_of_supremum_255_is_refused_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the kernel ran")

        for name in ("_encode", "_delta"):
            monkeypatch.setattr(coalgebra, name, refuse)
        u, v = Word(range(1, 129)), Word(range(1, 128))
        with pytest.raises(ResourceLimitError, match="254"):
            verify_bialgebra(u, v)
        with pytest.raises(ResourceLimitError, match="254"):
            verify_bialgebra(v, u)


def _rc_lincomb(x):
    # the reverse of the complement, applied to each word of a formal sum
    return LinComb({Word(reverse(complement(w.letters))): c for w, c in x.terms.items()})


class TestSymmetries:
    """The coproduct commutes with the reverse and the complement of a word,
    each applied to both slots, and S composed with the reverse of the
    complement is an involution; the symmetries are the oracles' own."""

    @pytest.mark.parametrize("symmetry", [reverse, complement], ids=["reverse", "complement"])
    def test_the_coproduct_commutes_with_the_symmetry(self, symmetry):
        ws = words_up_to(5)
        assert len(ws) == 1267
        for w in ws:
            mapped = {(symmetry(u.letters), symmetry(v.letters)): c for (u, v), c in coproduct(w).terms.items()}
            direct = {(u.letters, v.letters): c for (u, v), c in coproduct(Word(symmetry(w.letters))).terms.items()}
            assert direct == mapped, w

    @pytest.mark.parametrize(
        "words",
        [words_up_to(4), seeded_words(1, 8, 5)],
        ids=["length-4", "seeded-length-8"],
    )
    def test_antipode_after_reverse_complement_is_an_involution(self, words):
        # S(rc(S(rc(w)))) = w, though S and rc do not commute on most words
        for w in words:
            assert antipode(_rc_lincomb(antipode(_rc_lincomb(LinComb.word(w))))) == LinComb.word(w), w


class TestEntryChecks:
    """Every public kernel entry checks its words before any work."""

    @pytest.mark.parametrize(
        "call",
        [
            coproduct,
            reduced_coproduct,
            antipode,
            verify_coassociativity,
            verify_antipode,
            lambda w: verify_bialgebra(w, W("1")),
            lambda w: verify_bialgebra(W("1"), w),
        ],
        ids=[
            "coproduct",
            "reduced_coproduct",
            "antipode",
            "verify_coassociativity",
            "verify_antipode",
            "verify_bialgebra-left",
            "verify_bialgebra-right",
        ],
    )
    def test_refuses_a_word_not_packed_and_a_tuple(self, monkeypatch, call):
        def refuse(*args):
            raise AssertionError("the kernel ran")

        for name in ("_encode", "_delta", "_antipode"):
            monkeypatch.setattr(coalgebra, name, refuse)
        with pytest.raises(NotPackedError):
            call(W("2"))
        with pytest.raises(TypeError):
            call((1,))


class TestLongWordSweep:
    """Words longer than the exhaustive sweeps reach, drawn by hypothesis."""

    @sweep(250)
    @given(packed_words(8, 10))
    def test_coproduct_against_oracle(self, w):
        assert coproduct(w) == brute_coproduct(w)

    @sweep(150)
    @given(packed_words(6, 8))
    def test_coassociativity_and_antipode(self, w):
        assert verify_coassociativity(w)
        assert verify_antipode(w)

    @sweep(400)
    @given(packed_words(3, 5), packed_words(3, 5))
    def test_bialgebra(self, u, v):
        assert verify_bialgebra(u, v)


def _pairs_up_to(max_len):
    words = words_up_to(max_len)
    return [(u, v) for u in words for v in words if len(u) + len(v) <= max_len]


class TestVerifierFaults:
    """Each Hopf verifier must notice a coproduct that is wrong on one word."""

    @pytest.mark.parametrize("fault", DELTA_FAULTS)
    @pytest.mark.parametrize("word", CORRUPTED_WORDS)
    def test_every_verifier_fails_on_a_corrupted_coproduct(self, monkeypatch, word, fault):
        monkeypatch.setattr(coalgebra, "_delta", corrupted_delta(coalgebra._delta, word, fault))
        assert not all(verify_coassociativity(w) for w in words_up_to(4))
        assert not all(verify_bialgebra(u, v) for u, v in _pairs_up_to(4))
        assert not all(verify_antipode(w) for w in words_up_to(4))

    @pytest.mark.parametrize("fault", DELTA_FAULTS)
    def test_the_left_identity_alone_fails_on_a_reducible_word(self, monkeypatch, fault):
        # S(0,1,1) = S(1,1) * S(0) comes from the factors, not from Δ(0,1,1),
        # so a wrong Δ(0,1,1) leaves sum S(u) * v over it nonzero
        word = (0, 1, 1)
        monkeypatch.setattr(coalgebra, "_delta", corrupted_delta(coalgebra._delta, word, fault))
        w = Word(word)
        left = LinComb.zero()
        for (u, v), c in coproduct(w).terms.items():
            left = left + c * product(antipode(u), v)
        assert left
        assert not verify_antipode(w)

    @pytest.mark.parametrize("fault", EMPTY_SLOT_FAULTS)
    @pytest.mark.parametrize("word", [(), (1, 1), (2, 1), (1, 2, 1), (0, 1, 1)])
    def test_the_antipode_check_fails_on_a_wrong_term_with_an_empty_slot(self, monkeypatch, word, fault):
        monkeypatch.setattr(coalgebra, "_delta", corrupted_delta(coalgebra._delta, word, fault))
        assert not verify_antipode(Word(word))

    @pytest.mark.parametrize(
        "word,extra",
        [
            # w (x) e and 0 (x) 1 once more each, on a reducible word
            ((0, 1), [((0, 1), (), 1), ((0,), (1,), 1)]),
            # w (x) e and e (x) w once more and 1,0 (x) e twice less, on an
            # irreducible word: only its terms with an empty slot are wrong
            ((1, 1), [((1, 1), (), 1), ((), (1, 1), 1), ((1, 0), (), -2)]),
            # 1 * S(0,1) + 1,2 * S(0) = 0, while S(1) * 0,1 + S(1,2) * 0 is not
            ((1, 0, 2), [((1,), (0, 1), 1), ((1, 2), (0,), 1)]),
        ],
    )
    def test_the_antipode_check_fails_where_only_the_left_identity_does(self, monkeypatch, word, extra):
        real = coalgebra._delta
        target = _encode(word)

        def delta(code, packed):
            terms = real(code, packed)
            if code == target:
                terms = dict(terms)
                for u, v, c in extra:
                    key = _encode(u), _encode(v)
                    terms[key] = terms.get(key, 0) + c
            return terms

        monkeypatch.setattr(coalgebra, "_delta", delta)
        w = Word(word)
        left = right = LinComb.zero()
        for (u, v), c in coproduct(w).terms.items():
            left = left + c * product(antipode(u), v)
            right = right + c * product(u, antipode(v))
        assert left and not right
        assert not verify_antipode(w)

    def test_the_antipode_check_fails_on_factors_multiplied_in_reverse(self, monkeypatch):
        real = coalgebra._factors
        monkeypatch.setattr(coalgebra, "_factors", lambda letters: real(letters)[::-1])
        assert antipode(W("0,1")) != takeuchi_antipode(W("0,1"))
        assert not all(verify_antipode(w) for w in words_up_to(4))

    def test_the_kernel_passes_the_same_checks(self):
        assert all(verify_coassociativity(w) for w in words_up_to(4))
        assert all(verify_bialgebra(u, v) for u, v in _pairs_up_to(4))
        assert all(verify_antipode(w) for w in words_up_to(4))


class TestMemos:
    def test_a_sweep_keeps_no_coproduct_and_only_shorter_antipodes(self):
        with coalgebra._shared_memos():
            for w in words_up_to(4):
                assert verify_antipode(w)
            memo = coalgebra._SWEEP.memos
            assert len(memo) == 0
            assert memo.antipodes
            assert max(len(_decode(x)) for x in memo.antipodes) == 3

    def test_a_bialgebra_sweep_keeps_the_coproducts_of_its_factors(self, monkeypatch, capsys):
        # a word is a factor in many pairs and its Δ is computed for the
        # first; only the Δ of a product of two nonempty words is not kept
        seen = Counter()
        real = coalgebra._delta

        def counted(code, packed):
            seen[_decode(code)] += 1
            return real(code, packed)

        monkeypatch.setattr(coalgebra, "_delta", counted)
        assert cli.main(["verify", "bialgebra", "--max-len", "3"]) == 0
        assert capsys.readouterr().out.endswith("ALL PASS\n")
        words = words_up_to(3)
        products = Counter(shifted_concat(u, v).letters for u in words for v in words if len(u) and len(v))
        for w in words:
            assert seen[w.letters] <= products[w.letters] + 1, w

    def test_antipode_computes_each_coproduct_it_needs_once(self, monkeypatch):
        # the counts of the parent kernel, whose antipodes read no memo of
        # coproducts: one _delta per irreducible word met in the recursion
        calls = []
        real = coalgebra._delta

        def counted(code, packed):
            calls.append(code)
            return real(code, packed)

        monkeypatch.setattr(coalgebra, "_delta", counted)
        counts = []
        for w in seeded_words(8, 8, 3):
            calls.clear()
            antipode(w)
            counts.append(len(calls))
            assert len(set(calls)) == len(calls)
        assert counts == [88, 35, 62]


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

    def test_kernel_calls_and_sweeps_in_four_threads_get_identical_results(self):
        # two threads run inside a verify sweep's shared memos, two outside
        words = words_up_to(3) + seeded_words(5, 6, 3)
        pairs = [(u, v) for u in words_up_to(2) for v in words_up_to(2)]

        def work():
            return (
                [coproduct(w) for w in words],
                [antipode(w) for w in words],
                [verify_coassociativity(w) for w in words],
                [verify_antipode(w) for w in words],
                [verify_bialgebra(u, v) for u, v in pairs],
            )

        expected = work()
        assert all(all(checks) for checks in expected[2:])
        results = {}

        def caller(i):
            if i < 2:
                with cli._shared_memos():
                    results[i] = work()
            else:
                results[i] = work()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == [0, 1, 2, 3]
        for got in results.values():
            assert got == expected

    def test_another_threads_sweep_is_not_shared(self, monkeypatch):
        # Δ calls per thread: verify_antipode outside a sweep recomputes the
        # antipodes of the shorter words, inside one it reuses them
        w = W("1,2,1")
        calls = Counter()
        real = coalgebra._delta

        def counted(code, packed):
            calls[threading.get_ident()] += 1
            return real(code, packed)

        monkeypatch.setattr(coalgebra, "_delta", counted)
        me = threading.get_ident()
        assert verify_antipode(w)
        alone = calls.pop(me)
        with coalgebra._shared_memos():
            for v in words_up_to(2):
                verify_antipode(v)
            calls.pop(me)
            assert verify_antipode(w)
            assert calls.pop(me) < alone

        opened, done = threading.Event(), threading.Event()

        def sweeper():
            with coalgebra._shared_memos():
                for v in words_up_to(3):
                    verify_antipode(v)
                opened.set()
                done.wait(timeout=60)

        other = threading.Thread(target=sweeper)
        other.start()
        try:
            assert opened.wait(timeout=60)
            assert verify_antipode(w)
            assert calls[me] == alone
        finally:
            done.set()
            other.join(timeout=60)
        assert not other.is_alive()
