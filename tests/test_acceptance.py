"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Expected table values are frozen below; everything else is checked
against independent oracles (raw-word filtering, candidate-factor search,
composition sums, direct coproduct evaluation).
"""

import time
from collections import Counter
from itertools import combinations
from itertools import product as iproduct

from oracles import _rref, brute_factorizations, words_up_to
from packedwords import (
    LinComb,
    Tensor2,
    Word,
    coproduct,
    count_irreducible,
    count_irreducible_compositions,
    count_packed,
    count_packed_total,
    delta_plus_matrix,
    egf_check,
    enumerate_irreducible,
    enumerate_packed,
    factor_irreducible,
    is_irreducible,
    pack,
    parse_word,
    primitive_space,
    quotient,
    shifted_concat,
    substitute,
    subword,
    verify_antipode,
    verify_bialgebra,
    verify_coassociativity,
)

# fmt: off
D_TRIANGLE = [  # d(n,k) for n, k in 0..8
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0, 0],
    [1, 3, 2, 0, 0, 0, 0, 0, 0],
    [1, 7, 12, 6, 0, 0, 0, 0, 0],
    [1, 15, 50, 60, 24, 0, 0, 0, 0],
    [1, 31, 180, 390, 360, 120, 0, 0, 0],
    [1, 63, 602, 2100, 3360, 2520, 720, 0, 0],
    [1, 127, 1932, 10206, 25200, 31920, 20160, 5040, 0],
    [1, 255, 6050, 46620, 166824, 317520, 332640, 181440, 40320],
]
D_TOTALS = [1, 2, 6, 26, 150, 1082, 9366, 94586, 1091670, 14174522, 204495126]
I_COUNTS = [None, 2, 2, 10, 66, 538, 5170, 56906, 704226, 9671930, 145992338]
# fmt: on


def W(text):
    return parse_word(text)


def report(number, name, ok, detail=None):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, detail or f"criterion {number} failed: {name}"


def test_criterion_01_length_supremum_table():
    start = time.monotonic()
    ok = all(
        count_packed(n, k) == D_TRIANGLE[n][k] for n in range(9) for k in range(9)
    )
    elapsed = time.monotonic() - start
    report(1, f"81 length/supremum counts reproduced in {elapsed:.3f}s", ok and elapsed < 1.0)


def test_criterion_02_length_totals():
    start = time.monotonic()
    ok = all(count_packed_total(n) == D_TOTALS[n] for n in range(11))
    elapsed = time.monotonic() - start
    report(2, f"totals d_0..d_10 reproduced in {elapsed:.3f}s", ok and elapsed < 1.0)


def first_difference(a, b):
    """Smallest n >= 1 at which the lists for i_1, i_2, ... differ, or None."""
    return next((n for n, (x, y) in enumerate(zip(a, b), 1) if x != y), None)


def test_criterion_03_irreducible_counts_both_paths():
    # the algebra is free on its irreducible words, so 1 + D(x) = 1/(1 - I(x))
    # and the frozen i_n must equal d_n - sum_{j<n} i_j*d_{n-j} computed from
    # criterion 2's totals; checked here in plain integers, so a wrong table
    # entry is blamed on the table, not on the library
    start = time.monotonic()
    recurrence = [count_irreducible(n) for n in range(1, 11)]
    comps = [count_irreducible_compositions(n) for n in range(1, 11)]
    elapsed = time.monotonic() - start
    frozen = I_COUNTS[1:]
    implied = [
        D_TOTALS[n] - sum(I_COUNTS[j] * D_TOTALS[n - j] for j in range(1, n))
        for n in range(1, 11)
    ]
    faults = []
    n = first_difference(frozen, implied)
    if n is not None:
        faults.append(
            f"frozen I_COUNTS[{n}] = {I_COUNTS[n]} is inconsistent with D_TOTALS, "
            f"which force i_{n} = {implied[n - 1]}"
        )
    for name, a, b in [
        ("recurrence and composition paths", recurrence, comps),
        ("recurrence path and frozen list", recurrence, frozen),
        ("composition path and frozen list", comps, frozen),
    ]:
        n = first_difference(a, b)
        if n is not None:
            faults.append(f"{name} differ first at n = {n}")
    if elapsed >= 1.0:
        faults.append(f"took {elapsed:.3f}s, bound 1.0s")
    report(
        3,
        f"i_1..i_10 by integer recurrence and composition sum in {elapsed:.3f}s",
        not faults,
        detail=(
            "; ".join(faults)
            + f"\n  recurrence:   {recurrence}\n  compositions: {comps}"
            + f"\n  frozen:       {frozen}"
        ),
    )


def test_criterion_04_enumeration_agrees_with_closed_forms():
    start = time.monotonic()
    ok = True
    for n in range(7):
        words = enumerate_packed(n)
        ok &= len(words) == count_packed_total(n)
        by_sup = Counter(w.sup for w in words)
        ok &= all(by_sup.get(k, 0) == count_packed(n, k) for k in range(n + 1))
        if n >= 1:
            ok &= len(enumerate_irreducible(n)) == count_irreducible(n)
    elapsed = time.monotonic() - start
    report(4, f"generation matches counts through length 6 in {elapsed:.1f}s", ok and elapsed < 30.0)


def test_criterion_05_coproduct_golden_expansions():
    expected_121 = Tensor2(
        {
            (W("1,2,1"), W("e")): 1,
            (W("1"), W("1,0")): 1,
            (W("1"), W("1,1")): 1,
            (W("1"), W("0,1")): 1,
            (W("1,2"), W("0")): 1,
            (W("1,1"), W("1")): 1,
            (W("2,1"), W("0")): 1,
            (W("e"), W("1,2,1")): 1,
        }
    )
    expected_11 = Tensor2({(W("1,1"), W("e")): 1, (W("1"), W("0")): 2, (W("e"), W("1,1")): 1})
    ok = coproduct(W("1,2,1")) == expected_121 and coproduct(W("1,1")) == expected_11
    report(5, "coproduct expansions match term for term", ok)


def test_criterion_06_hopf_axiom_suite():
    start = time.monotonic()
    coassoc_words = words_up_to(4)
    ok = len(coassoc_words) == 185
    ok &= all(verify_coassociativity(w) for w in coassoc_words)
    small = words_up_to(3)
    ok &= all(verify_bialgebra(u, v) for u in small for v in small)
    ok &= all(verify_antipode(w) for w in small)
    elapsed = time.monotonic() - start
    report(6, f"coassociativity/bialgebra/antipode axioms in {elapsed:.1f}s", ok and elapsed < 120.0)


def test_criterion_07_factorization():
    start = time.monotonic()
    ok = not is_irreducible(W("1,1,2"))
    ok &= factor_irreducible(W("1,1,2")) == [W("1,1"), W("1")]
    ok &= is_irreducible(W("1,1,1")) and is_irreducible(W("1,0,1,0,1"))
    for n in range(1, 6):
        for w in enumerate_packed(n):
            factors = factor_irreducible(w)
            rebuilt = factors[0]
            for f in factors[1:]:
                rebuilt = shifted_concat(rebuilt, f)
            ok &= rebuilt == w
            ok &= brute_factorizations(w) == [factors]
    elapsed = time.monotonic() - start
    report(7, f"unique factorization vs oracle through length 5 in {elapsed:.1f}s", ok)


def test_criterion_08_exact_series_expansion():
    rows = egf_check(10)
    ok = all(entry == (n, count_packed_total(n), True) for n, entry in enumerate(rows))
    report(8, "series expansion of e^x/(2-e^x) matches all counts exactly", ok)


def test_criterion_09_primitive_spaces():
    start = time.monotonic()
    p1 = primitive_space(1)
    ok = p1.dimension == 2 and p1.vectors == [LinComb.word(W("0")), LinComb.word(W("1"))]

    p2 = primitive_space(2)
    ok &= p2.dimension == 2
    expected = [
        LinComb({W("0,1"): 1, W("1,0"): -1}),
        LinComb({W("1,2"): 1, W("2,1"): -1}),
    ]
    # span equality both ways: each expected vector must be reachable from
    # the computed basis and vice versa; with two-dimensional spaces it is
    # enough that every expected vector is annihilated together with the
    # computed basis without raising the rank
    ok &= _same_span(p2.vectors, expected, delta_plus_matrix(2).col_labels)

    m3 = delta_plus_matrix(3)
    p3 = primitive_space(3)
    ok &= m3.n_cols == 26
    ok &= m3.rank() + p3.dimension == 26
    empty = W("e")
    for z in p3.vectors:
        expected_t = Tensor2({(w, empty): c for w, c in z.terms.items()}) + Tensor2(
            {(empty, w): c for w, c in z.terms.items()}
        )
        ok &= coproduct(z) == expected_t
    elapsed = time.monotonic() - start
    report(9, f"primitive spaces for grades 1..3 in {elapsed:.1f}s", ok and elapsed < 60.0)


def _same_span(vectors_a, vectors_b, basis_words):
    # exact span comparison via the canonical reduced echelon form
    def rref_rows(vectors):
        rows = [
            {j: v.coefficient(w) for j, w in enumerate(basis_words) if v.coefficient(w)}
            for v in vectors
        ]
        _, reduced = _rref(rows, len(basis_words))
        return [sorted(r.items()) for r in reduced]

    return rref_rows(vectors_a) == rref_rows(vectors_b)


def _all_words(max_len, max_index):
    for length in range(max_len + 1):
        for letters in iproduct(range(max_index + 1), repeat=length):
            yield Word(letters)


def _increasing_maps(domain, ceiling):
    domain = sorted(domain)
    for image in combinations(range(1, ceiling + 1), len(domain)):
        yield dict(zip(domain, image))


def test_criterion_10_structure_identities():
    start = time.monotonic()
    ok = True

    # packing is a morphism for the product: selecting positions before or
    # after multiplying gives the same packed pieces
    small = list(_all_words(3, 3))
    for u in small:
        nu = len(u)
        for v in small:
            nv = len(v)
            w = shifted_concat(u, v)
            for mask_u in range(1 << nu):
                sel_u = [p + 1 for p in range(nu) if mask_u >> p & 1]
                left_piece = pack(subword(u, sel_u))
                for mask_v in range(1 << nv):
                    sel_v = [p + 1 for p in range(nv) if mask_v >> p & 1]
                    joint = sel_u + [nu + p for p in sel_v]
                    lhs = pack(subword(w, joint))
                    rhs = shifted_concat(left_piece, pack(subword(v, sel_v)))
                    ok &= lhs == rhs

    # strictly increasing relabelings do not change the packed shape
    for n in range(6):
        for w in enumerate_packed(n):
            nonzero = sorted({i for i in w.letters if i})
            for phi in _increasing_maps(nonzero, len(nonzero) + 2):
                ok &= pack(substitute(phi, w)) == pack(w)

    # strictly increasing relabelings commute with quotients
    domain = [1, 2, 3]
    maps = list(_increasing_maps(domain, 5))
    for w1 in small:
        for w2 in small:
            for phi in maps:
                lhs = substitute(phi, quotient(w1, w2))
                rhs = quotient(substitute(phi, w1), substitute(phi, w2))
                ok &= lhs == rhs

    # iterated quotients collapse: quotient by two stages equals quotient
    # by the union of the erased position sets
    for n in range(6):
        for w in enumerate_packed(n):
            for assign in iproduct(range(4), repeat=n):
                sel_i = [p + 1 for p in range(n) if assign[p] == 0]
                sel_j = [p + 1 for p in range(n) if assign[p] == 1]
                sel_k = [p + 1 for p in range(n) if assign[p] == 2]
                wi, wj, wk = subword(w, sel_i), subword(w, sel_j), subword(w, sel_k)
                lhs = quotient(quotient(wk, wi), quotient(wj, wi))
                ok &= lhs == quotient(wk, subword(w, sel_i + sel_j))

    elapsed = time.monotonic() - start
    report(10, f"pack-morphism/relabeling/quotient identities in {elapsed:.1f}s", ok)
