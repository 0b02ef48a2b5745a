"""Line-oriented command front-end.

Every capability is exposed as a verb with plain-text, byte-deterministic
output: words render as comma-separated indices ("e" for the empty word),
formal sums and tensors in their canonical term order.  Exit codes: 0
success, 1 verification failure or mismatch, 2 malformed input, 3 refused
resource cap, 4 output that stdout did not take (a closed pipe or a full
device).

The enumeration verbs stream: ``enumerate`` and ``verify factorization``
take the letter tuples of one length straight from the generator, and
``enumerate`` writes them in blocks of lines, so neither holds a list of
the length's words.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

from . import algebra
from .algebra import factor_irreducible, shifted_concat
from .algebra import is_irreducible  # noqa: F401  kept importable here: perfbench/tracer.py wraps cli.is_irreducible
from .coalgebra import _shared_memos, antipode, coproduct, verify_antipode, verify_bialgebra, verify_coassociativity
from .enumeration import (
    _packed_letters,
    count_irreducible,
    count_packed,
    count_packed_total,
    egf_check,
    enumerate_packed,
)
from .primitives import ResourceLimitError, primitive_space
from .words import Word, _is_packed_letters, _letters_text, _lift, _refuse_above
from .words import parse_word, require_packed

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
_EXIT_OUTPUT = 4

COPRODUCT_LEN_CAP = 12
VERIFY_LEN_DEFAULT = 4
PRIMITIVES_GRADE_DEFAULT = 4
OUTPUT_BLOCK_LINES = 4096


def _packed(text: str) -> Word:
    return require_packed(parse_word(text))


def _nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def _check_cap(what: str, value: int, cap: int, flag: str) -> None:
    _nonnegative(flag, cap)
    _refuse_above(what, value, cap, f"raise {flag} explicitly")


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _nonnegative("length", args.n)
    if args.sup is not None:
        _nonnegative("--sup", args.sup)
    # pruned to the supremum and to irreducibility during the search
    _write_lines(map(_letters_text, _packed_letters(args.n, args.sup, args.irreducible)))
    return EXIT_OK


def _write_lines(lines: Iterator[str]) -> None:
    # one print per block of lines, not one per line
    while block := list(islice(lines, OUTPUT_BLOCK_LINES)):
        print("\n".join(block))


def _cmd_table(args: argparse.Namespace) -> int:
    _nonnegative("--max-n", args.max_n)
    lengths = range(args.max_n + 1)
    if args.kind == "dnk":
        # built one at a time, so a large --max-n holds one row only
        corner, rows = "n\\k", ([n, *(count_packed(n, k) for k in lengths)] for n in lengths)
    elif args.kind == "dn":
        corner, rows = "n", [["d_n", *map(count_packed_total, lengths)]]
    else:
        # the length-0 entry is the empty-product convention, reported as 1
        corner, rows = "n", [["i_n", 1, *map(count_irreducible, lengths[1:])]]
    for row in chain([[corner, *lengths]], rows):
        print("\t".join(map(str, row)))
    return EXIT_OK


def _cmd_factor(args: argparse.Namespace) -> int:
    w = _packed(args.word)
    print(" * ".join(f.text() for f in factor_irreducible(w)))
    return EXIT_OK


def _cmd_product(args: argparse.Namespace) -> int:
    u = _packed(args.left)
    v = _packed(args.right)
    print(shifted_concat(u, v).text())
    return EXIT_OK


def _cmd_word_map(args: argparse.Namespace) -> int:
    # coproduct or antipode, looked up at run time, so that a wrapped one runs
    w = _packed(args.word)
    _check_cap("word length", len(w), args.max_len, "--max-len")
    print(globals()[args.verb](w).text())
    return EXIT_OK


def _factorization_failure(group: tuple[int, int]) -> "str | None":
    # the words of length n come in strictly increasing order, so they are
    # distinct, and each must be packed: with d_n of them they are all the
    # packed words of length n.  Each is its own single factor, checked
    # packed here, or its factors are packed words that _factors leaves
    # whole and they rebuild it, and then it is packed already: a shifted
    # concatenation of packed words is packed, since each factor's letters
    # 1..k are lifted onto the k letters just above those before it, and 0
    # stays 0.  With i_n of the d_n words having a single factor at each n,
    # shifted concatenation is then a bijection from sequences of those
    # words onto packed words (induction on n), whatever _factors says.
    # _factors is looked up here, at run time, so that a patched one is the
    # one that runs, on the words and on their factors alike.
    n, total = group
    factors_of = algebra._factors
    irreducible_factor: dict = {}  # factor letters -> packed, nonempty, left whole
    count = single = 0
    previous: tuple = ()
    for w in _packed_letters(n):
        if len(w) != n or w <= previous:
            return _letters_text(w)
        previous = w
        count += 1
        factors = factors_of(w)
        if factors == [w]:
            if not _is_packed_letters(w):
                return _letters_text(w)
            single += 1
            continue
        rebuilt, top = (), 0
        for f in factors:
            ok = irreducible_factor.get(f)
            if ok is None:
                ok = irreducible_factor[f] = bool(f) and _is_packed_letters(f) and factors_of(f) == [f]
            if not ok:
                return _letters_text(w)
            rebuilt += _lift(f, top)
            top += max(f)
        if rebuilt != w:
            return _letters_text(w)
    irreducible = count_irreducible(n)
    if count != total or single != irreducible:
        return f"{single} irreducible of {count} words, expected {irreducible} of {total}"
    return None


def _sweep(law: str, groups: Iterable[tuple[str, object, str]], first_failure: Callable) -> bool:
    # one PASS or FAIL line per (label, cases, size) group; first_failure
    # gives the text of a group's first failure, or None
    ok = True
    for label, cases, size in groups:
        bad = first_failure(cases)
        if bad is None:
            print(f"PASS {law} {label} ({size})")
        else:
            ok = False
            print(f"FAIL {law} {label}: {bad}")
    return ok


def _cmd_verify(args: argparse.Namespace) -> int:
    _nonnegative("--max-len", args.max_len)
    # the laws are looked up here, at run time, so that wrapped or patched
    # module attributes are the ones that run
    if args.law == "factorization":
        # each length's words stream from the generator inside the check
        totals = [(n, count_packed_total(n)) for n in range(1, args.max_len + 1)]
        groups = ((f"length={n}", (n, total), f"{total} words") for n, total in totals)
        first_failure = _factorization_failure
    else:
        by_length = ((n, enumerate_packed(n)) for n in range(args.max_len + 1))
        if args.law == "bialgebra":
            lengths = list(by_length)
            groups = (
                (f"|u|={a} |v|={b}", ((u, v) for u in us for v in vs), f"{len(us) * len(vs)} pairs")
                for a, us in lengths
                for b, vs in lengths
            )
            holds = lambda uv: verify_bialgebra(*uv)  # noqa: E731
            show = lambda uv: f"u={uv[0].text()} v={uv[1].text()}"  # noqa: E731
        else:
            groups = ((f"length={n}", words, f"{len(words)} words") for n, words in by_length)
            holds, show = {"coassoc": verify_coassociativity, "antipode": verify_antipode}[args.law], Word.text
        first_failure = lambda cases: next((show(case) for case in cases if not holds(case)), None)  # noqa: E731
    law = "coassociativity" if args.law == "coassoc" else args.law
    # the verifier calls of one sweep share the coproducts and antipodes of
    # the words shorter than the one each checks
    with _shared_memos():
        ok = _sweep(law, groups, first_failure)
    print("ALL PASS" if ok else "FAILURES FOUND")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_primitives(args: argparse.Namespace) -> int:
    _check_cap("grade", args.n, args.grade_cap, "--grade-cap")
    print(primitive_space(args.n, max_grade=args.grade_cap).text())
    return EXIT_OK


def _cmd_egf_check(args: argparse.Namespace) -> int:
    _nonnegative("--max-n", args.max_n)
    rows = egf_check(args.max_n)
    all_ok = True
    for n, value, ok in rows:
        all_ok &= ok
        print(f"n={n}\t{value}\t{'match' if ok else 'MISMATCH'}")
    return EXIT_OK if all_ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packedwords",
        description="Exact Hopf-algebra computations on packed words.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enumerate", help="list packed words of a given length")
    p.add_argument("n", type=int, help="word length")
    p.add_argument("--sup", type=int, default=None, help="keep only words with this supremum")
    p.add_argument("--irreducible", action="store_true", help="keep only irreducible words")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("table", help="counting tables as TSV")
    p.add_argument("kind", choices=["dnk", "dn", "in"], help="which table")
    p.add_argument("--max-n", type=int, required=True, help="largest length")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("factor", help="factor a packed word into irreducibles")
    p.add_argument("word", help="packed word, e.g. 1,1,2")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("product", help="shifted concatenation of two packed words")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_product)

    for verb, what in (("coproduct", "selection/quotient coproduct"), ("antipode", "antipode")):
        p = sub.add_parser(verb, help=f"{what} of a packed word")
        p.add_argument("word")
        p.add_argument("--max-len", type=int, default=COPRODUCT_LEN_CAP, help="length cap (default %(default)s)")
        p.set_defaults(func=_cmd_word_map)

    p = sub.add_parser("verify", help="exhaustively verify an algebraic law")
    p.add_argument("law", choices=["coassoc", "bialgebra", "antipode", "factorization"])
    p.add_argument("--max-len", type=int, default=VERIFY_LEN_DEFAULT, help="word-length bound (default %(default)s)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("primitives", help="basis of the primitive space of one grade")
    p.add_argument("--n", type=int, required=True, help="grade (word length)")
    p.add_argument(
        "--grade-cap",
        type=int,
        default=PRIMITIVES_GRADE_DEFAULT,
        help="refuse grades above this cap (default %(default)s)",
    )
    p.set_defaults(func=_cmd_primitives)

    p = sub.add_parser("egf-check", help="compare the exact series expansion with the counts")
    p.add_argument("--max-n", type=int, default=10, help="largest length (default %(default)s)")
    p.set_defaults(func=_cmd_egf_check)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        with suppress(AttributeError):  # stdout may be None, or a stand-in with no flush
            sys.stdout.flush()  # so that a write held in its buffer fails here, not at exit
        return code
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # stdout did not take the output: what it still buffers goes to the null
        # device, so that the flush at exit cannot fail again (if it has a descriptor)
        with suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        return _EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
