"""Line-oriented command front-end.

Every capability is exposed as a verb with plain-text, byte-deterministic
output: words render as comma-separated indices ("e" for the empty word),
formal sums and tensors in their canonical term order.  Exit codes: 0
success, 1 verification failure or mismatch, 2 malformed input, 3 refused
resource cap.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable

from .algebra import (
    _factor_rightmost,
    factor_irreducible,
    is_irreducible,
    shifted_concat,
)
from .coalgebra import antipode, coproduct, verify_antipode, verify_bialgebra, verify_coassociativity
from .enumeration import (
    count_irreducible,
    count_packed,
    count_packed_total,
    egf_check,
    enumerate_packed,
)
from .primitives import ResourceLimitError, primitive_space
from .words import NotPackedError, Word, WordSyntaxError, parse_word, require_packed

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

COPRODUCT_LEN_CAP = 12
VERIFY_LEN_DEFAULT = 4
PRIMITIVES_GRADE_DEFAULT = 4


def _packed(text: str) -> Word:
    return require_packed(parse_word(text))


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ValueError(f"length must be >= 0, got {args.n}")
    words = enumerate_packed(args.n)
    if args.sup is not None:
        words = [w for w in words if w.sup == args.sup]
    if args.irreducible:
        words = [w for w in words if len(w) and is_irreducible(w)]
    for w in words:
        print(w.text())
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    n_max = args.max_n
    if n_max < 0:
        raise ValueError(f"--max-n must be >= 0, got {n_max}")
    if args.kind == "dnk":
        print("\t".join(["n\\k"] + [str(k) for k in range(n_max + 1)]))
        for n in range(n_max + 1):
            print("\t".join([str(n)] + [str(count_packed(n, k)) for k in range(n_max + 1)]))
    elif args.kind == "dn":
        print("\t".join(["n"] + [str(n) for n in range(n_max + 1)]))
        print("\t".join(["d_n"] + [str(count_packed_total(n)) for n in range(n_max + 1)]))
    else:
        # the length-0 entry is the empty-product convention, reported as 1
        values = ["1"] + [str(count_irreducible(n)) for n in range(1, n_max + 1)]
        print("\t".join(["n"] + [str(n) for n in range(n_max + 1)]))
        print("\t".join(["i_n"] + values))
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


def _check_length_cap(w: Word, cap: int) -> None:
    if len(w) > cap:
        raise ResourceLimitError(
            f"word length {len(w)} exceeds the cap {cap}; raise --max-len explicitly"
        )


def _cmd_coproduct(args: argparse.Namespace) -> int:
    w = _packed(args.word)
    _check_length_cap(w, args.max_len)
    print(coproduct(w).text())
    return EXIT_OK


def _cmd_antipode(args: argparse.Namespace) -> int:
    w = _packed(args.word)
    _check_length_cap(w, args.max_len)
    print(antipode(w).text())
    return EXIT_OK


def _words_up_to(max_len: int) -> Iterable[tuple[int, list[Word]]]:
    for n in range(max_len + 1):
        yield n, enumerate_packed(n)


def _verify_coassoc(max_len: int) -> bool:
    ok = True
    for n, words in _words_up_to(max_len):
        bad = [w for w in words if not verify_coassociativity(w)]
        if bad:
            ok = False
            print(f"FAIL coassociativity length={n}: {bad[0].text()}")
        else:
            print(f"PASS coassociativity length={n} ({len(words)} words)")
    return ok


def _verify_bialgebra(max_len: int) -> bool:
    ok = True
    groups = list(_words_up_to(max_len))
    for a, us in groups:
        for b, vs in groups:
            bad = None
            for u in us:
                for v in vs:
                    if not verify_bialgebra(u, v):
                        bad = (u, v)
                        break
                if bad:
                    break
            if bad:
                ok = False
                print(f"FAIL bialgebra |u|={a} |v|={b}: u={bad[0].text()} v={bad[1].text()}")
            else:
                print(f"PASS bialgebra |u|={a} |v|={b} ({len(us) * len(vs)} pairs)")
    return ok


def _verify_antipode(max_len: int) -> bool:
    ok = True
    for n, words in _words_up_to(max_len):
        bad = [w for w in words if not verify_antipode(w)]
        if bad:
            ok = False
            print(f"FAIL antipode length={n}: {bad[0].text()}")
        else:
            print(f"PASS antipode length={n} ({len(words)} words)")
    return ok


def _verify_factorization(max_len: int) -> bool:
    ok = True
    for n, words in _words_up_to(max_len):
        if n == 0:
            continue
        bad = None
        for w in words:
            factors = factor_irreducible(w)
            rebuilt = factors[0]
            for f in factors[1:]:
                rebuilt = shifted_concat(rebuilt, f)
            if rebuilt != w or not all(is_irreducible(f) for f in factors):
                bad = w
                break
            if factors != _factor_rightmost(w):
                bad = w
                break
        if bad is not None:
            ok = False
            print(f"FAIL factorization length={n}: {bad.text()}")
        else:
            print(f"PASS factorization length={n} ({len(words)} words)")
    return ok


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_len < 0:
        raise ValueError(f"--max-len must be >= 0, got {args.max_len}")
    runners = {
        "coassoc": _verify_coassoc,
        "bialgebra": _verify_bialgebra,
        "antipode": _verify_antipode,
        "factorization": _verify_factorization,
    }
    ok = runners[args.law](args.max_len)
    print("ALL PASS" if ok else "FAILURES FOUND")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_primitives(args: argparse.Namespace) -> int:
    if args.n > args.grade_cap:
        raise ResourceLimitError(
            f"grade {args.n} exceeds the cap {args.grade_cap}; raise --grade-cap explicitly"
        )
    basis = primitive_space(args.n, max_grade=args.grade_cap)
    print(basis.text())
    return EXIT_OK


def _cmd_egf_check(args: argparse.Namespace) -> int:
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

    p = sub.add_parser("coproduct", help="selection/quotient coproduct of a packed word")
    p.add_argument("word")
    p.add_argument("--max-len", type=int, default=COPRODUCT_LEN_CAP, help="length cap (default %(default)s)")
    p.set_defaults(func=_cmd_coproduct)

    p = sub.add_parser("antipode", help="antipode of a packed word")
    p.add_argument("word")
    p.add_argument("--max-len", type=int, default=COPRODUCT_LEN_CAP, help="length cap (default %(default)s)")
    p.set_defaults(func=_cmd_antipode)

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
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (WordSyntaxError, NotPackedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
