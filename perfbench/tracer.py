"""Run one job in-process, with or without spans at the layer boundaries.

    python3 perfbench/tracer.py --trace {0,1} --job '[["verify", "coassoc", "--max-len", "5"], ...]'

Each call goes through `packedwords.cli.main` in this process, with stdout
captured into a streaming digest.  With `--trace 1` the public functions are
wrapped where the calling module looks them up (never private helpers, and
never per-letter helpers such as `shifted_concat`, whose call counts would
swamp the run), so each wrapped call becomes a span.  Spans are aggregated
in memory by (name, parent name) and written once, as one JSON object on
stdout, when the job ends.  `_pack_letters` is cleared before every call so
that the in-process job sees the same cache state as fresh processes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import Digest  # noqa: E402


class Tracer:
    """Aggregated spans: {(name, parent name): [calls, total s, self s]}."""

    def __init__(self) -> None:
        self.spans: dict = {}
        self.counts: Counter = Counter()
        self._stack: list = []

    def wrap(self, name: str, fn, count=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                rec = spans.setdefault((name, parent[0] if parent else None), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def total(self, name: str, field: int, parent: "str | None" = None) -> float:
        """Sum one field over the spans of a name, or of a name under a parent."""
        return sum(rec[field] for (n, p), rec in self.spans.items() if n == name and parent in (None, p))


def _splits(x) -> int:
    terms = x.terms if hasattr(x, "terms") else (x,)
    return sum(1 << len(w) for w in terms)


def _count_coproduct(counts, args, result):
    counts["coalgebra.coproduct.splits"] += _splits(args[0])
    counts["coalgebra.coproduct.terms_out"] += len(result)


def _count_terms(metric):
    def count(counts, args, result):
        counts[metric] += len(result)

    return count


def _count_matrix(counts, args, matrix):
    counts["primitives.matrix.rows"] += matrix.n_rows
    counts["primitives.matrix.cols"] += matrix.n_cols
    counts["primitives.matrix.nnz"] += sum(len(r) for r in matrix.rows)


def _count_kernel(counts, args, basis):
    counts["primitives.kernel.dim"] += len(basis)
    counts["primitives.kernel.nnz"] += sum(1 for vec in basis for c in vec if c)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI reaches."""
    import packedwords.cli as cli
    import packedwords.coalgebra as coalgebra
    import packedwords.primitives as primitives

    boundaries = [
        (cli, "antipode", "coalgebra.antipode", _count_terms("coalgebra.antipode.terms_out")),
        (cli, "coproduct", "coalgebra.coproduct", _count_coproduct),
        (cli, "verify_coassociativity", "coalgebra.verify", None),
        (cli, "verify_bialgebra", "coalgebra.verify", None),
        (cli, "verify_antipode", "coalgebra.verify", None),
        (cli, "factor_irreducible", "algebra.factor", None),
        (cli, "is_irreducible", "algebra.factor", None),
        (cli, "enumerate_packed", "enumeration.enumerate", _count_terms("enumeration.enumerate.words")),
        (cli, "count_irreducible", "enumeration.count", None),
        (cli, "count_packed", "enumeration.count", None),
        (cli, "count_packed_total", "enumeration.count", None),
        (cli, "egf_check", "enumeration.count", None),
        (cli, "primitive_space", "primitives.primitive_space", None),
        (coalgebra, "product", "algebra.product", _count_terms("algebra.product.terms_out")),
        (primitives, "delta_plus_matrix", "primitives.assemble", _count_matrix),
        (primitives, "enumerate_packed", "enumeration.enumerate", _count_terms("enumeration.enumerate.words")),
        (primitives, "reduced_coproduct", "coalgebra.coproduct", _count_coproduct),
        (primitives, "coproduct", "coalgebra.coproduct", _count_coproduct),
        (primitives.RationalMatrix, "nullspace", "primitives.eliminate", _count_kernel),
    ]
    for owner, attr, name, count in boundaries:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))


def layer_metrics(tracer: Tracer, pack_hits: int, pack_misses: int, stdout_bytes: int) -> dict:
    """Every per-layer metric of BENCHMARK.json except trace.overhead_ratio."""

    def calls(name: str) -> int:
        return int(tracer.total(name, 0))

    def self_s(name: str) -> float:
        return tracer.total(name, 2)

    lookups = pack_hits + pack_misses
    out = {
        "words.pack_cache.misses": pack_misses,
        "words.pack_cache.hit_ratio": pack_hits / lookups if lookups else 0.0,
        "algebra.product.calls": calls("algebra.product"),
        "algebra.product.self_s": self_s("algebra.product"),
        "algebra.factor.calls": calls("algebra.factor"),
        "algebra.factor.self_s": self_s("algebra.factor"),
        "coalgebra.coproduct.calls": calls("coalgebra.coproduct"),
        "coalgebra.coproduct.self_s": self_s("coalgebra.coproduct"),
        "coalgebra.antipode.calls": calls("coalgebra.antipode"),
        "coalgebra.antipode.self_s": self_s("coalgebra.antipode"),
        "coalgebra.verify.calls": calls("coalgebra.verify"),
        "coalgebra.verify.self_s": self_s("coalgebra.verify"),
        "enumeration.enumerate.self_s": self_s("enumeration.enumerate"),
        "enumeration.count.self_s": self_s("enumeration.count"),
        "primitives.assemble.self_s": self_s("primitives.assemble"),
        "primitives.eliminate.self_s": self_s("primitives.eliminate"),
        # the re-check is every coproduct primitive_space itself calls
        "primitives.recheck.self_s": tracer.total("coalgebra.coproduct", 1, "primitives.primitive_space"),
        "cli.self_s": self_s("cli"),
        "cli.stdout_bytes": stdout_bytes,
    }
    for name in (
        "algebra.product.terms_out",
        "coalgebra.coproduct.splits",
        "coalgebra.coproduct.terms_out",
        "coalgebra.antipode.terms_out",
        "enumeration.enumerate.words",
        "primitives.matrix.rows",
        "primitives.matrix.cols",
        "primitives.matrix.nnz",
        "primitives.kernel.dim",
        "primitives.kernel.nnz",
    ):
        out[name] = tracer.counts[name]
    return out


class _Capture:
    """Text stream that feeds a Digest; stands in for sys.stdout."""

    def __init__(self, digest: Digest) -> None:
        self._digest = digest

    def write(self, text: str) -> int:
        self._digest.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def run_job(job: list, traced: bool) -> dict:
    import packedwords.cli as cli
    from packedwords.words import _pack_letters

    tracer = Tracer()
    main = cli.main
    if traced:
        install(tracer)
        main = tracer.wrap("cli", main)
    calls = []
    hits = misses = stdout_bytes = 0
    real_stdout = sys.stdout
    for argv in job:
        _pack_letters.cache_clear()
        digest = Digest()
        sys.stdout = _Capture(digest)
        start = time.perf_counter()
        try:
            code = main(list(argv))
        finally:
            seconds = time.perf_counter() - start
            sys.stdout = real_stdout
        info = _pack_letters.cache_info()
        hits += info.hits
        misses += info.misses
        stdout_bytes += digest.bytes
        calls.append(dict(digest.observed(code), argv=argv, seconds=seconds))
    result = {"calls": calls, "seconds": sum(c["seconds"] for c in calls)}
    if traced:
        result["layers"] = layer_metrics(tracer, hits, misses, stdout_bytes)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--job", required=True, help="JSON list of argv lists")
    args = parser.parse_args()
    print(json.dumps(run_job(json.loads(args.job), bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
