"""Workload definitions, output digests and correctness checks.

A workload is one job: a fixed list of `packedwords` CLI calls, each given
as its argv.  Every call's stdout is hashed as it streams and compared with
a digest pinned at the commit that defined the benchmark (pins.json) or,
for long-words inputs that no pin covers, with the independent reference in
reference.py.  Structural checks (line counts, headers, verdict lines)
ride along, so a mismatch is explained and not only detected.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import reference

try:
    # CPython's own SHA-256: hashlib would load OpenSSL, and the runner's RSS
    # is the floor of every child's ru_maxrss (see run.spawn)
    from _sha256 import sha256
except ImportError:  # pragma: no cover - other interpreters
    from hashlib import sha256

HERE = Path(__file__).resolve().parent
PINS_FILE = HERE / "pins.json"

# the call whose wall time is setup_s: interpreter start, package import,
# parser build and one trivial verb
SETUP_ARGV = ["product", "1", "1"]

# why each workload exists, and which layer it loads, is recorded in
# BENCHMARK.json; the job sizes below are the ones that make each layer
# dominate its workload (see the per-layer trace)
FIXED_JOBS = {
    "laws": [
        ["verify", "bialgebra", "--max-len", "3"],
        ["verify", "coassoc", "--max-len", "5"],
        ["verify", "antipode", "--max-len", "5"],
    ],
    "primitives": [
        ["primitives", "--n", "5", "--grade-cap", "5"],
    ],
    "enumerate": [
        ["enumerate", "7"],
        ["enumerate", "7", "--irreducible"],
        ["table", "in", "--max-n", "100"],
        ["verify", "factorization", "--max-len", "7"],
    ],
}
WORKLOADS = ("laws", "long-words", "primitives", "enumerate")

# long-words: (verb, word length, calls, target cost per call).  The cost of
# a word is the reference's measure of the work it forces: term products in
# the antipode recursion, or terms in the coproduct.  Words are drawn as
# pack of uniformly random letters in 0..length, and a draw is kept only if
# the running cost stays within a quarter of one call's target of
# (calls so far) x target.  So on every seed the antipodes do the same work
# within 1.25% and the coproducts within 6%, while the words change with the
# seed, and the spread between runs stays that of the host, not the inputs.
LONG_WORDS = (("antipode", 8, 20, 20000), ("coproduct", 12, 4, 2800))
LONG_WORDS_SLACK = 0.25


def random_packed(rng: random.Random, n: int) -> tuple:
    """pack of n uniformly random letters in 0..n."""
    return reference.pack(tuple(rng.randint(0, n) for _ in range(n)))


def long_words(seed: int) -> "tuple[list, dict]":
    """The long-words job for a seed, with the reference's expected outputs."""
    rng = random.Random(seed)
    calls, expected = [], {}
    for verb, length, count, target in LONG_WORDS:
        spent = 0
        for i in range(1, count + 1):
            while True:
                w = random_packed(rng, length)
                if verb == "antipode":
                    work = [0]
                    terms = reference.antipode(w, {}, work)
                    cost = work[0]
                else:
                    terms = reference.coproduct(w)
                    cost = len(terms)
                if abs(spent + cost - i * target) <= LONG_WORDS_SLACK * target:
                    break
            spent += cost
            out = reference.render_sum(terms) if verb == "antipode" else reference.render_tensor(terms)
            argv = [verb, reference.word_text(w)]
            calls.append(argv)
            expected[" ".join(argv)] = {"sha256": sha256(out).hexdigest(), "exit": 0}
    return calls, expected


class Digest:
    """Streaming SHA-256 of a call's stdout, with the few facts the
    structural checks need; never holds the whole output."""

    KEEP = 256

    def __init__(self) -> None:
        self._sha = sha256()
        self.bytes = 0
        self.lines = 0
        self._head = b""
        self._tail = b""

    def update(self, chunk: bytes) -> None:
        self._sha.update(chunk)
        self.bytes += len(chunk)
        self.lines += chunk.count(b"\n")
        if len(self._head) < self.KEEP:
            self._head += chunk[: self.KEEP]
        self._tail = (self._tail + chunk)[-self.KEEP :]

    def hexdigest(self) -> str:
        return self._sha.hexdigest()

    def first_line(self) -> str:
        return self._head.split(b"\n", 1)[0].decode(errors="replace")

    def last_line(self) -> str:
        return self._tail.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode(errors="replace")

    def observed(self, exit_code: int) -> dict:
        return {
            "sha256": self.hexdigest(),
            "exit": exit_code,
            "bytes": self.bytes,
            "lines": self.lines,
            "first": self.first_line(),
            "last": self.last_line(),
        }


def load_pins() -> dict:
    with open(PINS_FILE) as fh:
        return json.load(fh)


def _structure_error(argv: list, obs: dict) -> "str | None":
    verb = argv[0]
    if argv == ["enumerate", "7"] and obs["lines"] != 94586:
        return f"expected 94586 lines, got {obs['lines']}"
    if verb == "primitives" and obs["first"] != "grade=5 dim=607":
        return f"expected first line 'grade=5 dim=607', got {obs['first']!r}"
    if verb == "verify" and obs["last"] != "ALL PASS":
        return f"expected last line 'ALL PASS', got {obs['last']!r}"
    return None


class Checker:
    """Decides whether one observed call is correct.

    Pinned digests come first; long-words calls that no pin covers are
    checked against the reference's outputs, passed in as `computed`.  A
    call must exit as expected, pass the structural checks and match the
    digest, and the first of these it fails is the reason given.
    """

    def __init__(self, pins: dict, computed: "dict | None" = None) -> None:
        self._pins = pins["calls"]
        self._computed = computed or {}

    def expected(self, argv: list) -> "dict | None":
        key = " ".join(argv)
        return self._pins.get(key) or self._computed.get(key)

    def error(self, argv: list, obs: dict) -> "str | None":
        """None when the call is correct, else why it is not."""
        if obs.get("timeout"):
            return "timed out"
        want = self.expected(argv)
        if want is None:
            return "no pinned or reference output for this call"
        if obs["exit"] != want["exit"]:
            return f"exit code {obs['exit']}, expected {want['exit']}"
        # the structural checks come first: where one fails it says more
        # than a digest mismatch would
        why = _structure_error(argv, obs)
        if why is None and obs["sha256"] != want["sha256"]:
            why = f"stdout digest {obs['sha256'][:16]}… does not match {want['sha256'][:16]}…"
        return why


if __name__ == "__main__":
    # the long-words job is built in its own process, so that the reference's
    # memory never counts in the runner's RSS, which its children inherit
    calls, expected = long_words(int(sys.argv[1]))
    print(json.dumps({"job": calls, "expected": expected}))
