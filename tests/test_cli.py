import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import packedwords.coalgebra as coalgebra
from oracles import CORRUPTED_WORDS, DELTA_FAULTS, corrupted_delta
from packedwords import algebra, cli, count_packed, count_packed_total, enumerate_packed, is_irreducible, parse_word
from packedwords.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestWordVerbs:
    def test_product(self, capsys):
        code, out, _ = run(capsys, "product", "1,1", "1")
        assert code == 0
        assert out == "1,1,2\n"

    def test_factor_irreducible_word(self, capsys):
        code, out, _ = run(capsys, "factor", "1,1,1")
        assert code == 0
        assert out == "1,1,1\n"

    def test_factor_reducible_word(self, capsys):
        code, out, _ = run(capsys, "factor", "1,1,2")
        assert code == 0
        assert out == "1,1 * 1\n"

    def test_coproduct_unit(self, capsys):
        code, out, _ = run(capsys, "coproduct", "e")
        assert code == 0
        assert out == "1*e (x) e\n"

    def test_coproduct_golden(self, capsys):
        code, out, _ = run(capsys, "coproduct", "1,1")
        assert code == 0
        assert out == "1*e (x) 1,1 + 2*1 (x) 0 + 1*1,1 (x) e\n"

    def test_antipode(self, capsys):
        code, out, _ = run(capsys, "antipode", "1,1")
        assert code == 0
        assert out == "2*1,0 + -1*1,1\n"


class TestEnumerate:
    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == count_packed_total(3)
        assert [parse_word(s) for s in lines] == enumerate_packed(3)

    def test_sup_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "4", "--sup", "2")
        assert code == 0
        assert len(out.splitlines()) == count_packed(4, 2)

    def test_irreducible_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2", "--irreducible")
        assert code == 0
        assert out.splitlines() == ["1,1", "2,1"]

    @pytest.mark.parametrize("n", range(7))
    def test_stream_matches_the_word_lists(self, capsys, n):
        # the streamed output, line for line, against the filters on the
        # list of Words
        words = enumerate_packed(n)
        expected = {(): [w.text() for w in words]}
        expected[("--irreducible",)] = [w.text() for w in words if len(w) and is_irreducible(w)]
        for k in range(n + 1):
            expected[("--sup", str(k))] = [w.text() for w in words if w.sup == k]
        for flags, lines in expected.items():
            code, out, _ = run(capsys, "enumerate", str(n), *flags)
            assert code == 0
            assert out == "".join(line + "\n" for line in lines), flags

    def test_streams_in_bounded_memory(self, monkeypatch):
        # the 94 586 words of length 7 are never held at once: a list of
        # them as Words took about 13 MB
        class Discard:
            def write(self, text):
                return len(text)

        monkeypatch.setattr(sys, "stdout", Discard())
        tracemalloc.start()
        try:
            assert main(["enumerate", "7"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestTables:
    def test_dnk_layout(self, capsys):
        code, out, _ = run(capsys, "table", "dnk", "--max-n", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t") == ["n\\k"] + [str(k) for k in range(9)]
        row4 = lines[5].split("\t")
        assert row4 == ["4", "1", "15", "50", "60", "24", "0", "0", "0", "0"]

    def test_dn_last_column(self, capsys):
        code, out, _ = run(capsys, "table", "dn", "--max-n", "10")
        assert code == 0
        header, data = out.splitlines()
        assert data.split("\t")[0] == "d_n"
        assert data.split("\t")[-1] == "204495126"

    def test_in_includes_length_zero_convention(self, capsys):
        code, out, _ = run(capsys, "table", "in", "--max-n", "4")
        assert code == 0
        _, data = out.splitlines()
        assert data.split("\t") == ["i_n", "1", "2", "2", "10", "66"]


class TestVerify:
    @pytest.mark.parametrize(
        "law,bound",
        [("coassoc", "3"), ("antipode", "3"), ("factorization", "4"), ("bialgebra", "2")],
    )
    def test_laws_pass(self, capsys, law, bound):
        code, out, _ = run(capsys, "verify", law, "--max-len", bound)
        assert code == 0
        assert out.splitlines()[-1] == "ALL PASS"
        assert all(line.startswith("PASS") for line in out.splitlines()[:-1])


def _fault_on(real, letters, wrong):
    # `real` everywhere except where its first argument has these letters
    def faulty(*args):
        arg = getattr(args[0], "letters", args[0])
        return wrong(real, *args) if arg == letters else real(*args)

    return faulty


class TestPinnedOutput:
    """Calls whose stdout digest and exit code the benchmark pins in
    perfbench/pins.json replay byte for byte in-process."""

    PINS = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"

    @pytest.mark.parametrize(
        "call",
        ["product 1 1", "table in --max-n 100", "enumerate 7 --irreducible", "verify factorization --max-len 7"],
    )
    def test_output_matches_its_pin(self, capsys, call):
        pin = json.loads(self.PINS.read_text())["calls"][call]
        code, out, _ = run(capsys, *call.split())
        assert (hashlib.sha256(out.encode()).hexdigest(), code) == (pin["sha256"], pin["exit"])

    def test_factorization_up_to_length_zero_checks_nothing(self, capsys):
        assert run(capsys, "verify", "factorization", "--max-len", "0") == (0, "ALL PASS\n", "")


class TestFactorizationFaults:
    """Each check of `verify factorization` catches a fault on one input."""

    @pytest.mark.parametrize(
        "owners,name,letters,wrong,max_len,first_fail",
        [
            # spurious cut 1,2,1 = 1 * 1,0: the round trip gives 1,2,0
            ((algebra,), "_cuts", (1, 2, 1), lambda real, ls: [1], 4, "length=3: 1,2,1"),
            # spurious cut 1,2,1 = 1,2 * (-1): the round trip holds, but the
            # factor 1,2 is reducible
            ((algebra,), "_cuts", (1, 2, 1), lambda real, ls: [2], 4, "length=3: 1,2,1"),
            # a split piece 2 is not shifted down: 1,2 = 1 * 2 rebuilds as 1,3
            ((algebra,), "_lift", (2,), lambda real, ls, t: ls if t < 0 else real(ls, t), 4, "length=2: 1,2"),
            # the cut of 1,1,2 = 1,1 * 1 missed wherever _cuts is asked: the
            # word is its own factor and has no cut, but one word too many of
            # length 3 has a single factor
            (
                (algebra, cli),
                "_cuts",
                (1, 1, 2),
                lambda real, ls: [],
                3,
                "length=3: 11 irreducible of 26 words, expected 10 of 26",
            ),
            # spurious cut 2,1 = 2 * (-1) wherever _cuts is asked: the round
            # trip holds, but neither factor is a packed word
            ((algebra, cli), "_cuts", (2, 1), lambda real, ls: [1], 2, "length=2: 2,1"),
            # the early return for a word without cut taken for 1,2, which
            # has one: only the count notices
            (
                (algebra,),
                "_factors",
                (1, 2),
                lambda real, ls: [ls],
                4,
                "length=2: 3 irreducible of 6 words, expected 2 of 6",
            ),
        ],
        ids=[
            "spurious-cut-round-trip",
            "spurious-cut-reducible-factor",
            "wrong-shift-down",
            "missed-cut-everywhere",
            "spurious-cut-everywhere",
            "one-cut-early-return",
        ],
    )
    def test_fault_fails_the_law(self, capsys, monkeypatch, owners, name, letters, wrong, max_len, first_fail):
        for owner in owners:
            monkeypatch.setattr(owner, name, _fault_on(getattr(owner, name), letters, wrong))
        code, out, _ = run(capsys, "verify", "factorization", "--max-len", str(max_len))
        lines = out.splitlines()
        assert code == 1
        assert [line for line in lines if line.startswith("FAIL")][0] == f"FAIL factorization {first_fail}"
        assert lines[-1] == "FAILURES FOUND"

    @pytest.mark.parametrize(
        "stream,first_fail",
        [
            # 0,1 twice in place of 1,0: both counts still hold
            ("0,0 0,1 0,1 1,1 1,2 2,1", "length=2: 0,1"),
            # 1,3 in place of 1,2: not a packed word
            ("0,0 0,1 1,0 1,1 1,3 2,1", "length=2: 1,3"),
            # 2,2 in place of 1,1, last to keep the order: it has no cut, so
            # both counts still hold, and only the packedness check notices
            ("0,0 0,1 1,0 1,2 2,1 2,2", "length=2: 2,2"),
        ],
        ids=["duplicate-word", "unpacked-word", "unpacked-single-factor"],
    )
    def test_faulty_stream_fails_the_law(self, capsys, monkeypatch, stream, first_fail):
        real = cli._packed_letters
        faulty = [parse_word(text).letters for text in stream.split()]
        monkeypatch.setattr(cli, "_packed_letters", lambda n: iter(faulty) if n == 2 else real(n))
        code, out, _ = run(capsys, "verify", "factorization", "--max-len", "3")
        lines = out.splitlines()
        assert code == 1
        assert [line for line in lines if line.startswith("FAIL ")] == [f"FAIL factorization {first_fail}"]
        assert lines[-1] == "FAILURES FOUND"


def _first_failures(law, max_len):
    # the FAIL lines of `verify law --max-len max_len`, found by calling its
    # verifier on one word or pair at a time, outside any sweep
    assert getattr(coalgebra._SWEEP, "memos", None) is None
    by_length = [enumerate_packed(n) for n in range(max_len + 1)]
    if law == "bialgebra":
        name = "bialgebra"
        holds = lambda uv: coalgebra.verify_bialgebra(*uv)  # noqa: E731
        show = lambda uv: f"u={uv[0].text()} v={uv[1].text()}"  # noqa: E731
        groups = [
            (f"|u|={a} |v|={b}", [(u, v) for u in us for v in vs])
            for a, us in enumerate(by_length)
            for b, vs in enumerate(by_length)
        ]
    else:
        name, holds = {
            "coassoc": ("coassociativity", coalgebra.verify_coassociativity),
            "antipode": ("antipode", coalgebra.verify_antipode),
        }[law]
        show = lambda w: w.text()  # noqa: E731
        groups = [(f"length={n}", words) for n, words in enumerate(by_length)]
    lines = []
    for label, cases in groups:
        bad = next((case for case in cases if not holds(case)), None)
        if bad is not None:
            lines.append(f"FAIL {name} {label}: {show(bad)}")
    return lines


class TestVerifySweep:
    """The calls of one `verify` sweep share the coproducts and antipodes of
    shorter words; that must save work without hiding or moving a failure."""

    @pytest.mark.parametrize("law", ["coassoc", "antipode"])
    def test_no_word_reaches_the_kernel_more_than_twice(self, capsys, monkeypatch, law):
        seen = Counter()
        real = coalgebra._delta

        def counted(letters):
            seen[letters] += 1
            return real(letters)

        monkeypatch.setattr(coalgebra, "_delta", counted)
        code, _, _ = run(capsys, "verify", law, "--max-len", "4")
        assert code == 0
        assert len(seen) == sum(count_packed_total(n) for n in range(5))
        assert max(seen.values()) <= 2

    @pytest.mark.parametrize("law,max_len", [("coassoc", 4), ("antipode", 4), ("bialgebra", 3)])
    @pytest.mark.parametrize("fault", DELTA_FAULTS)
    @pytest.mark.parametrize("word", CORRUPTED_WORDS)
    def test_a_corrupted_coproduct_fails_as_word_by_word(self, capsys, monkeypatch, word, fault, law, max_len):
        monkeypatch.setattr(coalgebra, "_delta", corrupted_delta(coalgebra._delta, word, fault))
        expected = _first_failures(law, max_len)
        code, out, _ = run(capsys, "verify", law, "--max-len", str(max_len))
        assert code == 1
        assert expected
        assert [line for line in out.splitlines() if line.startswith("FAIL ")] == expected

    def test_the_sweep_closes_when_it_returns(self, capsys):
        code, _, _ = run(capsys, "verify", "antipode", "--max-len", "2")
        assert code == 0
        assert getattr(coalgebra._SWEEP, "memos", None) is None

    def test_the_sweep_closes_when_a_verifier_raises(self, monkeypatch):
        open_memos = []

        def broken(w):
            open_memos.append(getattr(coalgebra._SWEEP, "memos", None))
            raise RuntimeError("broken verifier")

        monkeypatch.setattr(cli, "verify_antipode", broken)
        with pytest.raises(RuntimeError):
            main(["verify", "antipode", "--max-len", "2"])
        assert open_memos and open_memos[0] is not None
        assert getattr(coalgebra._SWEEP, "memos", None) is None


class TestPrimitivesVerb:
    def test_grade_two_dump(self, capsys):
        code, out, _ = run(capsys, "primitives", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["grade=2 dim=2", "1*0,1 + -1*1,0", "1*1,2 + -1*2,1"]

    def test_grade_cap_refusal(self, capsys):
        code, _, err = run(capsys, "primitives", "--n", "6")
        assert code == 3
        assert "--grade-cap" in err

    def test_cap_can_be_raised(self, capsys):
        call = "primitives --n 5 --grade-cap 5"
        code, out, _ = run(capsys, *call.split())
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "grade=5 dim=607"
        assert len(lines) == 608
        # byte for byte as pinned, so grade 5 is run only once in the suite
        pin = json.loads(TestPinnedOutput.PINS.read_text())["calls"][call]
        assert (hashlib.sha256(out.encode()).hexdigest(), code) == (pin["sha256"], pin["exit"])


class TestEgfCheckVerb:
    def test_reports_matches(self, capsys):
        code, out, _ = run(capsys, "egf-check", "--max-n", "6")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert lines[5] == "n=5\t1082\tmatch"
        assert all(line.endswith("match") for line in lines)

    def test_length_zero(self, capsys):
        code, out, _ = run(capsys, "egf-check", "--max-n", "0")
        assert code == 0
        assert out == "n=0\t1\tmatch\n"


class TestErrors:
    def test_malformed_word_exits_2(self, capsys):
        code, _, err = run(capsys, "coproduct", "1,x")
        assert code == 2
        assert "bad letter index" in err

    def test_unpacked_word_exits_2(self, capsys):
        code, _, err = run(capsys, "factor", "3,5")
        assert code == 2
        assert "not packed" in err

    def test_factor_of_unit_exits_2(self, capsys):
        code, _, err = run(capsys, "factor", "e")
        assert code == 2

    def test_coproduct_length_cap_exits_3(self, capsys):
        code, _, err = run(capsys, "coproduct", ",".join(["1"] * 13))
        assert code == 3
        assert "--max-len" in err

    def test_cap_can_be_raised_explicitly(self, capsys):
        code, out, _ = run(capsys, "coproduct", "1,1,1,1,1,1,1,1,1,1,1,1,1", "--max-len", "13")
        assert code == 0
        assert out.count("(x)") > 0

    @pytest.mark.parametrize("law", ["coassoc", "bialgebra", "antipode", "factorization"])
    def test_verify_negative_max_len_exits_2(self, capsys, law):
        code, out, err = run(capsys, "verify", law, "--max-len", "-1")
        assert code == 2
        assert "--max-len" in err
        assert "ALL PASS" not in out

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["coproduct", "e", "--max-len", "-1"], "--max-len"),
            (["primitives", "--n", "1", "--grade-cap", "-1"], "--grade-cap"),
            (["enumerate", "3", "--sup", "-1"], "--sup"),
            (["egf-check", "--max-n", "-1"], "--max-n"),
        ],
        ids=["coproduct-max-len", "primitives-grade-cap", "enumerate-sup", "egf-check-max-n"],
    )
    def test_negative_bound_exits_2(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert flag in err
        assert out == ""

    def test_unknown_verb_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["factor", "1,1", "--wat"])
        assert exc.value.code == 2


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "antipode", "1,0,1")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_module_entry_point(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "packedwords", "product", "1,1", "1"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0
        assert proc.stdout == "1,1,2\n"
