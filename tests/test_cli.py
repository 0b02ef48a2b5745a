import os
import subprocess
import sys
from pathlib import Path

import pytest

from packedwords import count_packed, count_packed_total, enumerate_packed, parse_word
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
        code, out, _ = run(capsys, "primitives", "--n", "5", "--grade-cap", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "grade=5 dim=607"
        assert len(lines) == 608


class TestEgfCheckVerb:
    def test_reports_matches(self, capsys):
        code, out, _ = run(capsys, "egf-check", "--max-n", "6")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert lines[5] == "n=5\t1082\tmatch"
        assert all(line.endswith("match") for line in lines)


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
