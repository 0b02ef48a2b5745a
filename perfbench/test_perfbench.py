"""Checks of the benchmark itself:  python -m pytest perfbench -q"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

import reference
import run
from workloads import FIXED_JOBS, SETUP_ARGV, Checker, long_words, load_pins

PY = sys.executable


def _python(code: str, *flags: str) -> str:
    done = subprocess.run([PY, *flags, "-c", code], cwd=run.HERE, capture_output=True, text=True, check=True, timeout=120)
    return done.stdout.strip()


def test_setup_process_peak_rss_is_a_fresh_interpreters():
    # the runner's view (wait4 rusage) against the child's own high-water
    # mark, which starts afresh at exec whatever the parent holds
    runner_view = float(_python(
        "import run; print(run.spawn(%r, run.Deadline(60))['peak_rss_mb'])" % (SETUP_ARGV,), "-S"
    ))
    own = _python(
        "import io, sys; sys.path.insert(0, %r); import packedwords.cli as c;"
        "sys.stdout = io.StringIO(); c.main(%r); sys.stdout = sys.__stdout__;"
        "print([l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')][0])"
        % (str(run.ROOT / "src"), SETUP_ARGV)
    )
    fresh = int(own) / 1024
    assert abs(runner_view - fresh) <= max(2.0, 0.1 * fresh), (runner_view, fresh)


def test_a_large_spawner_would_inflate_child_peak_rss():
    # the effect the runner guards against: a child's ru_maxrss starts from
    # the spawning process's RSS
    inflated = float(_python(
        "import run; ballast = bytearray(64 << 20);"
        "print(run.spawn(%r, run.Deadline(60))['peak_rss_mb'])" % (SETUP_ARGV,), "-S"
    ))
    assert inflated > 64


def test_reference_agrees_with_every_pinned_long_words_call():
    pins = load_pins()["calls"]
    checked = 0
    for key, pin in pins.items():
        argv = key.split(" ")
        if argv[0] in ("coproduct", "antipode"):
            assert hashlib.sha256(reference.expected_stdout(argv)).hexdigest() == pin["sha256"], key
            checked += 1
    assert checked == 48


def test_every_default_and_held_out_call_is_pinned():
    pins = load_pins()
    calls = [SETUP_ARGV] + [argv for jobs in FIXED_JOBS.values() for argv in jobs]
    for seed in pins["seeds"].values():
        calls += long_words(seed)[0]
    assert {" ".join(argv) for argv in calls} == set(pins["calls"])


def test_long_words_inputs_follow_the_seed_at_a_fixed_cost():
    (a, expected), (b, _) = long_words(7), long_words(8)
    assert a == long_words(7)[0] and a != b
    assert [len(argv[1].split(",")) for argv in a] == [8] * 20 + [12] * 4
    work = 0
    for argv in a:
        letters = tuple(int(i) for i in argv[1].split(","))
        assert reference.pack(letters) == letters
        if argv[0] == "antipode":
            counter = [0]
            reference.antipode(letters, {}, counter)
            work += counter[0]
    assert abs(work - 20 * 20000) <= 0.25 * 20000
    assert set(expected) == {" ".join(argv) for argv in a}


@pytest.mark.parametrize(
    "argv, change, error",
    [
        (["enumerate", "7"], {}, None),
        (["enumerate", "7"], {"sha256": "0" * 64}, "digest"),
        (["enumerate", "7"], {"exit": 1}, "exit code"),
        (["enumerate", "7"], {"lines": 94585}, "94586 lines"),
        (["enumerate", "7"], {"sha256": "0" * 64, "lines": 94585}, "94586 lines"),
        (["primitives", "--n", "5", "--grade-cap", "5"], {"sha256": "0" * 64, "first": "grade=5 dim=606"}, "dim=607"),
        (["primitives", "--n", "5", "--grade-cap", "5"], {"first": "grade=5 dim=606"}, "dim=607"),
        (["verify", "coassoc", "--max-len", "5"], {"last": "FAILURES FOUND"}, "ALL PASS"),
        (["enumerate", "7"], {"timeout": True}, "timed out"),
        (["enumerate", "8"], {}, "no pinned"),
    ],
)
def test_checker(argv, change, error):
    pins = load_pins()
    pin = pins["calls"].get(" ".join(argv), {"sha256": "", "exit": 0, "lines": 0})
    obs = {"sha256": pin["sha256"], "exit": pin["exit"], "lines": pin["lines"],
           "first": "grade=5 dim=607", "last": "ALL PASS", **change}
    why = Checker(pins).error(argv, obs)
    assert (why is None) if error is None else (error in why), why


def test_checker_uses_the_reference_for_unpinned_words():
    out = reference.expected_stdout(["coproduct", "1,1"])
    assert out == b"1*e (x) 1,1 + 2*1 (x) 0 + 1*1,1 (x) e\n"
    assert reference.expected_stdout(["antipode", "1,1"]) == b"2*1,0 + -1*1,1\n"
    good = {"sha256": hashlib.sha256(out).hexdigest(), "exit": 0, "lines": 1, "first": "", "last": ""}
    checker = Checker(load_pins(), {"coproduct 1,1": {"sha256": good["sha256"], "exit": 0}})
    assert checker.error(["coproduct", "1,1"], good) is None
    assert checker.error(["coproduct", "1,2"], good) is not None


def test_traced_counts_repeat_and_outputs_match_untraced():
    calls = json.dumps([["antipode", "1,2,1"], ["primitives", "--n", "3", "--grade-cap", "3"],
                        ["enumerate", "4", "--irreducible"], ["verify", "bialgebra", "--max-len", "2"]])
    outs = [
        json.loads(_python(f"import sys, tracer; sys.argv = ['tracer', '--trace', '{t}', '--job', {calls!r}]; tracer.main()"))
        for t in (1, 1, 0)
    ]
    digests = [[c["sha256"] for c in o["calls"]] for o in outs]
    assert digests[0] == digests[1] == digests[2]
    counts = [
        {k: v for k, v in o["layers"].items() if k.rsplit(".", 1)[-1] in run.TRACE_COUNTS} for o in outs[:2]
    ]
    assert counts[0] == counts[1]
    layers = outs[0]["layers"]
    assert layers["primitives.matrix.cols"] == 26  # d_3
    assert layers["primitives.kernel.dim"] == int(outs[0]["calls"][1]["first"].split("dim=")[1])
    assert layers["coalgebra.antipode.calls"] == 1
    assert layers["coalgebra.verify.calls"] == (1 + 2 + 6) ** 2  # pairs of words of length <= 2
    assert layers["cli.stdout_bytes"] == sum(o["bytes"] for o in outs[0]["calls"])


def _report(values: dict, runs=None, workload="laws") -> dict:
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = run._quartiles(vals)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "values": vals}
    runs = runs or [{"correct": True, "failed": 0, "seed": 1}]
    return {"workloads": {workload: {"summary": summary, "runs": runs}}}


def _compare(old: dict, new: dict, capsys) -> "tuple[int, list]":
    run.RESULTS.mkdir(exist_ok=True)
    paths = []
    for name, report in (("old", old), ("new", new)):
        path = run.RESULTS / f"compare-test-{name}.json"
        path.write_text(json.dumps(report))
        paths.append(str(path))
    status = run.main(["compare", *paths])
    return status, [l for l in capsys.readouterr().out.splitlines() if l.startswith("laws")]


@pytest.mark.parametrize(
    "old, new, verdict",
    [
        ([10.0, 10.1, 10.2, 10.1], [10.1, 10.2, 10.1, 10.0], "ok"),
        ([10.0, 10.1, 10.2, 10.1], [14.0, 14.1, 14.2, 14.1], "regressed"),
        ([8.0, 10.0, 12.0, 14.0], [8.5, 10.5, 12.5, 14.5], "unresolved"),
        ([10.0, 12.0, 14.0, 16.0], [5.0, 6.0, 7.0, 8.0], "ok"),
    ],
)
def test_compare_verdicts(old, new, verdict, capsys):
    status, lines = _compare(_report({"wall_s": old}), _report({"wall_s": new}), capsys)
    assert lines[0].endswith(verdict)
    assert status == (1 if verdict == "regressed" else 0)


def test_compare_shows_raw_medians_beside_scaled_ones(capsys):
    old = _report({"wall_s": [10.0, 10.0, 10.0], "wall_s.raw": [12.0, 12.0, 12.0]})
    new = _report({"wall_s": [9.0, 9.0, 9.0], "wall_s.raw": [12.0, 12.0, 12.0]})
    status, lines = _compare(old, new, capsys)
    assert status == 0
    assert lines[0].split() == ["laws", "wall_s", "10", "9", "+10.0%", "0.25", "12", "12", "+0.0%", "ok"]


@pytest.mark.parametrize(
    "runs",
    [
        [{"correct": True, "failed": 0, "seed": 1}, {"correct": False, "failed": 1, "seed": 2}],
        [{"correct": True, "failed": 0, "seed": 1}, {"correct": False, "attempted": 0, "failed": 0, "seed": 2}],
    ],
)
def test_compare_fails_when_a_new_run_is_incorrect(runs, capsys):
    vals = [10.0, 10.1, 10.2]
    status, lines = _compare(_report({"wall_s": vals}), _report({"wall_s": vals}, runs), capsys)
    assert status == 1
    assert lines[0].endswith("incorrect")
    assert "seeds [2]" in lines[-1]


def test_compare_fails_when_new_lacks_a_workload_or_metric(capsys):
    vals = [10.0, 10.1, 10.2]
    old = _report({"wall_s": vals, "cpu_s": vals})
    status, lines = _compare(old, _report({"wall_s": vals}), capsys)
    assert status == 1
    assert [l.split()[-1] for l in lines] == ["ok", "missing"]
    status, lines = _compare(old, _report({"wall_s": vals}, workload="enumerate"), capsys)
    assert status == 1
    assert lines[0].split() == ["laws", "missing"]


def test_runner_and_child_trade_cpus_and_never_share_one():
    if len(run.CPUS) < 2:
        pytest.skip("needs two CPUs")
    # the child notes every CPU set it is given during half a second
    watch = ("import json, os, time\nseen = set()\nend = time.time() + 0.5\n"
             "while time.time() < end: seen.add(tuple(sorted(os.sched_getaffinity(0))))\nprint(json.dumps(sorted(seen)))")
    out = _python(
        "import os, run, sys; out = bytearray();"
        f"ran = run.run_child([sys.executable, '-c', {watch!r}], run.Deadline(60), out.extend);"
        "print(out.decode().strip()); print(len(os.sched_getaffinity(0)), ran['unscalable'], ran['scale'] != 1.0)",
        "-S",
    )
    seen, after = out.splitlines()
    seen = json.loads(seen)
    assert len(seen) > 1  # the places were traded
    assert all(len(cpus) == len(run.CPUS) - 1 for cpus in seen)  # one CPU always left to the runner
    assert after == "1 False True"


def test_a_child_busy_on_two_cpus_is_not_scaled():
    if len(run.CPUS) < 2:
        pytest.skip("needs two CPUs")
    # the child takes back every CPU and keeps two of them busy
    spin = [PY, "-c", "for _ in range(2 * 10**7): pass"]
    ran = run.run_child(
        [PY, "-c", f"import os, subprocess; os.sched_setaffinity(0, {run.CPUS});"
         f"ps = [subprocess.Popen({spin}) for _ in range(2)]; [p.wait() for p in ps]"],
        run.Deadline(60), lambda chunk: None,
    )
    assert ran["cpu_s"] > ran["wall_s"] and ran["unscalable"]
    assert ran["scale"] == 1.0 and ran["own_s"] == ran["wall_s"]


def test_time_a_child_spends_blocked_counts_as_its_own():
    ran = run.run_child([PY, "-c", "import time; time.sleep(0.5)"], run.Deadline(60), lambda chunk: None)
    assert ran["cpu_s"] < 0.25 < ran["own_s"] <= ran["wall_s"]


def test_refuses_to_run_without_the_program():
    bare = run.RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.BENCHMARK_FILE, bare)
    done = subprocess.run(
        [PY, "perfbench/run.py", "--workload", "laws", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
