"""End-to-end and per-layer benchmark of the packedwords CLI.

One run of one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload laws --seed 1 --seconds 25 --trace 0

runs the workload's job (a fixed list of `python -m packedwords ...` calls,
see workloads.py) in a closed loop, one client and one process at a time,
until --seconds is used up, and prints one JSON line with the end-to-end
metrics.  Every call's stdout is streamed into a SHA-256 digest and checked;
a wrong answer counts as a failed call and makes the run exit 1.  With
--trace 1 it instead runs the job in-process twice per round, once plain
and once with spans at the layer boundaries (tracer.py), and prints the
per-layer metrics.  Each run writes its samples, failures and the exact
argv of every call to perfbench/results/<workload>-seed<n>-trace<t>.json.

Times are reported as the job would take alone on an idle reference host.
The shared 2-core virtual machine this benchmark was built on changes speed
by up to 2x over tens of seconds, and other guests hold its CPUs for up to
a third of the time, so raw wall times of the same job spread by up to a
half between runs while CPU times spread by a tenth.  Two corrections:

- Off-CPU time.  A child's own time is its wall time less the time it sat
  runnable behind other tasks (Linux schedstat, read before the child is
  reaped) and the time the hypervisor held the CPUs (steal in /proc/stat).
  The steal is summed over all CPUs, so it is an upper bound; a child's
  own time is never taken below its CPU time.  For a single-threaded CLI
  that neither sleeps nor waits on I/O, own time is its CPU time; time it
  spends blocked still counts.
- Speed.  While a child runs, this process times a fixed slice of
  interpreter work every PROBE_EVERY_S seconds, and each time of the child
  is scaled by PROBE_REF_S / (mean probe time during it).  This process and
  the child never share a CPU: this process holds one and the child the
  others, and before each probe the two trade places, so that the probes
  sample every CPU the child runs on.  (The CPUs of that machine slow down
  unevenly: probe times kept on one CPU correlated 0.6 with a 3.5 s child's
  wall time, probe times that trade places 0.97.)  PROBE_REF_S only sets
  the unit: it scales every time of every run alike, so the ratio of two
  medians does not depend on it.

A child whose CPU time exceeds its wall time ran on several CPUs at once,
which neither correction can account for; its wall time is taken as it is
(`unscalable` in the results file).  With fewer than two CPUs nothing is
probed and no time is scaled.  The raw times are kept in the results files
and printed by `report` and `compare` as `*.raw`.

All workloads, several runs each, with a printed summary:

    python3 perfbench/run.py report --seed 1 --out perfbench/results/report.json

runs every workload REPORT_RUNS times untraced (seeds 1, 2, ...) and
REPORT_TRACE_RUNS times traced (seed 1), each for BENCHMARK.json's
run_seconds.

Two such reports, judged by each end-to-end metric's bound:

    python3 perfbench/run.py compare OLD.json NEW.json
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

from workloads import FIXED_JOBS, SETUP_ARGV, WORKLOADS, Checker, Digest, load_pins

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 11
REPORT_RUNS = 10
REPORT_TRACE_RUNS = 2
# one probe is PROBE_OPS dict updates, about 1 ms; PROBE_REF_S is its typical
# time on the reference box while a child runs.  Probing takes about 5% of
# the core the child does not use.
PROBE_OPS = 5000
PROBE_REF_S = 0.0009
PROBE_EVERY_S = 0.02
# this process runs on the first CPU it may use, its children on the rest
CPUS = sorted(os.sched_getaffinity(0))
# every run must end within 180 s, whatever --seconds says
RUN_DEADLINE_S = 170.0
TRACE_COUNTS = (
    "calls", "splits", "terms_out", "words", "rows", "cols", "nnz", "dim", "misses", "hit_ratio", "stdout_bytes",
)


def load_spec() -> dict:
    with open(BENCHMARK_FILE) as fh:
        return json.load(fh)


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
            commit = done.stdout.strip() or commit
        except FileNotFoundError:  # no git installed
            pass
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "commit": commit,
    }


def _child_env() -> dict:
    # children run as in a plain shell: stdout block-buffered into the pipe
    # and bytecode cached under src/, whatever the caller's environment says
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.at = time.perf_counter() + seconds

    def left(self) -> float:
        return self.at - time.perf_counter()


def _probe() -> float:
    """Seconds this process takes for a fixed slice of interpreter work."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(PROBE_OPS):
        table[i & 511] = table.get(i & 511, 0) + i
    return time.perf_counter() - start


def _move_on(pid: int, mine: int) -> int:
    """Move this process to the next CPU and the child off it; returns the
    new index.  The CPUs of a shared host slow down unevenly, so the probes
    must sample every CPU the child runs on, but never share one with it."""
    nxt = (mine + 1) % len(CPUS)
    try:
        os.sched_setaffinity(pid, CPUS[:nxt] + CPUS[nxt + 1 :])
    except OSError:  # the child has just exited
        pass
    os.sched_setaffinity(0, CPUS[nxt : nxt + 1])
    return nxt


def run_child(cmd: list, deadline: Deadline, consume) -> dict:
    """Run one child to its end, feeding its stdout to `consume` as it comes.

    Returns its exit code, wall time, CPU time and peak RSS from its own
    rusage (wait4); `own_s`, its wall time less the time other tasks and
    the hypervisor kept it off a CPU; and `scale`, the factor that brings
    its times to the reference host speed.  On Linux a child's ru_maxrss starts from this
    process's RSS at exec, so this process buffers no output and imports
    nothing heavy.
    """
    probing = len(CPUS) > 1
    timed_out = False
    probes = []
    mine = 0  # index in CPUS of this process's CPU; the child has the others
    if probing:
        os.sched_setaffinity(0, CPUS[1:])  # inherited by the child
    stolen = -_stolen_s()
    start = next_probe = time.perf_counter()
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, bufsize=0)
    finally:
        if probing:
            os.sched_setaffinity(0, CPUS[:1])
    fd = proc.stdout.fileno()
    try:
        while True:
            now = time.perf_counter()
            if probing and now >= next_probe:
                mine = _move_on(proc.pid, mine)
                probes.append(_probe())
                next_probe = now + PROBE_EVERY_S
            left = deadline.left()
            if left <= 0:
                proc.kill()
                timed_out = True
                break
            wait = min(left, max(next_probe - time.perf_counter(), 0)) if probing else left
            ready, _, _ = select.select([fd], [], [], wait)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                consume(chunk)
    finally:
        proc.stdout.close()
        queued = _queued_s(proc.pid)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    stolen += _stolen_s()
    cpu = usage.ru_utime + usage.ru_stime
    # a single-threaded child never has more CPU time than wall time
    unscalable = cpu > wall
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "timeout": timed_out,
        "wall_s": wall,
        "queued_s": queued,
        "stolen_s": stolen,
        # the steal is that of all CPUs, an upper bound of the child's own:
        # its own time is never taken below its CPU time
        "own_s": wall if unscalable else max(cpu, wall - queued - stolen),
        "cpu_s": cpu,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "scale": PROBE_REF_S * len(probes) / sum(probes) if probes and not unscalable else 1.0,
        "unscalable": unscalable,
    }


def _stolen_s() -> float:
    """Seconds the hypervisor has held this process's CPUs for other
    guests (steal in Linux /proc/stat), summed; 0 where that is not known."""
    try:
        with open("/proc/stat") as fh:
            lines = [line.split() for line in fh if line.startswith("cpu")]
        ticks = sum(int(f[8]) for f in lines if f[0][3:].isdigit() and int(f[0][3:]) in CPUS)
        return ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _queued_s(pid: int) -> float:
    """Seconds the child, ended but not yet reaped, sat runnable in a run
    queue behind other tasks (Linux schedstat); 0 where that is not known."""
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        with open(f"/proc/{pid}/schedstat") as fh:
            return int(fh.read().split()[1]) / 1e9
    except (AttributeError, OSError, IndexError, ValueError):
        return 0.0


def _at_ref(call: dict) -> float:
    """A call's own time at the reference speed."""
    return call["own_s"] * call["scale"]


def spawn(argv: list, deadline: Deadline) -> dict:
    """One CLI call as a fresh process, its stdout streamed into a digest."""
    digest = Digest()
    ran = run_child([sys.executable, "-m", "packedwords", *argv], deadline, digest.update)
    obs = digest.observed(ran["exit"])
    obs.update(ran, argv=argv)
    return obs


def _median(values: list) -> float:
    s = sorted(values)
    return (s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2


def plan(workload: str, seed: int, deadline: Deadline) -> "tuple[list, dict]":
    """The job's calls, and the reference's expected outputs where it has them."""
    if workload in FIXED_JOBS:
        return [list(argv) for argv in FIXED_JOBS[workload]], {}
    done = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), str(seed)],
        cwd=ROOT, capture_output=True, timeout=deadline.left(), check=True,
    )
    built = json.loads(done.stdout)
    return built["job"], built["expected"]


def run_plain(calls: list, seconds: float, deadline: Deadline) -> dict:
    observed = [spawn(SETUP_ARGV, deadline)]  # compiles bytecode; not timed
    setup = [spawn(SETUP_ARGV, deadline) for _ in range(SETUP_SAMPLES)]
    observed += setup
    jobs = []
    loop_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        done = []
        for argv in calls:
            done.append(spawn(argv, deadline))
            if done[-1]["timeout"]:
                break
        wall = time.perf_counter() - start
        observed += done
        jobs.append(
            {
                # the job's wall time runs from the first spawn to the last
                # exit; each call's share is its own time, scaled by its
                # own probes
                "wall_s": wall - sum(c["wall_s"] - _at_ref(c) for c in done),
                "cpu_s": sum(c["cpu_s"] * c["scale"] for c in done),
                "peak_rss_mb": max(c["peak_rss_mb"] for c in done),
                "raw_wall_s": wall,
                "raw_cpu_s": sum(c["cpu_s"] for c in done),
            }
        )
        used = time.perf_counter() - loop_start
        if done[-1]["timeout"] or used + wall > seconds or wall > deadline.left():
            break
    return {
        "job": calls,
        "setup_samples": [{k: c[k] for k in ("wall_s", "own_s", "scale")} for c in setup],
        "jobs": jobs,
        "observed": observed,
        "metrics": {
            "wall_s": _median([j["wall_s"] for j in jobs]),
            "cpu_s": _median([j["cpu_s"] for j in jobs]),
            "peak_rss_mb": _median([j["peak_rss_mb"] for j in jobs]),
            "setup_s": _median([_at_ref(c) for c in setup]),
        },
        "raw_metrics": {
            "wall_s": _median([j["raw_wall_s"] for j in jobs]),
            "cpu_s": _median([j["raw_cpu_s"] for j in jobs]),
            "setup_s": _median([c["wall_s"] for c in setup]),
        },
    }


def _in_process(calls: list, traced: bool, deadline: Deadline) -> dict:
    """The job run by tracer.py in one child process, with or without spans."""
    out = bytearray()
    cmd = [sys.executable, str(HERE / "tracer.py"), "--trace", str(int(traced)), "--job", json.dumps(calls)]
    ran = run_child(cmd, deadline, out.extend)
    if ran["timeout"] or ran["exit"] != 0:
        return {"calls": [dict(argv=argv, timeout=ran["timeout"], exit=ran["exit"], sha256="") for argv in calls]}
    result = json.loads(out)
    # the in-process times lose the child's queueing and steal pro rata
    result["scale"] = ran["scale"] * ran["own_s"] / ran["wall_s"]
    return result


def run_traced(calls: list, seconds: float, deadline: Deadline) -> dict:
    rounds = []
    observed = []
    loop_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        plain = _in_process(calls, False, deadline)
        traced = _in_process(calls, True, deadline)
        observed += plain["calls"] + traced["calls"]
        if "layers" not in traced or "seconds" not in plain:
            break
        layers = {
            name: value * traced["scale"] if name.endswith("_s") else value
            for name, value in traced["layers"].items()
        }
        layers["trace.overhead_ratio"] = (traced["seconds"] * traced["scale"]) / (plain["seconds"] * plain["scale"])
        rounds.append(layers)
        wall = time.perf_counter() - start
        if time.perf_counter() - loop_start + wall > seconds or wall > deadline.left():
            break
    first = rounds[0] if rounds else {}
    counts = [name for name in first if name.rsplit(".", 1)[-1] in TRACE_COUNTS]
    counts_differ = [name for name in counts if len({r[name] for r in rounds}) > 1]
    metrics = {name: first[name] if name in counts else _median([r[name] for r in rounds]) for name in first}
    return {"job": calls, "rounds": rounds, "observed": observed, "metrics": metrics, "counts_differ": counts_differ}


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> "tuple[dict, int]":
    """One run; returns the result line and the exit code."""
    spec = load_spec()
    deadline = Deadline(RUN_DEADLINE_S)
    env = environment()
    calls, computed = plan(workload, seed, deadline)
    checker = Checker(load_pins(), computed)
    run = (run_traced if trace else run_plain)(calls, seconds, deadline)
    failures = []
    for obs in run["observed"]:
        why = checker.error(obs["argv"], obs)
        if why is not None:
            failures.append({"argv": obs["argv"], "error": why})
    if run.get("counts_differ"):
        failures.append({"argv": None, "error": f"per-layer counts differ between rounds: {run['counts_differ']}"})
    attempted = len(run["observed"])
    failed = len(failures)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = dict(run["metrics"])
    if not trace:
        values["pass_ratio"] = (attempted - failed) / attempted
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        failures.append({"argv": None, "error": f"no value for metrics {missing}"})
        failed = len(failures)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    record = dict(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        environment=env,
        command=[sys.executable, "-m", "packedwords"],
        failures=failures,
        result=line,
        **{k: v for k, v in run.items() if k != "metrics"},
    )
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for f in failures:
        print(f"FAIL {' '.join(f['argv'] or [])}: {f['error']}", file=sys.stderr)
    return line, 0 if failed == 0 else 1


def _quartiles(values: list) -> "tuple[float, float, float]":
    # imported here, not at the top: statistics pulls in decimal, and this
    # process's RSS is the floor of its children's peak RSS (see spawn)
    import statistics

    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: list) -> dict:
    """{metric: {unit, median, q1, q3, n}} over the result lines of several runs."""
    names = {name: m["unit"] for r in runs for name, m in r["metrics"].items()}
    out = {}
    for name, unit in names.items():
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        q1, med, q3 = _quartiles(values)
        out[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}
    return out


def report(args: argparse.Namespace) -> int:
    seconds = load_spec()["run_seconds"]
    env = environment()
    results = {w: {"runs": [], "trace_runs": []} for w in WORKLOADS}
    status = 0
    # traced runs share one seed: their per-layer counts must then repeat
    plan = [(args.seed + i, w, 0) for i in range(REPORT_RUNS) for w in WORKLOADS]
    plan += [(args.seed, w, 1) for _ in range(REPORT_TRACE_RUNS) for w in WORKLOADS]
    for seed, workload, trace in plan:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if lines:
            line = json.loads(lines[-1])
            with open(RESULTS / f"{workload}-seed{seed}-trace{trace}.json") as fh:
                record = json.load(fh)
            line["job"] = record["job"]
            for name, value in record.get("raw_metrics", {}).items():
                line["metrics"][f"{name}.raw"] = {"value": value, "unit": "s"}
        else:
            line = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        line["seed"] = seed
        results[workload]["trace_runs" if trace else "runs"].append(line)
        if done.returncode != 0 or not line["correct"]:
            sys.stderr.write(done.stderr)
            status = 1
        print(f"{workload} seed {seed} trace {trace}: correct={line['correct']} failed={line['failed']}",
              file=sys.stderr, flush=True)
    for workload, res in results.items():
        # a run with a wrong answer says nothing about speed
        res["summary"] = summarize([r for r in res["runs"] if r["correct"]])
        res["trace_summary"] = summarize([r for r in res["trace_runs"] if r["correct"]])
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if k.rsplit(".", 1)[-1] in TRACE_COUNTS}
            for r in res["trace_runs"]
        ]
        res["trace_counts_repeat"] = all(c == counts[0] for c in counts)
        status |= 0 if res["trace_counts_repeat"] else 1
    out = {"environment": env, "run_seconds": seconds, "workloads": results}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"python {env['python']}  nproc {env['nproc']}  loadavg {env['loadavg']}  commit {env['commit']}")
    print(f"{'workload':<12} {'metric':<32} {'unit':<7} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for workload, res in results.items():
        for name, s in {**res["summary"], **res["trace_summary"]}.items():
            print(f"{workload:<12} {name:<32} {s['unit']:<7} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['n']:>3}")
        wrong = sum(not r["correct"] for r in res["runs"] + res["trace_runs"])
        if wrong:
            print(f"{workload:<12} {wrong} runs incorrect or without a result, left out of the summary")
        if not res["trace_counts_repeat"]:
            print(f"{workload:<12} per-layer counts differ between traced runs")
    return status


def compare(args: argparse.Namespace) -> int:
    """Judge NEW against OLD per workload and end-to-end metric.

    incorrect: some NEW run of the workload gave a wrong answer, failed a
    call or gave no result.
    missing: the workload or metric is in OLD but not in NEW.
    regressed: NEW's median is worse than OLD's by more than the bound.
    unresolved: either side's quartile spread, as a share of its median,
    is wider than the bound, and not every NEW run beats every OLD run.
    Any incorrect, missing or regressed verdict makes the exit code 1.
    The raw (unscaled) medians are printed beside the scaled ones, so a
    change that shows only after scaling stands out.
    """
    spec = load_spec()
    with open(args.old) as fh:
        old = json.load(fh)["workloads"]
    with open(args.new) as fh:
        new = json.load(fh)["workloads"]
    status = 0
    print(f"{'workload':<12} {'metric':<12} {'old':>12} {'new':>12} {'change':>8} {'bound':>6}  "
          f"{'old.raw':>12} {'new.raw':>12} {'raw chg':>8}  verdict")
    for workload in old:
        if workload not in new:
            print(f"{workload:<12} {'':<12} {'':>12} {'':>12} {'':>8} {'':>6}  {'':>12} {'':>12} {'':>8}  missing")
            status = 1
            continue
        wrong = [r.get("seed") for r in new[workload].get("runs", []) if not r["correct"] or r["failed"]]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = old[workload]["summary"].get(name)
            b = new[workload]["summary"].get(name)
            if a is None:
                continue
            if wrong or b is None:
                verdict = "incorrect" if wrong else "missing"
                print(f"{workload:<12} {name:<12} {a['median']:>12.6g} {'':>12} {'':>8} {bound:>6}  "
                      f"{'':>12} {'':>12} {'':>8}  {verdict}")
                status = 1
                continue
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
            if sign > 0:
                all_better = max(b["values"]) < min(a["values"])
            else:
                all_better = min(b["values"]) > max(a["values"])
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                status = 1
            else:
                verdict = "ok"
            ra = old[workload]["summary"].get(f"{name}.raw")
            rb = new[workload]["summary"].get(f"{name}.raw")
            if ra and rb:
                raw = f"{ra['median']:>12.6g} {rb['median']:>12.6g} {(ra['median'] - rb['median']) / ra['median'] * sign:>+8.1%}"
            else:
                raw = f"{'':>12} {'':>12} {'':>8}"
            print(f"{workload:<12} {name:<12} {a['median']:>12.6g} {b['median']:>12.6g} "
                  f"{-worse:>+8.1%} {bound:>6}  {raw}  {verdict}")
        if wrong:
            print(f"{workload:<12} incorrect runs in NEW, seeds {wrong}")
    return status


def main(argv: list) -> int:
    if not (ROOT / "src" / "packedwords" / "__init__.py").is_file():
        print(f"error: no packedwords sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if argv[:1] == ["report"]:
        p = argparse.ArgumentParser(prog="run.py report")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out", default=str(RESULTS / "report.json"))
        return report(p.parse_args(argv[1:]))
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        return compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    line, code = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return code


if __name__ == "__main__":
    if not sys.flags.no_site:
        # site-packages hooks add about 5 MB of RSS that every child's
        # ru_maxrss would inherit as its floor; the benchmark needs only the
        # standard library, so it runs without them
        os.execv(sys.executable, [sys.executable, "-S", *sys.argv])
    sys.exit(main(sys.argv[1:]))
