"""Time to an exact answer: run a workload's jobs as gderive CLI processes.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from a checkout of the repository: the jobs import ``gderive`` from its
``src`` directory. Jobs run one after another, each in a fresh interpreter
(one client, closed loop, no threads), in passes over the workload's job
list until ``--seconds`` is used up. A timing is the median over rounds of
consecutive passes (``workloads.ROUND_PASSES``) of each round's mean pass
time. Every output is checked after the timed passes: exit code, no
traceback, stdout digest against ``references.json`` (and equal across
passes), and an independent check that uses no gderive code
(``checks.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced round with a round run through ``harness.py`` and reports the
per-layer metrics (``layers.py``) plus the tracing overhead. Each workload
prints one row of medians with quartiles and sample counts, a provenance
line, and, last, one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"

END_TO_END = {"wall_s": "s", "largest_job_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
SETUP_PER_ROUND = 3
JOB_TIMEOUT_S = 120.0
RUN_BUDGET_S = 160.0

CLI = "import sys; from gderive.cli import main; sys.exit(main())"
SETUP = "import gderive.cli; gderive.cli.build_parser()"
PROBE = (
    "import json, platform, gderive, gderive._kernels as k; "
    "print(json.dumps({'file': gderive.__file__, 'backend': k.BACKEND, "
    "'python': platform.python_version()}))"
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (no source tree, broken interpreter)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# processes


def spawn(argv, out_path, err_path, timeout):
    """Run one process to completion: (wall seconds, max RSS in MB, exit
    code, timed out). The child is reaped with wait4 for its own rusage."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT, env=child_env())
        state = {"reaped": False, "timed_out": False}

        def on_alarm(signum, frame):
            if not state["reaped"]:
                state["timed_out"] = True
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            state["reaped"] = True
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, state["timed_out"]


def probe(work: Path) -> dict:
    """Where gderive is imported from, and which row-reduction backend."""
    out, err = work / "probe.out", work / "probe.err"
    _, _, code, _ = spawn([sys.executable, "-c", PROBE], out, err, 60)
    if code != 0:
        raise BenchmarkError("cannot import gderive: "
                             + err.read_text(errors="replace").strip()[-300:])
    info = json.loads(out.read_text())
    if not Path(info["file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"gderive imported from {info['file']}, not {SRC}")
    return info


def measure_setup(work: Path, count: int) -> list:
    """Fresh interpreters that import gderive.cli and build the parser."""
    times = []
    for _ in range(count):
        wall, _, code, _ = spawn([sys.executable, "-c", SETUP],
                                 work / "setup.out", work / "setup.err", 60)
        if code != 0:
            raise BenchmarkError("importing gderive.cli failed")
        times.append(wall)
    return times


# ---------------------------------------------------------------------------
# jobs and passes


def job_key(job: dict) -> str:
    blob = json.dumps({"argv": job["argv"], "files": job["files"]},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def materialize(jobs: list, work: Path) -> list:
    """Write each job's input documents; return (argv, key) per job."""
    out = []
    for index, job in enumerate(jobs):
        argv = []
        for arg in job["argv"]:
            if arg.startswith("@"):
                path = work / f"job{index}-{arg[1:]}.json"
                path.write_text(json.dumps(job["files"][arg[1:]], indent=1))
                argv.append(str(path))
            else:
                argv.append(arg)
        out.append((argv, job_key(job)))
    return out


def run_pass(prepared, traced, work, deadline):
    """One closed-loop pass; returns (pass wall, per-job records)."""
    records = []
    start = time.perf_counter()
    for index, (argv, _) in enumerate(prepared):
        spans = work / f"job{index}.spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "harness.py"), str(spans),
                   str(index), "--"] + argv
        else:
            cmd = [sys.executable, "-c", CLI] + argv
        timeout = min(JOB_TIMEOUT_S, deadline - time.monotonic())
        wall, rss, code, timed_out = spawn(
            cmd, work / f"job{index}.out", work / f"job{index}.err", timeout)
        records.append({"wall": wall, "rss": rss, "code": code,
                        "timed_out": timed_out})
    return time.perf_counter() - start, records


def collect(records, traced, work, corrupt=None):
    """Outside the timed region: read outputs, digests, spans."""
    for index, rec in enumerate(records):
        stdout = (work / f"job{index}.out").read_bytes()
        if corrupt is not None:
            stdout = corrupt(index, stdout)
        rec["stdout"] = stdout
        rec["digest"] = hashlib.sha256(stdout).hexdigest()
        stderr = (work / f"job{index}.err").read_bytes()
        rec["traceback"] = b"Traceback (most recent call last)" in stderr
        rec["stderr_tail"] = stderr[-300:].decode(errors="replace")
        rec["layers"] = None
        spans_path = work / f"job{index}.spans.json"
        if traced and spans_path.exists():
            dump = json.loads(spans_path.read_text())
            rec["layers"] = layers.job_metrics(dump["spans"], rec["wall"])
            rec["missing"] = dump["missing"]
            spans_path.unlink()


def judge(passes, jobs, prepared, references):
    """Mark each (pass, job) record failed or not; return failure lines."""
    verdicts = {}
    failures = []
    for p in passes:
        for index, rec in enumerate(p["records"]):
            name = jobs[index]["name"]
            key = prepared[index][1]
            reasons = []
            if rec["timed_out"]:
                reasons.append("timed out")
            if rec["code"] != 0:
                reasons.append(f"exit code {rec['code']}")
            if rec["traceback"]:
                reasons.append("traceback on stderr")
            want = references.get(key) or passes[0]["records"][index]["digest"]
            if rec["digest"] != want:
                reasons.append("stdout digest differs from the reference"
                               if key in references else
                               "stdout differs between passes")
            if rec["code"] == 0:
                cached = (index, rec["digest"])
                if cached not in verdicts:
                    verdicts[cached] = checks.check_output(
                        rec["stdout"], jobs[index]["check"])
                if verdicts[cached]:
                    reasons.append(verdicts[cached])
            rec["failed"] = bool(reasons)
            if reasons:
                failures.append(f"pass {p['index']} {name}: " + "; ".join(reasons)
                                + (f" [{rec['stderr_tail'].strip()}]"
                                   if rec["code"] else ""))
    return failures


# ---------------------------------------------------------------------------
# statistics and report


def summary(values):
    """(median, first quartile, third quartile, count)."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def provenance(info: dict, seed: int, load_start: float) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or "unknown"
    return {
        "seed": seed,
        "backend": info["backend"],
        "python": info["python"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "platform": platform.platform(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            corrupt=None, references=None) -> dict:
    """Run one workload; return its metrics, counts and provenance."""
    if not (SRC / "gderive" / "cli.py").is_file():
        raise BenchmarkError(f"no gderive source tree under {SRC}")
    load_start = os.getloadavg()[0]
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        info = probe(work)
        jobs = workloads.jobs_for(workload, seed)
        prepared = materialize(jobs, work)
        measure_setup(work, 1)  # may write bytecode caches; not counted
        setup = []
        passes = []
        begin = time.monotonic()
        # A round (an untraced and a traced round when tracing) starts only
        # when it is expected to end less than half a round after --seconds.
        modes = (False, True) if trace else (False,)
        per_round = workloads.ROUND_PASSES[workload]
        unit_times = []
        while True:
            unit = 0.0
            for traced in modes:
                for _ in range(per_round):
                    wall, records = run_pass(prepared, traced, work, deadline)
                    collect(records, traced, work, corrupt)
                    passes.append({"index": len(passes), "traced": traced,
                                   "round": len(unit_times), "wall": wall,
                                   "records": records})
                    unit += wall
            unit_times.append(unit)
            # Set-up is sampled after every round, so that its median spans
            # the whole run rather than one moment of the host's speed.
            setup += measure_setup(work, SETUP_PER_ROUND)
            elapsed = time.monotonic() - begin
            typical = statistics.median(unit_times)
            if any(r["timed_out"] for p in passes for r in p["records"]):
                break
            if elapsed + typical / 2 >= seconds:
                break
            if time.monotonic() + 1.5 * max(unit_times) > deadline:
                break
        refs = load_references() if references is None else references
        failures = judge(passes, jobs, prepared, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(r["failed"] for p in passes for r in p["records"])
    rounds = {}
    for p in passes:
        if not p["traced"]:
            rounds.setdefault(p["round"], []).append(p)
    largest = workloads.LARGEST_JOB[workload]
    largest_index = next(i for i, j in enumerate(jobs) if j["name"] == largest)

    def over_rounds(value):
        """Median over rounds of the mean per-pass value in each round."""
        return summary(statistics.fmean(value(p) for p in group)
                       for group in rounds.values())

    stats = {
        "wall_s": over_rounds(lambda p: p["wall"]),
        "largest_job_s": over_rounds(lambda p: p["records"][largest_index]["wall"]),
        "setup_s": summary(setup),
        "peak_rss_mb": summary(max(r["rss"] for p in group for r in p["records"])
                               for group in rounds.values()),
    }
    result = {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "stats": stats,
        "digests": {prepared[i][1]: rec["digest"]
                    for i, rec in enumerate(passes[0]["records"])},
        "provenance": provenance(info, seed, load_start),
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layers.pass_metrics([r["layers"] or {} for r in p["records"]])
                    for p in traced]
        per_layer = {}
        for name in layers.METRICS:
            if name == "trace.overhead_s":
                continue
            per_layer[name] = statistics.median(m.get(name, 0) for m in per_pass)
        per_layer["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced)
            - statistics.median(p["wall"] for p in passes if not p["traced"])
        )
        result["per_layer"] = per_layer
        result["missing"] = sorted({
            m for p in traced for r in p["records"] for m in r.get("missing", ())
        })
    return result


def load_references() -> dict:
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text())
    return {}


def row_line(result: dict) -> str:
    parts = [f"{result['workload']:<10}"]
    for name, unit in END_TO_END.items():
        med, q1, q3, n = result["stats"][name]
        parts.append(f"{name} {med:.4f} {unit} [q1 {q1:.4f}, q3 {q3:.4f}, n={n}]")
    ratio = result["failed"] / result["attempted"]
    parts.append(f"failed_ratio {ratio:.4f} ({result['failed']}/{result['attempted']})")
    return " | ".join(parts)


def metrics_of(result: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        return {prefix + name: {"value": value, "unit": layers.UNITS[name]}
                for name, value in result["per_layer"].items()}
    return {prefix + name: {"value": result["stats"][name][0], "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="add the digests of this run's outputs to "
                        "references.json when every check passed")
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    results = []
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, trace)
            results.append(result)
            print(row_line(result))
            for line in result["failures"][:20]:
                print("  FAILED " + line)
            if trace:
                for metric, value in result["per_layer"].items():
                    print(f"  {metric:<34} {value:.6g} {layers.UNITS[metric]}")
                if result["missing"]:
                    print("  not traced (absent): " + ", ".join(result["missing"]))
            print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    except BenchmarkError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.record_references and failed == 0:
        refs = load_references()
        for r in results:
            refs.update(r["digests"])
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps([{k: v for k, v in r.items() if k != "digests"} for r in results],
                   indent=1, sort_keys=True))
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        metrics.update(metrics_of(r, trace, prefix))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
