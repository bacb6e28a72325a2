"""bihomalt benchmark: CLI time-to-answer per workload, or a traced per-layer run.

    python3 bench/run.py --workload cli-corpus --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  With --trace 0 it runs the workload's
job list closed-loop with one client: each job is a fresh
`python -m bihomalt.cli ...` process on the checkout's `src`, started only after
the previous one ended, and whole passes repeat until --seconds have elapsed.
With --trace 1 it replays the same jobs in-process through `bihomalt.cli.run`
with every public function wrapped in a span (spans.py), for the per-layer
metrics.  Every job's output is checked either way.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
A per-job record (exit code, stdout sha256, seconds) goes to
`.bench_out/<workload>-seed<seed>-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUPS = 3  # set-ups per run; setup_s is their median
IMPORT_SAMPLES = 5
TAIL_PERCENTILES = (99, 95, 90, 75)

# The end-to-end metrics in BENCHMARK.json: defined on every workload and never
# zero.  The per-verb sums, job percentiles and fail_frac are printed and
# recorded as well, but not gated (README.md says why).
GATED = ("wall_s", "setup_s", "peak_rss_mib")


# -- set-up --------------------------------------------------------------------------------


def child_env(pycache: Path) -> dict:
    """The job processes' environment: this checkout's sources, bytecode cached under the run's directory."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup(workload: str, seed: int, directory: Path, warm: bool) -> float:
    """Generate and write the inputs, then compile the package's bytecode once; returns seconds."""
    start = time.perf_counter()
    inputs = directory / "inputs"
    inputs.mkdir(parents=True)
    workloads.make_inputs(workload, seed, inputs, ROOT / "data")
    if warm:
        subprocess.run(
            [sys.executable, "-c", "import bihomalt.cli, traceback"],
            env=child_env(directory / "pycache"),
            check=True,
            stdout=subprocess.DEVNULL,
        )
    return time.perf_counter() - start


# -- one job -------------------------------------------------------------------------------


def run_job(job, cwd: Path, env: dict):
    """(exit code, stdout, seconds, max RSS in KiB) of one job process."""
    start = time.perf_counter()
    with open(cwd.parent / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "bihomalt.cli", *job.argv], cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, seconds, usage.ru_maxrss


def run_job_inprocess(job, cwd: Path):
    """(exit code, stdout) of one job through bihomalt.cli.run, as the interpreter would exit."""
    from bihomalt import cli

    out = io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.run(list(job.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught exception exits the real CLI with status 1
                code = 1
    finally:
        os.chdir(previous)
    return code, out.getvalue().encode()


class Outcomes:
    """Checked results of every job execution in a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []  # failures outside the known-defect jobs
        self.records: dict[str, dict] = {}

    def add(self, job, code, stdout, seconds=None):
        self.attempted += 1
        problems = workloads.check(job, code, stdout)
        digest = hashlib.sha256(stdout).hexdigest()
        record = self.records.setdefault(job.name, {"argv": list(job.argv), "exit": code, "sha256": digest, "seconds": []})
        if record["sha256"] != digest or record["exit"] != code:
            problems.append("output differs between passes")
        if seconds is not None:
            record["seconds"].append(round(seconds, 6))
        if problems:
            record["problems"] = problems
            self.failed += 1
            if job.known_defect is None:
                self.unexpected.append(f"{job.name}: {'; '.join(problems)}")

    @property
    def correct(self) -> bool:
        return not self.unexpected


# -- metrics -------------------------------------------------------------------------------


def tail(samples, per_pass: int):
    """(percentile, value): the highest of TAIL_PERCENTILES with ten samples beyond it in one pass, else the maximum."""
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        if per_pass * (100 - p) / 100 >= 10:
            return p, ordered[math.ceil(p / 100 * len(ordered)) - 1]
    return 100, ordered[-1]


def e2e(workload: str, seed: int, seconds: float, work: Path):
    jobs = workloads.jobs_for(workload)
    verbs = [v for v in workloads.VERBS if any(j.verb == v for j in jobs)]
    setups = []
    for k in range(SETUPS):
        directory = work / f"setup{k}"
        setups.append(setup(workload, seed, directory, warm=True))
        if k:
            shutil.rmtree(work / f"setup{k - 1}")
    directory = work / f"setup{SETUPS - 1}"
    env = child_env(directory / "pycache")
    cwd = directory / "inputs"

    outcomes = Outcomes()
    passes, job_times, peak_kib = [], [], 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        verb_time = dict.fromkeys(verbs, 0.0)
        for job in jobs:
            code, out, took, rss = run_job(job, cwd, env)
            outcomes.add(job, code, out, took)
            verb_time[job.verb] += took
            job_times.append(took)
            peak_kib = max(peak_kib, rss)
        passes.append({"wall_s": sum(verb_time.values()), **{f"{v}_s": t for v, t in verb_time.items()}})

    percentile, tail_value = tail(job_times, len(jobs))
    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    metrics.update(
        setup_s=statistics.median(setups),
        peak_rss_mib=peak_kib / 1024,
        job_p50_s=statistics.median(job_times),
        job_tail_s=tail_value,
    )
    notes = {
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "job_samples": len(job_times),
        "job_tail_percentile": percentile,
        "setups": [round(s, 6) for s in setups],
        "fail_frac": outcomes.failed / outcomes.attempted,
        "children": {"PYTHONPATH": "src", "PYTHONPYCACHEPREFIX": "<run dir>/pycache (warmed in set-up)", "PYTHONHASHSEED": "0"},
    }
    return {k: (v, "MiB" if k == "peak_rss_mib" else "s") for k, v in metrics.items()}, outcomes, notes


def import_seconds(env) -> float:
    """Median time of `import bihomalt.cli` in a fresh interpreter with warm bytecode."""
    code = "import time; t = time.perf_counter(); import bihomalt.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def traced(workload: str, seed: int, seconds: float, work: Path, spans_path: Path):
    import spans

    directory = work / "setup0"
    setup(workload, seed, directory, warm=True)
    env = child_env(directory / "pycache")
    cli_import = import_seconds(env)
    sys.path.insert(0, str(ROOT / "src"))
    import bihomalt.cli  # noqa: F401  (imported before timing, as a warm process would have it)

    jobs = workloads.jobs_for(workload)
    cwd = directory / "inputs"
    outcomes = Outcomes()
    cost = spans.span_cost()
    tracers, overheads = [], []
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        tracer = spans.Tracer()
        t0 = time.perf_counter()
        with tracer.installed():
            for job in jobs:
                tracer.job = job.name
                outcomes.add(job, *run_job_inprocess(job, cwd))
        elapsed = time.perf_counter() - t0
        tracing = len(tracer.spans) * cost + tracer.probe_s
        overheads.append(tracing / (elapsed - tracing))
        tracers.append(tracer)

    metrics = spans.summarize(tracers)
    metrics["cli.import_s"] = cli_import
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for i, span in enumerate(tracers[0].spans):
            fh.write(json.dumps(span.as_dict(i)) + "\n")
    notes = {
        "passes": len(tracers),
        "span_cost_s": cost,
        "spans_in_first_pass": len(tracers[0].spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "fail_frac": outcomes.failed / outcomes.attempted,
    }
    return {k: (v, unit_of(k)) for k, v in metrics.items()}, outcomes, notes


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    return "count"


# -- entry point ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bihomalt" / "cli.py").is_file() or not (ROOT / "data").is_dir():
        print(f"bench: no bihomalt sources under {ROOT} (expected src/bihomalt and data/)", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            metrics, outcomes, notes = traced(args.workload, args.seed, args.seconds, work, out_dir / f"{tag}.spans.jsonl")
        else:
            metrics, outcomes, notes = e2e(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **notes, "jobs": outcomes.records}
    with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    width = max(len(k) for k in metrics)
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    print(f"{'fail_frac':<{width}}  {notes['fail_frac']:>14.6g} ratio  ({outcomes.failed}/{outcomes.attempted})")
    for line in outcomes.unexpected:
        print(f"FAILED {line}")
    reported = metrics if args.trace else {name: metrics[name] for name in GATED}
    result = {
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result))
    return 0 if outcomes.correct else 1


if __name__ == "__main__":
    sys.exit(main())
