"""minvec benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload pair-scan --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: median time to build the workload's specs, built several times
- ``work_per_s``: verified work per second of operation time, over one pass
  of the workload's jobs with each job timed by the median of its repeats.
  A failed operation adds its time and no work.
- ``peak_rss_mb``: ``ru_maxrss`` of this process

Times are process CPU time (all threads), not wall time: on a shared 2-core
VM the wall time of identical work swung by up to 2x.  CPU time still moves
with the host, so each time is rescaled to a reference host by fixed
reference work run right after it (see ``reference.py``).  The summary line
also gives ``setup_s`` and ``work_per_s`` unscaled.  The loop itself runs
for ``--seconds`` of wall time.

``fail_ratio`` (operations that raised / attempted) is printed and carried by
the ``failed`` and ``attempted`` fields.  With ``--trace 1`` the run measures
one untraced pass, then wraps the layer functions and measures set-up plus
one pass again, and reports per-layer metrics and the tracing overhead.
The last line of standard output is the JSON result.  A wrong answer makes
the run exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

from reference import rescaled
from tracing import Tracer, percentile_ms

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# The process caps its own address space, so an unbounded allocation in the
# library ends as a counted MemoryError instead of taking memory from others.
ADDRESS_SPACE_CAP = 1 << 30

SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 25

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": git_commit(), "seed": seed, "address_space_cap": ADDRESS_SPACE_CAP,
    }


def timed_setup(workload) -> tuple[float, float, dict]:
    """Median set-up time over several builds, rescaled and as measured, and
    the last build's specs."""
    times, raw = [], []
    while (len(times) < SETUP_MIN_REPEATS
           or (sum(raw) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS)):
        t0 = process_time()
        specs = workload.setup()
        raw.append(process_time() - t0)
        times.append(rescaled(raw[-1]))
    return statistics.median(times), statistics.median(raw), specs


class Loop:
    """Closed loop over a pass of jobs; collects times, work and failures."""

    def __init__(self, jobs) -> None:
        self.jobs = jobs
        self.times = {job.name: [] for job in jobs}       # rescaled
        self.raw_times = {job.name: [] for job in jobs}   # as measured
        self.work = {}
        self.errors = {}            # job name -> exception type
        self.attempted = 0
        self.failed = 0

    def run_op(self, job) -> tuple[bool, object]:
        self.attempted += 1
        t0 = process_time()
        try:
            answer = job.run()
        except Exception as e:     # a library failure is counted, not fatal
            self._time(job, process_time() - t0)
            self.failed += 1
            self.errors[job.name] = type(e).__name__
            self.work[job.name] = 0
            return False, None
        self._time(job, process_time() - t0)
        return True, answer

    def _time(self, job, seconds: float) -> None:
        self.raw_times[job.name].append(seconds)
        self.times[job.name].append(rescaled(seconds))

    def record(self, job, answer) -> None:
        """Check an answer (outside the timed region) and record its work."""
        self.work[job.name] = job.check(answer)

    def run_for(self, seconds: float) -> None:
        """Whole passes, at least one, until `seconds` pass.

        Whole passes give every job the same number of repeats, so the
        failed share is the same on every run.
        """
        t0 = perf_counter()
        while True:
            for job in self.jobs:
                ok, answer = self.run_op(job)
                if ok:
                    self.record(job, answer)
            if perf_counter() - t0 >= seconds:
                return

    def job_seconds(self, raw: bool = False) -> dict[str, float]:
        times = self.raw_times if raw else self.times
        return {name: statistics.median(t) for name, t in times.items() if t}

    def work_per_s(self, raw: bool = False) -> float:
        work = sum(self.work.values())
        time = sum(self.job_seconds(raw).values())
        return work / time


def traced_pass(workload, jobs) -> tuple[Loop, Tracer]:
    """Set-up and one pass under the tracer; answers are checked afterwards."""
    tracer = Tracer()
    loop = Loop(jobs)
    answers = []
    tracer.install()
    try:
        workload.setup()
        for op, job in enumerate(jobs):
            tracer.op = op
            answers.append((job, *loop.run_op(job)))
    finally:
        tracer.uninstall()
    for job, ok, answer in answers:
        if ok:
            loop.record(job, answer)
    return loop, tracer


def per_layer_metrics(tracer, untraced: float, traced: float) -> dict:
    stats = tracer.layer_stats()
    counts = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer, st in stats.items():
        put(f"{layer}.self_s", st["self_s"], "s")
    for layer in ("minimal.whittaker_oracle", "minimal.matrix_coefficient", "characters.chi_value",
                  "matgroups.decompose_B1T", "bessel.bessel_K_imag", "global_whittaker.c_infty",
                  "global_whittaker.kappa"):
        put(f"{layer}.calls", stats[layer]["calls"], "count")
    oracle = stats["minimal.whittaker_oracle"]["durations"]
    put("minimal.whittaker_oracle.p50_ms", percentile_ms(oracle, 50), "ms")
    put("minimal.whittaker_oracle.p90_ms", percentile_ms(oracle, 90), "ms")
    mc_calls = stats["minimal.matrix_coefficient"]["calls"]
    put("minimal.matrix_coefficient.hit_ratio",
        counts["minimal.matrix_coefficient.hits"] / mc_calls if mc_calls else 0.0, "ratio")
    put("bessel.bessel_K_imag.failed", stats["bessel.bessel_K_imag"]["failed"], "count")
    put("cosets.mat_keys.in_bytes", counts["cosets.mat_keys.in_bytes"], "bytes")
    put("characters.ChiEvaluator.exponents.rows", counts["characters.ChiEvaluator.exponents.rows"],
        "count")
    put("minimal.convolution_check.pairs", counts["minimal.convolution_check.pairs"], "count")
    put("global_whittaker.scan_supnorm.rows", counts["global_whittaker.scan_supnorm.rows"], "count")
    put("residues.local_ops", counts["residues.local_ops"], "count")
    put("bench.untraced_work_per_s", untraced, "1/s")
    put("bench.traced_work_per_s", traced, "1/s")
    put("bench.trace_overhead", untraced / traced, "ratio")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    from workloads import WORKLOADS, WrongAnswer
    workload = WORKLOADS[name]
    env = environment(seed)
    print("env: " + json.dumps(env))
    correct, wrong = True, None
    metrics = {}
    loop = None
    unscaled = {}
    try:
        setup_s, raw_setup_s, specs = timed_setup(workload)
        jobs = workload.jobs(specs, seed)
        loop = Loop(jobs)
        if not trace:
            loop.run_for(seconds)
            unscaled = {"setup_s": raw_setup_s, "work_per_s": loop.work_per_s(raw=True)}
            metrics = {"setup_s": setup_s, "work_per_s": loop.work_per_s(),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        else:
            loop.run_for(seconds / 2)
            untraced = loop.work_per_s()
            loop, tracer = traced_pass(workload, jobs)
            metrics = per_layer_metrics(tracer, untraced, loop.work_per_s())
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write_spans(OUT_DIR / f"spans-{name}.csv")
    except WrongAnswer as e:
        correct, wrong = False, str(e)
        print(f"WRONG ANSWER: {e}", file=sys.stderr)
    attempted = loop.attempted if loop else 0
    failed = loop.failed if loop else 0
    summary = {"workload": name, "unit": workload.unit, "fail_ratio": failed / max(attempted, 1),
               "failures": loop.errors if loop else {}, "wrong_answer": wrong,
               "job_seconds": loop.job_seconds() if loop else {},
               "unscaled": unscaled}
    print("summary: " + json.dumps(summary))
    for key, m in metrics.items():
        print(f"  {key:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':48s} {summary['fail_ratio']:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another; prints a table."""
    from workloads import WORKLOADS
    status = 0
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit status {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        summary = json.loads(next(l for l in lines if l.startswith("summary: "))[9:])
        env = json.loads(next(l for l in lines if l.startswith("env: "))[5:])
        rows[name] = {"result": result, "summary": summary, "env": env}
        print(f"{name}: correct={result['correct']} work unit={summary['unit']} "
              f"failures={summary['failures']}")
        for key, m in result["metrics"].items():
            print(f"  {key:48s} {m['value']:.6g} {m['unit']}")
        print(f"  {'fail_ratio':48s} {summary['fail_ratio']:.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=1) + "\n")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --workload all: write every result here as JSON")
    args = ap.parse_args()
    if not (ROOT / "src" / "minvec" / "__init__.py").is_file():
        print(f"no minvec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
