"""strposet benchmark: seeded CLI workloads, checked outputs, traced layers.

    python3 bench/run.py --workload fiber --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --smoke

Run from the repository root; the package is imported from ./src.  One
process and one thread drive a closed loop: the next job starts only when
the previous one has finished and been checked.  Workloads, their job mixes
and the output checks live in ``workloads.py``.

--trace 0 runs the fixed job set 0..TRACE_JOBS-1 in rounds, one job after
the other, for --seconds seconds: at least MIN_ROUNDS rounds, and no round
that would end past --seconds (nor any started after LIMIT_S).  Each job's
latency is its best time over the rounds, which filters the short
slowdowns of a shared host (a job's best of many spread-out repeats varies
far less between runs than any single sample); job_s.p50 and job_s.p90 are
quantiles of the jobs' best times, and jobs_per_s is the job set's size over
the sum of its best times.  Every repeat is checked, and every round must
give the same output digest.
--trace 1 runs the fixed jobs 0..TRACE_JOBS-1 twice, untraced and then
traced, and prints the per-layer metrics: self time per traced function
group, work counts read from the outputs, and the traced/untraced time
ratio.  Either way the last stdout line is one JSON object; results and
spans are also written under .bench_out/.

Jobs 0..TRACE_JOBS-1 also make the run's output digest.  digests.json
holds the digests of seeds 0-20; a run with one of those seeds that gives
another digest counts that as one more failure.

--smoke runs one period of every workload, checks that every metric named
in BENCHMARK.json is emitted with its unit, and that the checks catch
deliberately tampered outputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path[:0] = [SRC, BENCH]

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Env  # noqa: E402

SETUP_REPEATS = 9
MIN_ROUNDS = 5
LIMIT_S = 120.0
COUNTS = [
    "structure.fiber_nodes", "structure.comparable_pairs",
    "structure.cover_edges", "structure.down_set_nodes",
    "conditions.p5_instances", "reconstruction.domain_nodes",
    "reconstruction.probes", "reconstruction.conflicts",
    "cli.calls", "cli.output_bytes", "cli.contract_failures",
]


@dataclass
class Result:
    k: int
    kind: str
    latency: float
    problems: list
    digest: str


def execute(workload, k: int, tracer=None) -> Result:
    job = workload.job(k)
    gc.collect()
    error = None
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        out = tracer.job_span(k, job.run) if tracer else job.run()
    except Exception as exc:  # a failed job is recorded, not fatal
        error = f"raised {type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if error:
        return Result(k, job.kind, latency, [error], "raised")
    try:
        problems, digest = job.check(out)
    except Exception as exc:  # malformed output the check could not read
        problems, digest = [f"check raised {type(exc).__name__}: {exc}"], ""
    return Result(k, job.kind, latency, problems, digest)


def setup(name: str, seed: int, tracer=None):
    """Import, corpus generation, input files and one warm-up job."""
    start = perf_counter()
    env = Env()
    if not env.core.__file__.startswith(SRC + os.sep):
        raise ImportError(f"strposet imported from {env.core.__file__}, "
                          f"not from {SRC}")
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-",
                           dir=os.path.join(ROOT, ".bench_tmp"))
    if tracer is not None:
        tracer.install()
        tracer.job = "setup"
    try:
        workload = WORKLOADS[name](env, tmp, seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.job = None
    took = perf_counter() - start
    warm = execute(workload, workload.WARMUP - len(workload.PERIOD))
    if warm.problems:
        raise RuntimeError(f"warm-up job failed: {warm.problems}")
    # The warm-up job counts; checking its output is the benchmark's work.
    return workload, took + warm.latency


def digest_of(results: list, jobs: int) -> str:
    if len(results) < jobs:
        return "incomplete"
    text = "\n".join(f"{r.k} {r.digest}" for r in results[:jobs])
    return hashlib.sha256(text.encode()).hexdigest()


def reference_digest(name: str, seed: int):
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile: at least (1 - q) of the samples lie above the
    next rank."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure(name: str, seed: int, seconds: float, trace: bool,
            min_rounds: int = MIN_ROUNDS, trace_jobs=None,
            repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the summary including its metrics."""
    tracer = tracing.Tracer() if trace else None
    setup_times = []
    workload = None
    try:
        for rep in range(repeats):
            if workload is not None:
                shutil.rmtree(workload.tmp, ignore_errors=True)
            last = rep == repeats - 1
            workload, took = setup(name, seed, tracer if last else None)
            setup_times.append(took)
        probe = workload.probe_known_defect()
        jobs = trace_jobs or workload.TRACE_JOBS
        workload.counts.clear()
        start = perf_counter()
        deadline = start + LIMIT_S
        if trace:
            untraced = []
            while len(untraced) < jobs and perf_counter() < deadline:
                untraced.append(execute(workload, len(untraced)))
            workload.counts.clear()
            traced = []
            while len(traced) < len(untraced) and perf_counter() < deadline:
                traced.append(execute(workload, len(traced), tracer))
            results = untraced + traced
            digest = digest_of(untraced, jobs)
            round_digests = [digest]
        else:
            rounds = []
            while perf_counter() < deadline:
                begun = perf_counter()
                rounds.append([])
                for k in range(jobs):
                    if perf_counter() >= deadline:
                        break
                    rounds[-1].append(execute(workload, k))
                took = perf_counter() - begun
                if len(rounds) >= min_rounds and (
                        perf_counter() - start + took > seconds):
                    break
            results = [r for rnd in rounds for r in rnd]
            round_digests = [digest_of(rnd, jobs) for rnd in rounds]
            digest = round_digests[0]
    finally:
        if workload is not None:
            shutil.rmtree(workload.tmp, ignore_errors=True)

    # Reference digests cover jobs 0..TRACE_JOBS-1 of a complete run.
    reference = None
    if jobs == workload.TRACE_JOBS and digest != "incomplete":
        reference = reference_digest(name, seed)
    mismatch = reference is not None and digest != reference
    unsteady = sum(1 for d in round_digests[1:]
                   if d not in (digest, "incomplete"))
    failed = sum(1 for r in results if r.problems) + mismatch + unsteady
    summary = {
        "workload": name, "seed": seed, "trace": int(trace),
        "environment": environment(),
        "load": "closed loop, 1 process, 1 thread",
        "jobs": len(results), "failed": failed,
        "digest": digest, "digest_jobs": jobs,
        "digest_reference": reference, "digest_mismatch": mismatch,
        "rounds_with_another_digest": unsteady,
        "known_defect_probe": probe,
        "setup_s_each": setup_times,
        "problems": [f"job {r.k} ({r.kind}): {p}" for r in results
                     for p in r.problems][:50],
    }
    best = {}
    for r in results:
        best[r.k] = min(best.get(r.k, r.latency), r.latency)
    latencies = sorted(best.values())
    summary["rounds"] = 2 if trace else len(rounds)  # traced: two passes
    if trace:
        overhead = (sum(r.latency for r in traced)
                    / sum(r.latency for r in untraced[:len(traced)]))
        metrics = {f"{m}.self_s": (tracer.self_s.get(m, 0.0), "s")
                   for m in tracing.SPAN_METRICS}
        metrics["structure.str_leq.calls"] = (
            tracer.calls.get("structure.str_leq", 0), "count")
        workload.counts["cli.contract_failures"] = int(probe != "ok")
        for count in COUNTS:
            metrics[count] = (workload.counts.get(count, 0), "count")
        metrics["trace_overhead_ratio"] = (overhead, "ratio")
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"))
    else:
        metrics = {
            "job_s.p50": (statistics.median(latencies), "s"),
            "job_s.p90": (quantile(latencies, 0.9), "s"),
            "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
        }
    summary["metrics"] = {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}
    summary["latencies"] = [[r.k, r.kind, r.latency] for r in results]
    summary["latency_by_kind"] = {
        kind: statistics.median(r.latency for r in results if r.kind == kind)
        for kind in sorted({r.kind for r in results})}
    return summary


def report(summary: dict) -> None:
    env = summary["environment"]
    print(f"environment: git {env['git_sha']}, python {env['python']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']}")
    print(f"workload {summary['workload']} seed {summary['seed']} "
          f"trace {summary['trace']}: {summary['load']}, "
          f"{summary['jobs']} job runs sampled: {summary['digest_jobs']} "
          f"jobs x {summary['rounds']} rounds")
    for name, metric in summary["metrics"].items():
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_ratio {summary['failed']}/{summary['jobs']}")
    verdict = ("no reference for this seed"
               if summary["digest_reference"] is None
               else "MISMATCH" if summary["digest_mismatch"] else "matches")
    print(f"  output digest of jobs 0..{summary['digest_jobs'] - 1}: "
          f"{summary['digest']} ({verdict})")
    print(f"  known defect probe, mu --amax 1 (expected exit 3): "
          f"{summary['known_defect_probe']}")
    for problem in summary["problems"][:10]:
        print(f"  problem: {problem}")


def smoke() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for name, cls in WORKLOADS.items():
        period = len(cls.PERIOD)
        for trace in (False, True):
            summary = measure(name, 0, 0, trace, min_rounds=1,
                              trace_jobs=period, repeats=1)
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            if got != wanted[trace]:
                failures.append(f"{name} trace {int(trace)}: metrics "
                                f"{sorted(set(got) ^ set(wanted[trace]))} "
                                "differ from BENCHMARK.json")
            failures += [f"{name}: {p}" for p in summary["problems"]]
        print(f"smoke: {name}: {period} jobs per mode, metrics and units ok")
    failures += tampering()
    for failure in failures:
        print(f"smoke FAILED: {failure}")
    if not failures:
        print("smoke: ok")
    return 1 if failures else 0


def tampering() -> list:
    """Each tampered output must make its check report a problem."""
    failures = []

    def caught(name: str, kind: str, tamper) -> None:
        workload, _ = setup(name, 0)
        try:
            k = next(k for k in range(len(workload.PERIOD))
                     if workload.PERIOD[k][0] == kind)
            job = workload.job(k)
            out = job.run()
            tamper(workload, out)
            problems, _ = job.check(out)
        finally:
            shutil.rmtree(workload.tmp, ignore_errors=True)
        label = f"{name}/{kind}: {tamper.__doc__}"
        if problems:
            print(f"smoke: tampered {label}: caught ({problems[0]})")
        else:
            failures.append(f"tampered {label}: not caught")

    def drop_cover(workload, out):
        """one cover edge dropped"""
        out["view"]["covers"].pop()

    def swap_map_entry(workload, out):
        """two curve-map entries swapped"""
        path = workload.path("reconstruct.json")
        with open(path, encoding="utf-8") as fh:
            report_obj = json.load(fh)
        keys = list(report_obj["rho1"])[:2]
        rho1 = report_obj["rho1"]
        rho1[keys[0]], rho1[keys[1]] = rho1[keys[1]], rho1[keys[0]]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report_obj, fh)

    def wrong_mu(workload, out):
        """a mu reply changed"""
        path = workload.path("q0.json")
        with open(path, encoding="utf-8") as fh:
            reply = json.load(fh)
        reply["mu"] = 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reply, fh)

    caught("fiber", "fiber", drop_cover)
    caught("roundtrip", "reconstruct", swap_map_entry)
    caught("inspect", "inspect", wrong_mu)
    fake = [Result(0, "x", 0.0, [], "a")]
    if digest_of(fake, 1) == digest_of([Result(0, "x", 0.0, [], "b")], 1):
        failures.append("digest does not depend on job outputs")
    else:
        print("smoke: changed job output changes the digest: caught")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: a few jobs per workload, metric "
                             "names and units, tampered outputs")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "strposet")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    summary = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    report(summary)
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["jobs"],
                      "failed": summary["failed"],
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
