"""cranbounds benchmark runner.

One run of one workload, as the contract in BENCHMARK.json defines it:

    python3 bench/run.py --workload sweep --seed 0 --seconds 26 --trace 0

The workloads (``sweep``, ``zcheck``, ``project``, ``audit``) are defined in
``workloads.py``.

With ``--trace 0`` the run measures the end-to-end metrics: ``setup_s``
(median of several fresh interpreters, each up to the end of the workload's
warm-up call), ``wall_s`` (median wall time of the workload's fixed job
list, repeated for ``--seconds``), both scaled to a reference machine speed
by the speed probe below, and ``peak_rss_mb``.  With ``--trace 1``
it alternates untraced repetitions of the job list with repetitions under the
outside-in tracer, and reports the per-layer metrics derived from the spans.

Every job's output is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Above it the run
prints every metric by name with its unit, ``fail_frac`` and the
environment.  The full result (environment, output digests, repetition
times) and, for traced runs, the spans are written under ``.bench_out/``.

Several runs at once, each in its own process, with medians and spreads:

    python3 bench/run.py --workload all --seconds 26  # every workload, seed 0
    python3 bench/run.py --workload audit --runs 5    # seeds 0..4 of one workload
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import runenv

runenv.pin_threads()

HERE = Path(__file__).resolve().parent
NAMES = ("sweep", "zcheck", "project", "audit")
SETUP_PROBES = 5
MAX_TRACED_REPS = 3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


# Speed probe: a fixed loop of the benchmark's own code (small LAPACK calls,
# dict and Fraction arithmetic), run untimed after every job and every set-up
# interpreter, never inside cranbounds, so a change to the package cannot move
# it.  The machine this was tuned on is shared; its speed drifts by
# up to a third for minutes at a time and flips between fast and slow states
# within seconds, which no statistic taken within one run removes.  So each
# median time is scaled by PROBE_REF_S over the probe's mean time in the same
# run: the result reads as seconds at the speed at which the probe takes
# PROBE_REF_S.  One probe is short and noisy, so after each job the probe
# runs once per PROBE_EVERY_S of that job's time (at least once): about a
# tenth of the run goes to probing, spread over all of it.  Raw times are
# kept in the result file.
PROBE_REF_S = 0.0375
PROBE_ITERS = 2000
PROBE_EVERY_S = 0.4


def speed_probe_seconds() -> float:
    import numpy as np

    m = np.eye(5) + 0.01 * np.arange(25.0).reshape(5, 5)
    m = m @ m.T
    acc, frac = 0.0, Fraction(0)
    t0 = time.perf_counter()
    for i in range(PROBE_ITERS):
        acc += float(np.linalg.eigvalsh(m)[0]) + float(np.linalg.slogdet(m)[1])
        acc += sum({j: j * i for j in range(30)}.values()) * 1e-12
        frac += Fraction(i % 7, 1 + i % 5)
    return time.perf_counter() - t0


def probe_after(took: float, speed: list):
    """Append to `speed` one probe time per PROBE_EVERY_S of `took` seconds
    of measured work, and at least one."""
    speed.extend(speed_probe_seconds() for _ in range(max(1, round(took / PROBE_EVERY_S))))


def _median_quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def at_reference_speed(times, speed) -> float:
    """Median of `times` in seconds at the speed where the probe takes
    PROBE_REF_S, given the probe times `speed` taken among them."""
    return statistics.median(times) * PROBE_REF_S / statistics.fmean(speed)


def setup_seconds(workload: str, probes: int) -> tuple[list, list]:
    """Raw set-up times of `probes` fresh interpreters and the speed probes
    around them."""
    times, speed = [], [speed_probe_seconds()]
    for _ in range(probes):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                              capture_output=True, text=True, timeout=120,
                              cwd=runenv.ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
        probe_after(times[-1], speed)
    return times, speed


class Outcomes:
    """Checks every job output of every repetition."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.outputs: dict[str, str] = {}

    def record(self, job, output):
        self.attempted += 1
        if isinstance(output, BaseException):
            problems = [f"raised {type(output).__name__}: {output}"]
        else:
            digest = sha256(output.encode()).hexdigest()
            try:
                problems = list(job.check(output))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            first = self.digests.setdefault(job.id, digest)
            if digest != first:
                problems.append("output differs from the first repetition")
            self.outputs.setdefault(job.id, output)
        if problems:
            self.failed += 1
            self.problems.extend(f"{job.id}: {p}" for p in problems[:3])


def run_jobs(jobs, outcomes: Outcomes, tracer=None, speed=None) -> float:
    """Run the job list once and return its wall time.  With a list `speed`,
    speed probes run after each job; their times are appended to `speed`
    and left out of the wall time.  Checks run untimed, after the list."""
    outputs, wall = [], 0.0
    for job in jobs:
        t0 = time.perf_counter()
        with tracer.job(job.id) if tracer else nullcontext():
            try:
                outputs.append(job.run())
            except Exception as exc:  # a failed job is counted, not fatal
                outputs.append(exc)
        took = time.perf_counter() - t0
        wall += took
        if speed is not None:
            probe_after(took, speed)
    for job, out in zip(jobs, outputs):
        outcomes.record(job, out)
    return wall


def run_once(args) -> dict:
    import resource

    import tracer as tracing
    import workloads

    runenv.OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    if not args.trace:
        setup_raw, setup_speed = setup_seconds(args.workload, SETUP_PROBES)
    jobs = wl.jobs(args.seed, args.size)
    wl.warmup()
    outcomes = Outcomes()
    env = runenv.environment(args.seed)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env}

    if not args.trace:
        # Repeat while another repetition still fits in --seconds.
        walls, speed = [], [speed_probe_seconds()]
        start = time.perf_counter()
        while len(walls) < 3 or ((time.perf_counter() - start) * (1 + 1 / len(walls))
                                 < args.seconds):
            walls.append(run_jobs(jobs, outcomes, speed=speed))
        env["speed_probe_s"] = statistics.fmean(speed)
        result.update(walls_raw=walls, speed_probe_s=speed, setup_raw_s=setup_raw,
                      setup_speed_probe_s=setup_speed, wall_raw_s=statistics.median(walls))
        metrics = {
            "setup_s": at_reference_speed(setup_raw, setup_speed),
            "wall_s": at_reference_speed(walls, speed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        # Untraced and traced repetitions alternate, so both sample the same
        # stretches of machine load and their difference is the overhead.
        tr = tracing.Tracer()
        untraced, traced, slices, speed = [], [], [], []
        start = time.perf_counter()
        while not traced or (len(traced) < MAX_TRACED_REPS
                             and (time.perf_counter() - start) * (1 + 1 / len(traced))
                             < args.seconds):
            untraced.append(run_jobs(jobs, outcomes, speed=speed))
            lo = len(tr.spans)
            with tr:
                traced.append(run_jobs(jobs, outcomes, tracer=tr))
            slices.append((lo, len(tr.spans)))
        metrics = tracing.per_layer_metrics(tr, slices)
        runner = {
            "trace.overhead_s": statistics.median(t - u for t, u in zip(traced, untraced)),
            "trace.job_coverage": statistics.median(tracing.job_seconds(tr, lo, hi) / w
                                                    for (lo, hi), w in zip(slices, traced)),
        }
        metrics.update({k: {"value": v, "unit": tracing.RUNNER_METRICS[k]}
                        for k, v in runner.items()})
        spans_path = runenv.OUT / f"spans-{args.workload}-s{args.seed}.json"
        tr.dump(spans_path)
        env["speed_probe_s"] = statistics.fmean(speed)
        result.update(walls_untraced=untraced, walls_traced=traced,
                      absent_sites=tr.absent, spans=str(spans_path))

    summary = getattr(wl, "summary", None)
    extra = summary(outcomes.outputs) if summary and outcomes.outputs else {}
    result.update(
        metrics=metrics, extra=extra, attempted=outcomes.attempted, failed=outcomes.failed,
        fail_frac=outcomes.failed / outcomes.attempted, problems=outcomes.problems[:20],
        digests=outcomes.digests)
    path = runenv.OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    result["path"] = str(path)
    return result


def print_run(result: dict):
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}"
          f"  size {result['size']}")
    print(f"environment nproc={env['nproc']} python={env['python']} numpy={env['numpy']}"
          f" scipy={env['scipy']} threads={env['threads']}"
          f" CRANBOUNDS_THREADS={env['CRANBOUNDS_THREADS']} cpu={env['cpu']!r}")
    print(f"speed probe mean {env['speed_probe_s']:.4f} s (reference {PROBE_REF_S} s)"
          + (f"; unscaled wall {result['wall_raw_s']:.6g} s" if "wall_raw_s" in result else ""))
    for name, m in {**result["metrics"], **result["extra"]}.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:42s} {value:>14s} {m['unit']}")
    print(f"  {'fail_frac':42s} {result['fail_frac']:>14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} jobs)")
    for p in result["problems"]:
        print(f"  problem: {p}")
    print(f"result written to {result['path']}")


# ---------------------------------------------------------------------------
# several runs, each in a fresh process
# ---------------------------------------------------------------------------


def run_many(args) -> dict:
    names = NAMES if args.workload == "all" else (args.workload,)
    seeds = [args.seed + k for k in range(args.runs)]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        per_metric: dict[str, list] = {}
        units: dict[str, str] = {}
        fail = []
        for seed in seeds:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--size", args.size]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=runenv.ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} seed {seed} failed:\n{proc.stderr[-3000:]}")
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            res = json.loads((runenv.OUT / f"result-{name}-s{seed}-t{args.trace}.json")
                             .read_text())
            merged["correct"] &= last["correct"]
            merged["attempted"] += last["attempted"]
            merged["failed"] += last["failed"]
            fail.append(res["fail_frac"])
            for metric, m in {**last["metrics"], **res["extra"]}.items():
                per_metric.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
            for p in res["problems"]:
                print(f"{name} seed {seed} problem: {p}")
        per_metric["fail_frac"], units["fail_frac"] = fail, "ratio"
        print(f"{name}: {len(seeds)} run(s), seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  unit")
        for metric, values in per_metric.items():
            if any(v is None for v in values):
                print(f"  {metric:42s} {'absent':>12s}")
                merged["metrics"][f"{name}.{metric}"] = {"value": None, "unit": units[metric]}
                continue
            med, q1, q3 = _median_quartiles(values)
            spread = f"{(q3 - q1) / med:8.4f}" if med else f"{'-':>8s}"
            print(f"  {metric:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread}  {units[metric]}")
            merged["metrics"][f"{name}.{metric}"] = {"value": med, "unit": units[metric]}
    return merged


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=26.0,
                    help="how long one run repeats its job list")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, seeds seed..seed+runs-1, each in its own process")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every job list, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.runs < 1:
        ap.error("--seconds must be positive and --runs at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        runenv.use_checkout_sources()
    except runenv.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all" or args.runs > 1:
        final = run_many(args)
    else:
        result = run_once(args)
        print_run(result)
        final = {"correct": result["failed"] == 0, "attempted": result["attempted"],
                 "failed": result["failed"], "metrics": result["metrics"]}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
