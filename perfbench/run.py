#!/usr/bin/env python3
"""honeyflow benchmark: closed-loop CLI workloads with a correctness gate.

Run from the repository root::

    python3 perfbench/run.py --workload solve-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced then traced

Each op is one in-process ``honeyflow.cli.run([...])`` call with stdout
captured; one client issues the next op when the last one returns. A run
repeats the workload's fixed op mix, pass after pass, until ``--seconds``
of measuring have passed, then checks every distinct output against an
independent reference (``reference.py``) outside the timed region.

On a shared host other tenants slow the program by up to 1.8x, for
stretches longer than a run. So every timed call is paired with a
calibration kernel (``calibrate``) timed just before and after it, and
its time is rescaled to the time it would take on a machine where the
kernel takes 1 ms. The host slows the program and the kernel alike, so
rescaled times hold still where raw ones do not.

End-to-end metrics: ``setup_s`` is the median, over fresh processes, of
the rescaled time from process start until the first timed op can run
(import, input generation, one warm-up op). ``norm_ops_per_s`` is the
number of ops in the mix over the sum of their times, each op's time the
median of its rescaled calls. ``peak_rss_mb`` is the process's peak
resident memory after the untimed ops and before the references are
computed. The lines before the result also give the median and
90th-percentile rescaled op latency, the rate of each kind of work
(solves, matchups, flows, episodes per second), and the raw
``ops_per_s`` from each op's fastest call; they are not in the result
because which random games land at a percentile moves them from seed to
seed, and the host moves raw times, by more than the bounds.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a separate traced run
(``spans.py``). Lines before it give the run's metadata and each metric by
name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One thread per process, so runs do not contend with themselves for the
# machine's cores. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, ".out")
# git, run for the build stamp here and by the program's harnesses, looks
# for a repository no higher than the checkout.
os.environ.setdefault("GIT_CEILING_DIRECTORIES", os.path.dirname(ROOT))
SETUP_PROBES = 7  # fresh processes whose median set-up time is setup_s

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (needs the thread settings above)
import numpy as np  # noqa: E402

_CAL_ARRAY = np.arange(64.0)

UNITS = {"setup_s": "s", "norm_ops_per_s": "1/s", "peak_rss_mb": "MB"}
CAL_NOMINAL_S = 1e-3  # calibration kernel time on the machine the op times are rescaled to


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny runs the same mixes at toy sizes, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_op(cli, argv, tracer=None) -> tuple[int, str, float]:
    """One CLI call with stdout and stderr captured: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.run(list(argv)) if tracer is None else tracer.call("cli.run", cli.run, list(argv))
        except Exception as exc:  # an op that raises counts as failed
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def setup(args, workdir: str):
    """Import the program, generate the inputs, run one warm-up op."""
    from honeyflow import cli

    plan = workloads.WORKLOADS[args.workload](workdir, args.seed, args.size)
    code, _, _ = run_op(cli, plan.warmup.argv)
    if code != 0:
        raise RuntimeError(f"warm-up op {plan.warmup.argv} failed: {code}")
    return cli, plan


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from process start until the first timed op could run, in
    fresh processes (the import is paid once per process): as measured,
    and rescaled by the calibration kernel run before and after each
    probe, as the ops are (see ``run_workload``)."""
    times, cals = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        if ready != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
        cals.append(calibrate())
    rescaled = [t * 2 * CAL_NOMINAL_S / (a + b) for t, a, b in zip(times, cals, cals[1:])]
    return times, rescaled


def kernel_path() -> str:
    import importlib

    try:
        kernels = importlib.import_module("honeyflow._kernels")
    except ImportError:
        return "none (no honeyflow._kernels)"
    return "numba" if getattr(kernels, "USING_NUMBA", False) else "pure-numpy"


def build_stamp() -> str:
    """The stamp the experiment harnesses record: ``git describe``."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(args, plan) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "workload_size": plan.size_info,
        "seconds": args.seconds,
        "trace": args.trace,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_path": kernel_path(),
        "build": build_stamp(),
    }


def calibrate() -> float:
    """Seconds the calibration kernel takes: a fixed mix of interpreter
    and small-array NumPy work, the kind of work honeyflow does, so the
    host's swings in speed move it as they move the ops."""
    start = time.perf_counter()
    total = 0.0
    for i in range(150):
        total += float((_CAL_ARRAY * i).sum())
        total += sum({j: j * i for j in range(30)}.values())
    return time.perf_counter() - start


def timed_passes(cli, plan, seconds: float, tracer=None):
    """Repeat the op mix until ``seconds`` have passed. Every op runs at
    least once; after the first pass the run stops at the deadline, or
    with a tracer at the end of the pass that crosses it.

    Untraced, the calibration kernel runs before every call and once at
    the end, and each call is paired with the mean of the two kernel
    times around it. With a tracer, passes alternate between untraced
    and traced, so the tracing overhead is measured under the same
    machine conditions, and nothing is calibrated.
    Returns each op's latencies and their calibration times, per-pass
    (time, traced) pairs of the whole passes, per-pass layer metrics of
    the traced passes, the first output of each op, and for each op that
    failed the reason and how many of its calls failed."""
    latencies = [[] for _ in plan.ops]
    before = [[] for _ in plan.ops]  # index in cals of the kernel run before each call
    cals: list[float] = []
    passes, layers = [], []
    first: dict[int, str] = {}
    failures: dict[int, list] = {}
    start = time.perf_counter()
    done = False
    while not done and (len(passes) < (2 if tracer else 1) or time.perf_counter() - start < seconds):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        busy = 0.0
        try:
            for i, op in enumerate(plan.ops):
                if tracer is None and passes and time.perf_counter() - start >= seconds:
                    done = True
                    break
                if tracer is None:
                    before[i].append(len(cals))
                    cals.append(calibrate())
                code, out, elapsed = run_op(cli, op.argv, tracer if traced else None)
                latencies[i].append(elapsed)
                busy += elapsed
                why = None
                if code != 0:
                    why = f"exit {code}"
                elif first.setdefault(i, out) != out:
                    why = "output differs between passes"
                if why:
                    failures.setdefault(i, [why, 0])[1] += 1
        finally:
            if traced:
                tracer.uninstall()
        if not done:
            passes.append((busy, traced))
        if traced:
            layers.append(tracer.take_pass())
    cals.append(calibrate())
    around = [[(cals[k] + cals[k + 1]) / 2 for k in ks] for ks in before]
    return latencies, around, passes, layers, first, failures


def untimed_ops(cli, plan, first, failures) -> list[float]:
    """Run each of the plan's untimed ops once, after the timed passes."""
    seconds = []
    for i, op in enumerate(plan.once, start=len(plan.ops)):
        code, out, elapsed = run_op(cli, op.argv)
        seconds.append(elapsed)
        first[i] = out
        if code != 0:
            failures[i] = [f"exit {code}", 1]
    return seconds


def check_outputs(args, plan, workdir, first, failures, calls: list[int]) -> str:
    """Check each op's output against its reference; an op whose output
    is wrong failed in every one of its ``calls``."""
    import reference

    refs, source = reference.load_or_compute(args.workload, plan, workdir, args.seed)
    for i, ref in enumerate(refs):
        if i in first and i not in failures:
            try:
                why = reference.check(args.workload, plan, i, first[i], ref)
            except (ValueError, KeyError, TypeError) as exc:
                why = f"unreadable output ({type(exc).__name__}: {exc})"
            if why:
                failures[i] = [why, calls[i]]
    return source


def trace_self_checks(args, plan, layers, tracer) -> list[str]:
    problems = []
    if tracer.min_self_ns < 0:
        problems.append(f"negative self time {tracer.min_self_ns} ns")
    import spans

    for name in spans.DETERMINISTIC_COUNTS:
        values = {p[name] for p in layers if name in p}
        if len(values) > 1:
            problems.append(f"{name} differs between passes: {sorted(values)}")
    for name, expected in plan.counts.items():
        if name in layers[0] and layers[0][name] != expected:
            problems.append(f"{name} = {layers[0][name]} per pass, expected {expected}")
    return problems


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "honeyflow", "__init__.py")):
        print(f"error: no honeyflow package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            setup(args, workdir)
            print("ready", flush=True)
            return 0
        setup_times, setup_norm = ([], []) if args.trace else measure_setup(args)
        cli, plan = setup(args, workdir)
        meta = metadata(args, plan)
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        latencies, around, passes, layers, first, failures = timed_passes(cli, plan, args.seconds, tracer)
        meta["untimed_op_s"] = untimed_ops(cli, plan, first, failures)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = sum(map(len, latencies)) + len(plan.once)
        meta["passes"] = len(passes)
        meta["calls_per_op"] = [min(map(len, latencies)), max(map(len, latencies))]
        calls = [len(c) for c in latencies] + [1] * len(plan.once)
        meta["reference"] = check_outputs(args, plan, workdir, first, failures, calls)
        failed = sum(n for _, n in failures.values())
        problems = [f"op {' '.join(plan.all_ops[i].argv)}: {why}" for i, (why, _) in sorted(failures.items())]
        if tracer is not None:
            untraced = statistics.median(busy for busy, on in passes if not on)
            traced = statistics.median(busy for busy, on in passes if on)
            meta["tracing_overhead_s"] = {"untraced_pass": untraced, "traced_pass": traced,
                                          "difference": traced - untraced}
            problems += trace_self_checks(args, plan, layers, tracer)
            os.makedirs(OUT, exist_ok=True)
            spans_path = os.path.join(OUT, f"spans-{args.workload}.csv")
            meta["spans"] = {"file": os.path.relpath(spans_path, ROOT),
                             "count": tracer.write_spans(spans_path)}
            metrics = {name: {"value": value, "unit": spans.unit(name)}
                       for name, value in spans.median_metrics(layers).items()}
            extra = {}
        else:
            # each op counts with the median of its rescaled calls
            norm = [
                statistics.median(t * CAL_NOMINAL_S / c for t, c in zip(ts, cs))
                for ts, cs in zip(latencies, around)
            ]
            values = {
                "setup_s": statistics.median(setup_norm),
                "norm_ops_per_s": len(norm) / sum(norm),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
            cal_all = [c for cs in around for c in cs]
            meta["setup_probes_s"] = {"measured": setup_times, "rescaled": setup_norm}
            meta["calibration_ms"] = {"min": min(cal_all) * 1e3, "median": statistics.median(cal_all) * 1e3,
                                      "max": max(cal_all) * 1e3}
            extra = secondary_metrics(plan, norm, [min(ts) for ts in latencies])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report(meta, metrics, extra, attempted, failed, problems)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def secondary_metrics(plan, norm, best) -> dict:
    """Printed, not gated: latency percentiles over the mix's ops and the
    rate of each kind of work, from the rescaled op times, and the mix's
    rate from each op's fastest call as measured."""
    ms = [n * 1e3 for n in norm]
    extra = {
        "norm_op_p50_ms": (statistics.median(ms), f"ms over {len(ms)} ops"),
        "norm_op_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], f"ms over {len(ms)} ops"),
    }
    for kind in dict.fromkeys(op.kind for op in plan.ops):
        mine = [(op.work, n) for op, n in zip(plan.ops, norm) if op.kind == kind]
        extra[f"norm_{kind}_per_s"] = (sum(w for w, _ in mine) / sum(n for _, n in mine), "1/s")
    extra["ops_per_s"] = (len(best) / sum(best), "1/s, fastest calls as measured")
    return extra


def report(meta, metrics, extra, attempted, failed, problems) -> None:
    """Human-readable lines: metadata, then every metric by name and unit."""
    print(f"meta {json.dumps(meta, sort_keys=True)}")
    for why in problems:
        print(f"FAILED {why}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(f"{'failed_frac':28s} {failed / attempted:.6g} ratio")


def run_all(args) -> int:
    """Every workload in its own process, untraced and then traced."""
    summary, status = {}, 0
    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced), "--size", args.size]
            print(f"== {name} trace={traced}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= not result["correct"]
            summary.setdefault(name, {})[f"trace{traced}"] = result
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
