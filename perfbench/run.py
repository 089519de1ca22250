"""bargainlab benchmark: four CLI workloads, end-to-end time and memory, and
per-layer spans from a separate traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sweep-ref, sweep-d64, regret-curves, spe-market, or ``all``
(every workload, untraced and traced, with a table of all metrics).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
numbers for a reader, with the environment they were measured in.

Each pass runs the workload's CLI steps in a fresh interpreter
(``perfbench/one_pass.py``) with ``PYTHONPATH=src``, BLAS and OpenMP threads
capped at ``nproc`` and ``--jobs`` passed explicitly.  Passes repeat for S
seconds.  With ``--trace 0`` the result holds the end-to-end metrics of the
untraced passes.  With ``--trace 1`` untraced and traced passes alternate
and the result holds the per-layer metrics of the traced passes, plus the
tracing overhead.  Every step's exit code and output files are checked;
see ``perfbench/README.md`` for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
EXPECTED = BENCH_DIR / "expected.json"

SETUP_SAMPLES = 10
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

RSS_COMBINATION = (
    "peak_rss_mb sums the peak RSS of every process of the pass (the pass "
    "interpreter and each sweep worker), because the workers run at the same "
    "time; pages a forked worker shares copy-on-write with its parent count "
    "once per process, so the sum bounds the simultaneous peak from above"
)


@dataclass
class Context:
    env: Dict[str, str]
    nproc: int
    expected: dict
    work: Path


@dataclass
class PassResult:
    trace: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    codes: List[int]
    errors: List[str] = field(default_factory=list)
    failed_steps: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    layers: Optional[dict] = None
    wrapped: List[str] = field(default_factory=list)


def make_context() -> Context:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.pop("BARGAINLAB_JOBS", None)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    return Context(env=env, nproc=nproc, expected=expected,
                   work=WORK / f"run-{os.getpid()}")


def environment(ctx: Context) -> dict:
    import multiprocessing

    import numpy

    return {
        "interpreter": f"{sys.implementation.name} {sys.version.split()[0]}",
        "numpy": numpy.__version__,
        "nproc": ctx.nproc,
        "threads": {var: ctx.env[var] for var in THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
    }


def measure_setup(ctx: Context) -> float:
    """Seconds for a fresh interpreter to import bargainlab.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bargainlab.cli"],
                   env=ctx.env, check=True)
    return time.perf_counter() - start


def run_pass(ctx: Context, workload, steps, label: str, trace: bool,
             expect: Dict[str, str]) -> PassResult:
    """Run one pass in a fresh interpreter and check every step's outputs.

    ``expect`` maps output file names to the sha256 their bytes must have.
    """
    pass_dir = ctx.work / label
    out_dir, meta_dir = pass_dir / "out", pass_dir / "meta"
    out_dir.mkdir(parents=True)
    meta_dir.mkdir()
    for name, text in workload.inputs.items():
        (out_dir / name).write_text(text)
    plan = pass_dir / "plan.json"
    plan.write_text(json.dumps([step.argv for step in steps]))

    with open(meta_dir / "stderr.txt", "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "one_pass.py"), str(plan),
             str(meta_dir), "1" if trace else "0", label],
            cwd=out_dir, env=ctx.env, stdout=subprocess.DEVNULL, stderr=stderr,
        )
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)

    # the pass waited for its workers, so the rusage of the pass covers them
    result = PassResult(trace=trace, wall_s=wall,
                        cpu_s=usage.ru_utime + usage.ru_stime,
                        peak_rss_mb=0.0, codes=[])
    if proc.returncode != 0:
        tail = (meta_dir / "stderr.txt").read_text()[-2000:]
        result.errors.append(f"pass exited {proc.returncode}: {tail}")
        result.failed_steps = len(steps)
        shutil.rmtree(pass_dir)
        return result

    result.codes = json.loads((meta_dir / "codes.json").read_text())
    usages = [json.loads(p.read_text()) for p in meta_dir.glob("usage-*.json")]
    result.peak_rss_mb = sum(u["peak_rss_kb"] for u in usages) / 1024
    for index, (step, code) in enumerate(zip(steps, result.codes)):
        errors = []
        try:
            files = {name: (out_dir / name).read_bytes() for name in step.outputs}
            errors = step.check(code, files)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            files = {}
            errors = [f"output check raised {exc!r}"]
        for name, data in files.items():
            digest = hashlib.sha256(data).hexdigest()
            result.digests[name] = digest
            if name in expect and expect[name] != digest:
                errors.append(f"{name}: sha256 differs from {expect[name]}")
        if errors:
            result.failed_steps += 1
            result.errors += [f"step {index} ({step.argv[0]}): {e}" for e in errors]
    if trace:
        import tracer

        result.layers = tracer.layer_metrics(tracer.read_spans(str(meta_dir)),
                                             proc.pid)
        result.wrapped = json.loads((meta_dir / "wrapped.json").read_text())
    shutil.rmtree(pass_dir)
    return result


def jobs1_errors(jobs1: PassResult, reference: Dict[str, str]) -> List[str]:
    """sweep-ref outputs at --jobs 1 must equal those at --jobs 2, except
    the manifest, which records the jobs setting itself."""
    return jobs1.errors + [
        f"{name} at --jobs 1 differs from the timed passes"
        for name, digest in jobs1.digests.items()
        if not name.endswith("manifest.json") and reference.get(name) != digest
    ]


def percentile_with_ten_beyond(values: List[float]) -> Optional[tuple]:
    """(percent, value) of the highest order statistic with at least ten
    samples above it, or None when there are fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def run_workload(ctx: Context, name: str, seed: int, seconds: int,
                 trace: bool) -> dict:
    import tracer
    import workloads

    workload = workloads.build(name, seed)
    # the first import writes the bytecode caches, which users pay once per
    # install, not once per run, so it is not a sample
    measure_setup(ctx)
    setup = [measure_setup(ctx)]

    passes: List[PassResult] = []
    errors: List[str] = []
    # outputs must match the golden digests at the default seed, and at any
    # other seed the run's first pass
    reference: Dict[str, str] = {}
    if seed == workloads.DEFAULT_SEED:
        reference = ctx.expected["digests"][name]
        errors += [f"no golden digest for {output}"
                   for step in workload.steps for output in step.outputs
                   if output not in reference]
    started = time.perf_counter()
    # the determinism cross-check is not timed, but counts against the run
    jobs1 = None
    if workload.jobs1_steps is not None:
        jobs1 = run_pass(ctx, workload, workload.jobs1_steps, "jobs1", False, {})
    while True:
        traced = sum(p.trace for p in passes)
        untraced = len(passes) - traced
        enough = (traced >= MIN_TRACED_PASSES and untraced >= 1) if trace \
            else len(passes) >= MIN_PASSES
        # start no pass that would likely end after the run's time is up
        if enough and time.perf_counter() - started + statistics.median(
                p.wall_s for p in passes) > seconds:
            break
        # set-up samples are spread over the run, like the passes, so that
        # both see the same changes in machine speed
        if time.perf_counter() - started >= seconds * len(setup) / SETUP_SAMPLES:
            setup.append(measure_setup(ctx))
        # traced runs alternate with untraced ones, which start first
        as_traced = trace and untraced > traced
        result = run_pass(ctx, workload, workload.steps, f"pass{len(passes)}",
                          as_traced, reference)
        if not reference:
            reference = dict(result.digests)
        errors += [f"pass {len(passes)}: {e}" for e in result.errors]
        passes.append(result)

    attempted = len(workload.steps) * len(passes)
    failed = sum(p.failed_steps for p in passes)
    if jobs1 is not None:
        mismatched = jobs1_errors(jobs1, reference)
        attempted += 1
        failed += bool(mismatched)
        errors += [f"jobs1: {e}" for e in mismatched]

    setup_s = statistics.median(setup)
    plain = [p for p in passes if not p.trace]
    walls = [p.wall_s for p in plain]
    report = {
        "workload": name, "seed": seed, "trace": int(trace),
        "items": workload.items, "item_unit": workload.item_unit,
        "environment": environment(ctx), "rss_combination": RSS_COMBINATION,
        "setup_samples_s": setup,
        "passes": [
            {"trace": p.trace, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
             "peak_rss_mb": p.peak_rss_mb, "failed_steps": p.failed_steps}
            for p in passes
        ],
        "wall_s_tail": percentile_with_ten_beyond(walls),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
    }
    if trace:
        # a pass that crashed has no layers; its failure is already counted
        layers = [p.layers for p in passes if p.trace and p.layers] \
            or [tracer.layer_metrics([], 0)]
        # counts repeat exactly (checked below), times vary: take medians
        metrics = {
            key: layers[0][key] if key in tracer.EXACT_COUNTS
            else statistics.median(layer[key] for layer in layers)
            for key in layers[0]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in passes if p.trace)
            - statistics.median(walls)
        )
        errors += count_mismatches(ctx, workload, layers, tracer.EXACT_COUNTS)
        report["layers_per_pass"] = layers
        report["wrapped"] = next((p.wrapped for p in passes if p.wrapped), [])
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(
                workload.items / (w - setup_s) for w in walls
            ),
            "cpu_s": statistics.median(p.cpu_s for p in plain),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
            "setup_s": setup_s,
        }
    report["metrics"] = metrics
    report["correct"] = not errors
    report["errors"] = errors[:200]
    WORK.mkdir(exist_ok=True)
    report_path = WORK / f"report-{name}-seed{seed}-trace{int(trace)}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    report["report_path"] = str(report_path.relative_to(ROOT))
    return report


def count_mismatches(ctx: Context, workload, layers: List[dict],
                     names) -> List[str]:
    """Exact counts must repeat across traced passes, and at the default
    seed must equal the counts recorded with the golden digests."""
    import workloads

    errors = []
    golden = ctx.expected["counts"][workload.name]
    for key in names:
        values = {layer[key] for layer in layers}
        if len(values) != 1:
            errors.append(f"count {key} differs between traced passes: {values}")
        elif workload.seed == workloads.DEFAULT_SEED and golden.get(key) not in values:
            errors.append(f"count {key} = {values.pop()}, recorded {golden.get(key)}")
    return errors


def print_report(report: dict, units: Dict[str, str]) -> None:
    env = report["environment"]
    print(
        f"# {report['workload']}  seed {report['seed']}  trace {report['trace']}"
        f"  passes {len(report['passes'])}  items/pass {report['items']}"
        f" {report['item_unit']}"
    )
    print(
        f"#   {env['interpreter']}, numpy {env['numpy']}, nproc {env['nproc']},"
        f" threads {','.join(f'{k}={v}' for k, v in env['threads'].items())},"
        f" start method {env['start_method']}"
    )
    for key, value in report["metrics"].items():
        note = ""
        if key == "wall_s":
            walls = [p["wall_s"] for p in report["passes"] if not p["trace"]]
            tail = report["wall_s_tail"]
            note = (f"  median of {len(walls)}; "
                    + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                       else "no percentile has ten samples beyond it"))
        print(f"  {key:40s} {value:14.6g} {units.get(key, '')}{note}")
    print(f"  {'failed_frac':40s} {report['failed_frac']:14.6g} "
          f"({report['failed']}/{report['attempted']} operations)")
    if report["trace"] == 0:
        print(f"#   {RSS_COMBINATION}")
    for error in report["errors"][:20]:
        print(f"!   {error}")
    print(f"#   full report: {report['report_path']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bargainlab" / "cli.py").is_file():
        print(f"error: {SRC / 'bargainlab' / 'cli.py'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(name not in workloads.NAMES for name in names):
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}, all")
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    ctx = make_context()
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    reports = []
    try:
        for name in names:
            for trace in modes:
                report = run_workload(ctx, name, args.seed, args.seconds, trace)
                print_report(report, units)
                reports.append(report)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    # with --workload all, metric names carry the workload as a prefix
    metrics = {
        (key if len(reports) == 1 else f"{r['workload']}.{key}"):
            {"value": value, "unit": units[key]}
        for r in reports for key, value in r["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
