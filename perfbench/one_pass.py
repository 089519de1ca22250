"""Run the CLI steps of one benchmark pass in a fresh interpreter.

Usage: python3 perfbench/one_pass.py PLAN META_DIR TRACE RUN_ID

The working directory is the pass's output directory.  PLAN is a JSON list of
argument lists; each is handed in turn to ``bargainlab.cli.main`` in this
process, and the exit codes go to META_DIR/codes.json.  Every process of the
pass (this one and each forked sweep worker) writes its own resource usage to
META_DIR/usage-<pid>.json when it ends, so that the caller can account for
the whole process tree.  With TRACE=1 the layer functions are wrapped before
the first step and their spans go to META_DIR as well.
"""

import json
import os
import resource
import sys
from multiprocessing import util as mp_util


def peak_rss_kb() -> int:
    """Peak resident set of this process's own memory image (VmHWM).

    ``ru_maxrss`` is not used: Linux carries it across exec, so a fresh
    interpreter would report at least the RSS of the process that started it.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def write_usage(meta_dir: str, role: str) -> None:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(os.path.join(meta_dir, f"usage-{os.getpid()}.json"), "w") as fh:
        json.dump({
            "pid": os.getpid(), "role": role,
            "peak_rss_kb": peak_rss_kb(),
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }, fh)


class WorkerUsage:
    """Makes each multiprocessing worker forked from this process write its
    resource usage as it exits (multiprocessing finalizers run there)."""

    def __init__(self, meta_dir: str):
        self.meta_dir = meta_dir
        mp_util.register_after_fork(self, WorkerUsage._arm)

    def _arm(self) -> None:
        mp_util.Finalize(None, write_usage, (self.meta_dir, "worker"),
                         exitpriority=100)


def main() -> int:
    plan_path, meta_dir, trace, run_id = sys.argv[1:5]
    with open(plan_path) as fh:
        steps = json.load(fh)
    worker_usage = WorkerUsage(meta_dir)  # noqa: F841  (kept alive for forks)

    from bargainlab import cli

    recorder = None
    if trace == "1":
        import tracer

        recorder = tracer.Recorder(meta_dir, run_id)
        with open(os.path.join(meta_dir, "wrapped.json"), "w") as fh:
            json.dump(tracer.install(recorder), fh)

    codes = [cli.main(argv) for argv in steps]

    if recorder is not None:
        recorder.write()
    with open(os.path.join(meta_dir, "codes.json"), "w") as fh:
        json.dump(codes, fh)
    write_usage(meta_dir, "main")
    return 0


if __name__ == "__main__":
    sys.exit(main())
