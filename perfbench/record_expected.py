"""Record the golden digests and exact counts the benchmark checks at the
default seed, into perfbench/expected.json.

Usage (from the repository root): python3 perfbench/record_expected.py

Run it only when a change to the program's outputs is intended and has been
reviewed; the benchmark otherwise treats any difference from these digests
and counts as a failed operation.  It records nothing when a pass fails its
exit-code or row-count checks.
"""

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import tracer
    import workloads

    ctx = run.make_context()
    expected = {"digests": {}, "counts": {}}
    try:
        for name in workloads.NAMES:
            workload = workloads.build(name, workloads.DEFAULT_SEED)
            plain = run.run_pass(ctx, workload, workload.steps, f"{name}-0",
                                 False, {})
            traced = run.run_pass(ctx, workload, workload.steps, f"{name}-1",
                                  True, plain.digests)
            errors = plain.errors + traced.errors
            if errors:
                print(f"{name}: not recorded", *errors[:20], sep="\n  ",
                      file=sys.stderr)
                return 1
            expected["digests"][name] = plain.digests
            expected["counts"][name] = {
                key: traced.layers[key] for key in tracer.EXACT_COUNTS
            }
            print(f"{name}: {len(plain.digests)} digests, "
                  f"{expected['counts'][name]}")
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    with open(run.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
