"""The benchmark's four workloads: inputs made from the seed, the CLI steps of
one pass, and the checks on each step's exit code and output files.

Seed 0 reproduces the settings of the three ``scripts/`` runs exactly.  Other
seeds change the generated inputs only (sweep anchors, the regret adversaries'
cycle values and the sampled market targets); sizes, horizons and every other
setting are the same at every seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

DEFAULT_SEED = 0

LEVELS_16 = "0.0625,0.1875,0.3125,0.4375,0.5625,0.6875,0.8125,0.9375"
LEVELS_64 = "0.0625,0.3125,0.5625,0.8125"
HORIZONS = (100, 400, 1600)
REGRET_ADVERSARIES = 8
MARKET_TARGETS = 1000
REGION_RESOLUTION = 200

# Unconverged cells at the default seed.  Acceptance criterion 4 of the
# project is red on purpose: the reference sweep leaves 28 of 4096 cells
# unconverged at T=300, and any other count is a failed operation.
UNCONVERGED_AT_DEFAULT = {"sweep-ref": 28, "sweep-d64": 0}

REGRET_ADVERSARY_DEFAULT = '{\n  "default": {"cycle": [[0.3], [0.6]]}\n}\n'

Check = Callable[[int, Dict[str, bytes]], List[str]]


@dataclass
class Step:
    """One call of ``bargainlab.cli.main``, its outputs and their check."""

    argv: List[str]
    outputs: List[str]
    check: Check


@dataclass
class Workload:
    name: str
    seed: int
    items: int
    item_unit: str
    steps: List[Step]
    inputs: Dict[str, str] = field(default_factory=dict)
    jobs1_steps: Optional[List[Step]] = None


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _csv_rows(data: bytes) -> List[List[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


def _manifest_errors(data: bytes, command: str) -> List[str]:
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"manifest is not JSON: {exc}"]
    if doc.get("command") != command:
        return [f"manifest command {doc.get('command')!r} != {command!r}"]
    return []


def _sweep_check(cells: int, groups: int, unconverged: Optional[int]) -> Check:
    def check(code: int, files: Dict[str, bytes]) -> List[str]:
        errors = []
        rows = _csv_rows(files["sweep_cells.csv"])
        if len(rows) != cells + 1:
            errors.append(f"sweep_cells.csv has {len(rows) - 1} rows, want {cells}")
        column = rows[0].index("converged")
        missing = sum(1 for row in rows[1:] if row[column] == "false")
        if unconverged is not None and missing != unconverged:
            errors.append(f"{missing} unconverged cells, want {unconverged}")
        want_code = 3 if missing else 0
        if code != want_code:
            errors.append(f"exit {code} with {missing} unconverged, want {want_code}")
        agg = _csv_rows(files["sweep_agg.csv"])
        if len(agg) != groups + 1:
            errors.append(f"sweep_agg.csv has {len(agg) - 1} rows, want {groups}")
        if b"<svg" not in files["sweep_heatmap.svg"][:100]:
            errors.append("sweep_heatmap.svg is not an SVG document")
        errors += _manifest_errors(files["sweep_manifest.json"], "sweep")
        return errors

    return check


def _regret_check(code: int, files: Dict[str, bytes]) -> List[str]:
    errors = [] if code == 0 else [f"exit {code}, want 0"]
    curves, manifest = files.values()
    rows = _csv_rows(curves)[1:]
    if [row[0] for row in rows] != [str(h) for h in HORIZONS]:
        errors.append(f"regret curve horizons {[r[0] for r in rows]}")
    if not all(math.isfinite(float(v)) for row in rows for v in row[1:]):
        errors.append("regret curves hold a non-finite value")
    return errors + _manifest_errors(manifest, "regret")


def _region_check(code: int, files: Dict[str, bytes]) -> List[str]:
    errors = [] if code == 0 else [f"exit {code}, want 0"]
    rows = _csv_rows(files["spe_region.csv"])
    if len(rows) != REGION_RESOLUTION ** 2 + 1:
        errors.append(f"spe_region.csv has {len(rows) - 1} rows")
    return errors + _manifest_errors(files["spe_region_manifest.json"], "spe-region")


def _gaps_check(code: int, files: Dict[str, bytes]) -> List[str]:
    errors = [] if code == 0 else [f"exit {code}, want 0"]
    if len(_csv_rows(files["spe_gaps.csv"])) != 2:
        errors.append("spe_gaps.csv does not hold exactly one row")
    return errors


def _verify_check(code: int, files: Dict[str, bytes]) -> List[str]:
    # a feasible target drawn inside the region must verify cleanly
    errors = [] if code == 0 else [f"exit {code}, want 0"]
    (data,) = files.values()
    doc = json.loads(data)
    if not (doc["feasible"] and doc["prop2"] and doc["deviation_count"] == 0):
        errors.append("certificate not clean")
    return errors


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _anchors(seed: int) -> List[str]:
    """alpha-p and alpha-r, each two multiples of 1/16 strictly inside (0, 1)."""
    if seed == DEFAULT_SEED:
        return ["0.125,0.375", "0.375,0.875"]
    rng = np.random.default_rng(seed)
    return [
        ",".join(repr(int(k) / 16) for k in rng.integers(1, 16, size=2))
        for _ in range(2)
    ]


def _sweep(name: str, seed: int, grid: int, rate: int, levels: str,
           jobs: int) -> Workload:
    alpha_p, alpha_r = _anchors(seed)
    outputs = ["sweep_cells.csv", "sweep_agg.csv", "sweep_heatmap.svg",
               "sweep_manifest.json"]
    side = len(levels.split(",")) ** 2
    check = _sweep_check(
        side * side, side,
        UNCONVERGED_AT_DEFAULT[name] if seed == DEFAULT_SEED else None,
    )

    def step(jobs_value: int) -> Step:
        return Step([
            "sweep", "--rounds", "2", "--delta", "0.9", "--grid", str(grid),
            "--rate", str(rate), "--reg", "1", "--horizon", "300",
            "--wp-values", levels, "--wr-values", levels,
            "--alpha-p", alpha_p, "--alpha-r", alpha_r,
            "--jobs", str(jobs_value),
            "--agg", "over-responder", "--agg-payoff", "P",
            "--out", outputs[0], "--agg-out", outputs[1],
            "--svg", outputs[2], "--manifest", outputs[3],
        ], outputs, check)

    return Workload(
        name=name, seed=seed, items=side * side, item_unit="cells",
        steps=[step(jobs)],
        jobs1_steps=[step(1)] if jobs != 1 else None,
    )


def _regret(seed: int) -> Workload:
    """The script's regret command against REGRET_ADVERSARIES cycling
    adversaries in one interpreter; at the default seed the first is the
    script's own.  One command alone is mostly interpreter start-up, whose
    time varies most from run to run on a shared machine."""
    rng = np.random.default_rng(seed)
    steps, inputs = [], {}
    for index in range(REGRET_ADVERSARIES):
        if seed == DEFAULT_SEED and index == 0:
            adversary = REGRET_ADVERSARY_DEFAULT
        else:
            # multiples of 1/100 lie on every horizon's grid (D = T), so the
            # learner takes the same code path at every seed
            a, b = rng.integers(1, 100, size=2)
            adversary = (
                '{\n  "default": {"cycle": [[%r], [%r]]}\n}\n'
                % (int(a) / 100, int(b) / 100)
            )
        suffix = f"_{index}" if index else ""
        name = f"adversary_cycle{suffix}.json"
        inputs[name] = adversary
        outputs = [f"regret_curves{suffix}.csv", f"regret_manifest{suffix}.json"]
        steps.append(Step([
            "regret", "--rounds", "1", "--delta", "0.9", "--reg", "2",
            "--horizons", ",".join(str(h) for h in HORIZONS),
            "--adversary", name,
            "--out", outputs[0], "--manifest", outputs[1],
        ], outputs, _regret_check))
    return Workload(
        name="regret-curves", seed=seed,
        items=REGRET_ADVERSARIES * sum(HORIZONS),
        item_unit="learner steps", steps=steps, inputs=inputs,
    )


def _spe_market(seed: int) -> Workload:
    from bargainlab.spe import sample_feasible_instance

    market = ["--delta", "0.9", "--tau", "0.4", "--p", "0.5"]
    steps = [
        Step(["spe-region", *market, "--mode", "enumerate",
              "--resolution", str(REGION_RESOLUTION),
              "--out", "spe_region.csv",
              "--manifest", "spe_region_manifest.json"],
             ["spe_region.csv", "spe_region_manifest.json"], _region_check),
        Step(["spe-region", *market, "--mode", "gaps", "--out", "spe_gaps.csv"],
             ["spe_gaps.csv"], _gaps_check),
    ]
    rng = np.random.default_rng(seed)
    for index in range(MARKET_TARGETS):
        params, target = sample_feasible_instance(rng)
        out = f"verify_{index:04d}.json"
        steps.append(Step([
            "verify-spe", "--delta", repr(params.delta), "--tau",
            repr(params.tau), "--p", repr(params.p), "--w1", repr(target.w1),
            "--w2", repr(target.w2), "--scan-grid", "200", "--out", out,
        ], [out], _verify_check))
    return Workload(
        name="spe-market", seed=seed,
        items=REGION_RESOLUTION ** 2 + MARKET_TARGETS, item_unit="market targets",
        steps=steps,
    )


FACTORIES = {
    "sweep-ref": lambda seed: _sweep("sweep-ref", seed, 16, 40, LEVELS_16, 2),
    "sweep-d64": lambda seed: _sweep("sweep-d64", seed, 64, 160, LEVELS_64, 1),
    "regret-curves": _regret,
    "spe-market": _spe_market,
}

NAMES = tuple(FACTORIES)


def build(name: str, seed: int) -> Workload:
    return FACTORIES[name](seed)
