"""Command-line front end for the bargaining laboratory.

Subcommands
-----------
run         one self-play learning run, emitted as a JSON record
sweep       grid of self-play runs over initial strategies (CSV, optional
            aggregated CSV + SVG heatmap)
spe-region  feasibility map / closed-form payoff gaps for steady-state
            market targets (CSV)
regret      learner-vs-scripted-adversary regret experiments (CSV)
verify-spe  certificate construction + stationarity + one-shot deviation
            scan for one market target (JSON)

Settings come from flags, from a flat ``key=value`` config file, or from a
previously emitted run-manifest JSON (``--config`` accepts either form);
flags always win.  Exit codes: 0 success, 2 invalid input, 3 completed
without convergence.  No output file is written when validation fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .dynamics import (
    batch_self_play,
    external_regret,
    make_adversary,
    self_play,
    _grid_utilities_vs_value_play,
)
from .ftrl import (
    LearnerConfig,
    MixedStrategy,
    Strategy,
    l1_update,
    l2_update,
    make_learner,
    step,
)
from .game import GameConfig, strategy_index
from .reports import RunManifest, heatmap_svg, write_csv, write_json
from .spe import (
    MarketParams,
    PayoffTarget,
    construct_certificate,
    expected_match_payoffs,
    feasibility_violations,
    one_shot_deviation_scan,
    payoff_gaps,
    prop2_check,
    theorem1_feasible,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3

MAX_REPORTED_DEVIATIONS = 50


class ConfigError(Exception):
    """Invalid command-line or config-file input (exit code 2)."""


# ---------------------------------------------------------------------------
# configuration resolution: defaults < config file < flags
# ---------------------------------------------------------------------------

COMMAND_KEYS: Dict[str, Tuple[str, ...]] = {
    "run": (
        "rounds", "delta", "grid", "rate", "reg", "horizon",
        "wp", "wr", "alpha-p", "alpha-r", "trace", "snap",
    ),
    "sweep": (
        "rounds", "delta", "grid", "rate", "reg", "horizon",
        "wp", "wr", "wp-values", "wr-values", "alpha-p", "alpha-r",
        "snap", "agg", "agg-payoff", "jobs",
    ),
    "spe-region": (
        "delta", "tau", "p", "mode", "resolution", "samples", "seed",
    ),
    "regret": (
        "rounds", "delta", "reg", "horizons", "adversary",
        "grid", "rate", "wp", "alpha-p",
    ),
    "verify-spe": (
        "delta", "tau", "p", "w1", "w2", "z-rule", "scan-grid",
    ),
}

COMMAND_DEFAULTS: Dict[str, Dict[str, str]] = {
    "run": {"rounds": "1", "delta": "0.9", "reg": "1",
            "trace": "false", "snap": "false"},
    "sweep": {"rounds": "1", "delta": "0.9", "reg": "1", "snap": "false",
              "agg": "none", "agg-payoff": "P"},
    "spe-region": {"mode": "enumerate", "resolution": "50",
                   "samples": "100", "seed": "0"},
    "regret": {"rounds": "1", "delta": "0.9", "reg": "2"},
    "verify-spe": {"z-rule": "midpoint", "scan-grid": "200"},
}


def _load_config_file(path: str, command: str) -> Dict[str, str]:
    """Read a flat key=value file or a run-manifest JSON for ``command``."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(doc, dict) or "command" not in doc \
                or not isinstance(doc.get("config"), dict):
            raise ConfigError("JSON config file is not a run manifest")
        if doc["command"] != command:
            raise ConfigError(
                f"manifest was produced by {doc['command']!r}, "
                f"not by {command!r}"
            )
        return {str(k): str(v) for k, v in doc["config"].items()}
    settings: Dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {number}: expected key=value")
        key, _, value = line.partition("=")
        settings[key.strip()] = value.strip()
    return settings


class Resolver:
    """Merge defaults, config-file values, and flags for one command.

    Getter methods both parse a setting and record its canonical string
    form, so that ``resolved_config()`` can be replayed through ``--config``
    to reproduce the run byte for byte.
    """

    def __init__(self, command: str, args: argparse.Namespace):
        keys = COMMAND_KEYS[command]
        raw = dict(COMMAND_DEFAULTS[command])
        if getattr(args, "config", None):
            file_cfg = _load_config_file(args.config, command)
            for key in sorted(file_cfg):
                if key not in keys:
                    raise ConfigError(f"unknown configuration key: {key!r}")
            raw.update(file_cfg)
        for key in keys:
            flag = getattr(args, key.replace("-", "_"), None)
            if isinstance(flag, bool):
                if flag:
                    raw[key] = "true"
            elif flag is not None:
                raw[key] = flag
        self.raw = raw
        self.resolved: Dict[str, str] = {}

    def has(self, key: str) -> bool:
        return self.raw.get(key) is not None

    def _require(self, key: str) -> str:
        value = self.raw.get(key)
        if value is None:
            raise ConfigError(f"missing required setting: {key}")
        return value

    def get_int(self, key: str, minimum: Optional[int] = None) -> int:
        raw = self._require(key)
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
        self.resolved[key] = str(value)
        return value

    def get_float(
        self,
        key: str,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ) -> float:
        raw = self._require(key)
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {raw!r}")
        if low is not None and value < low:
            raise ConfigError(f"{key}: must be >= {low}, got {raw!r}")
        if high is not None and value > high:
            raise ConfigError(f"{key}: must be <= {high}, got {raw!r}")
        self.resolved[key] = repr(value)
        return value

    def get_bool(self, key: str) -> bool:
        raw = self._require(key).lower()
        if raw in ("true", "1", "yes"):
            value = True
        elif raw in ("false", "0", "no"):
            value = False
        else:
            raise ConfigError(f"{key}: expected true or false, got {raw!r}")
        self.resolved[key] = "true" if value else "false"
        return value

    def get_choice(self, key: str, choices: Sequence[str]) -> str:
        raw = self._require(key)
        if raw not in choices:
            raise ConfigError(
                f"{key}: expected one of {', '.join(choices)}; got {raw!r}"
            )
        self.resolved[key] = raw
        return raw

    def get_string(self, key: str) -> str:
        raw = self._require(key)
        self.resolved[key] = raw
        return raw

    def get_int_list(self, key: str) -> List[int]:
        raw = self._require(key)
        try:
            values = [int(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated integers")
        if not values:
            raise ConfigError(f"{key}: at least one value required")
        self.resolved[key] = ",".join(str(v) for v in values)
        return values

    def get_float_list(self, key: str) -> List[float]:
        raw = self._require(key)
        try:
            values = [float(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated numbers")
        if not values:
            raise ConfigError(f"{key}: at least one value required")
        for v in values:
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{key}: values must lie in [0, 1]")
        self.resolved[key] = ",".join(repr(v) for v in values)
        return values

    def get_strategy(
        self,
        key: str,
        grid: int,
        rounds: int,
        snap: bool,
        rounding: List[str],
    ) -> Tuple[int, ...]:
        """Parse a comma-separated strategy literal into grid numerators."""
        raw = self._require(key)
        parts = [part for part in raw.split(",") if part.strip()]
        if len(parts) != rounds:
            raise ConfigError(
                f"{key}: expected {rounds} comma-separated values, "
                f"got {len(parts)}"
            )
        entries = []
        canonical = []
        for position, part in enumerate(parts, start=1):
            value = _snap_to_grid(key, position, part, grid, snap, rounding)
            entries.append(value)
            canonical.append(repr(value / grid))
        self.resolved[key] = ",".join(canonical)
        return tuple(entries)

    def get_grid_values(
        self,
        key: str,
        grid: int,
        snap: bool,
        rounding: List[str],
    ) -> List[int]:
        """Parse per-coordinate sweep levels, each a single grid value."""
        raw = self._require(key)
        parts = [part for part in raw.split(",") if part.strip()]
        if not parts:
            raise ConfigError(f"{key}: at least one value required")
        levels = []
        canonical = []
        for position, part in enumerate(parts, start=1):
            value = _snap_to_grid(key, position, part, grid, snap, rounding)
            levels.append(value)
            canonical.append(repr(value / grid))
        self.resolved[key] = ",".join(canonical)
        return levels


def _snap_to_grid(
    key: str,
    position: int,
    raw: str,
    grid: int,
    snap: bool,
    rounding: List[str],
) -> int:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}")
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{key}: {raw!r} is outside [0, 1]")
    scaled = value * grid
    nearest = math.floor(scaled + 0.5)
    nearest = min(max(nearest, 0), grid)
    if abs(scaled - nearest) <= 1e-9 * max(1.0, grid):
        return int(nearest)
    if snap:
        rounding.append(f"{key}[{position}]: {value!r} -> {nearest / grid!r}")
        return int(nearest)
    below = math.floor(scaled) / grid
    above = math.ceil(scaled) / grid
    raise ConfigError(
        f"{key}: {value!r} is not a multiple of 1/{grid}; "
        f"nearest grid values are {below!r} and {above!r}"
    )


def _check_writable(path: Optional[str]) -> None:
    if path is None:
        return
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory does not exist: {directory}")
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"output directory is not writable: {directory}")


def _wrap_value_error(builder, *args, **kwargs):
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _play_json(play) -> object:
    if isinstance(play, Strategy):
        return [entry / play.denom for entry in play.entries]
    if isinstance(play, MixedStrategy):
        return {"weights": [float(w) for w in play.weights]}
    raise TypeError(f"unexpected play type: {type(play)!r}")  # pragma: no cover


def _profile_json(profile) -> list:
    return [_play_json(profile[0]), _play_json(profile[1])]


def _print_rate_warning(game: GameConfig, config: LearnerConfig) -> None:
    """Report on stderr when the pure-play rule's rate is too low for the grid."""
    warning = config.rate_warning_for(game)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    res = Resolver("run", args)
    rounds = res.get_int("rounds", minimum=1)
    delta = res.get_float("delta", low=0.0, high=1.0)
    grid = res.get_int("grid", minimum=1)
    rate = res.get_float("rate", low=0.0)
    reg = res.get_int("reg")
    if reg not in (1, 2):
        raise ConfigError(f"reg: supported regularizer exponents are 1 and 2, got {reg}")
    res.resolved["reg"] = str(reg)
    horizon = res.get_int("horizon", minimum=1)
    trace = res.get_bool("trace")
    snap = res.get_bool("snap")
    rounding: List[str] = []
    wp = res.get_strategy("wp", grid, rounds, snap, rounding)
    wr = res.get_strategy("wr", grid, rounds, snap, rounding)
    alpha_p = res.get_strategy("alpha-p", grid, rounds, snap, rounding)
    alpha_r = res.get_strategy("alpha-r", grid, rounds, snap, rounding)
    _check_writable(args.out)
    _check_writable(args.manifest)

    game = _wrap_value_error(GameConfig, rounds=rounds, grid=grid, delta=delta)
    proposer = _wrap_value_error(
        LearnerConfig, owner="P", reg=reg, rate=rate,
        anchor=Strategy(alpha_p, grid), initial=Strategy(wp, grid),
        horizon=horizon,
    )
    responder = _wrap_value_error(
        LearnerConfig, owner="R", reg=reg, rate=rate,
        anchor=Strategy(alpha_r, grid), initial=Strategy(wr, grid),
        horizon=horizon,
    )
    _print_rate_warning(game, proposer)
    record = self_play(game, proposer, responder)

    manifest = RunManifest(
        command="run", version=__version__, config=dict(res.resolved),
        seed=None, grid_rounding=rounding,
    )
    converged = record.converged_at is not None
    document = {
        "manifest": manifest.as_dict(),
        "result": {
            "converged": converged,
            "converged_at": record.converged_at,
            "ne_value": record.ne_value,
            "ne_round": record.ne_round,
            "ne_profile": (
                _profile_json(record.ne_profile)
                if record.ne_profile is not None else None
            ),
            "payoff_P": record.payoff_P,
            "payoff_R": record.payoff_R,
            "horizon": record.horizon,
        },
    }
    if trace:
        document["trajectory"] = [
            _profile_json(profile) for profile in record.profiles
        ]
    else:
        document["trajectory_summary"] = {
            "steps": record.horizon,
            "final": _profile_json(record.profiles[-1]),
        }
    write_json(args.out, document)
    if args.manifest:
        write_json(args.manifest, manifest.as_dict())
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_chunk(payload) -> list:
    """Run one contiguous block of sweep cells (used by worker processes).

    Returns one result tuple (converged, t_converge, ne_round, ne_value,
    payoff_P, payoff_R) per cell, in cell order.
    """
    (rounds, grid, delta, rate, reg, horizon, alpha_p, alpha_r, cells) = payload
    game = GameConfig(rounds=rounds, grid=grid, delta=delta)
    rows = []
    if reg == 1:
        index_p = np.array(
            [strategy_index(game, Strategy(p, grid)) for p, _ in cells],
            dtype=np.int64,
        )
        index_r = np.array(
            [strategy_index(game, Strategy(r, grid)) for _, r in cells],
            dtype=np.int64,
        )
        anchor_p = np.full(
            len(cells), strategy_index(game, Strategy(alpha_p, grid)),
            dtype=np.int64,
        )
        anchor_r = np.full(
            len(cells), strategy_index(game, Strategy(alpha_r, grid)),
            dtype=np.int64,
        )
        batch = batch_self_play(
            game, rate, horizon, index_p, index_r, anchor_p, anchor_r
        )
        for b in range(len(cells)):
            converged = bool(batch.converged_at[b] >= 0)
            ne_value = float(batch.ne_value[b])
            rows.append((
                converged,
                int(batch.converged_at[b]) if converged else None,
                int(batch.ne_round[b]) if batch.ne_round[b] > 0 else None,
                None if math.isnan(ne_value) else ne_value,
                float(batch.payoff_P[b]),
                float(batch.payoff_R[b]),
            ))
    else:
        for p_entries, r_entries in cells:
            proposer = LearnerConfig(
                owner="P", reg=reg, rate=rate,
                anchor=Strategy(alpha_p, grid),
                initial=Strategy(p_entries, grid), horizon=horizon,
            )
            responder = LearnerConfig(
                owner="R", reg=reg, rate=rate,
                anchor=Strategy(alpha_r, grid),
                initial=Strategy(r_entries, grid), horizon=horizon,
            )
            record = self_play(game, proposer, responder)
            rows.append((
                record.converged_at is not None,
                record.converged_at,
                record.ne_round,
                record.ne_value,
                record.payoff_P,
                record.payoff_R,
            ))
    return rows


def _run_sweep_cells(payload_base, cells, jobs: int) -> list:
    if jobs <= 1 or len(cells) <= 1:
        return _sweep_chunk((*payload_base, cells))
    workers = min(jobs, len(cells))
    bounds = np.linspace(0, len(cells), workers + 1).astype(int)
    payloads = [
        (*payload_base, cells[bounds[i]:bounds[i + 1]])
        for i in range(workers)
        if bounds[i] < bounds[i + 1]
    ]
    rows: list = []
    with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
        for chunk in pool.map(_sweep_chunk, payloads):
            rows.extend(chunk)
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    res = Resolver("sweep", args)
    rounds = res.get_int("rounds", minimum=1)
    delta = res.get_float("delta", low=0.0, high=1.0)
    grid = res.get_int("grid", minimum=1)
    rate = res.get_float("rate", low=0.0)
    reg = res.get_int("reg")
    if reg not in (1, 2):
        raise ConfigError(f"reg: supported regularizer exponents are 1 and 2, got {reg}")
    res.resolved["reg"] = str(reg)
    horizon = res.get_int("horizon", minimum=1)
    snap = res.get_bool("snap")
    agg = res.get_choice("agg", ("over-responder", "over-proposer", "none"))
    agg_payoff = res.get_choice("agg-payoff", ("P", "R"))
    if res.raw.get("jobs") is None:
        res.raw["jobs"] = os.environ.get("BARGAINLAB_JOBS") or "1"
    jobs = res.get_int("jobs", minimum=1)
    rounding: List[str] = []

    def cell_axis(fixed_key: str, values_key: str) -> List[Tuple[int, ...]]:
        has_fixed = res.has(fixed_key)
        has_values = res.has(values_key)
        if has_fixed == has_values:
            raise ConfigError(
                f"exactly one of {fixed_key} and {values_key} is required"
            )
        if has_fixed:
            return [res.get_strategy(fixed_key, grid, rounds, snap, rounding)]
        levels = res.get_grid_values(values_key, grid, snap, rounding)
        return [tuple(cell) for cell in product(levels, repeat=rounds)]

    cells_p = cell_axis("wp", "wp-values")
    cells_r = cell_axis("wr", "wr-values")
    alpha_p = res.get_strategy("alpha-p", grid, rounds, snap, rounding)
    alpha_r = res.get_strategy("alpha-r", grid, rounds, snap, rounding)

    if agg == "none" and args.agg_out:
        raise ConfigError("agg-out requires an aggregation mode (--agg)")
    if agg != "none" and not args.agg_out:
        raise ConfigError(f"aggregation {agg!r} requires --agg-out")
    if args.svg and agg == "none":
        raise ConfigError("svg output requires an aggregation mode (--agg)")
    _check_writable(args.out)
    _check_writable(args.agg_out)
    _check_writable(args.svg)
    _check_writable(args.manifest)
    game = _wrap_value_error(GameConfig, rounds=rounds, grid=grid, delta=delta)
    anchor_p = Strategy(alpha_p, grid)
    _print_rate_warning(game, _wrap_value_error(
        LearnerConfig, owner="P", reg=reg, rate=rate, anchor=anchor_p,
        initial=anchor_p, horizon=horizon,
    ))

    cells = [(p, r) for p in cells_p for r in cells_r]
    payload_base = (rounds, grid, delta, rate, reg, horizon, alpha_p, alpha_r)
    results = _run_sweep_cells(payload_base, cells, jobs)

    header = (
        [f"wp{i}_init" for i in range(1, rounds + 1)]
        + [f"wr{i}_init" for i in range(1, rounds + 1)]
        + ["converged", "t_converge", "ne_round", "ne_value",
           "payoff_P", "payoff_R"]
    )
    rows = []
    for (p_cell, r_cell), outcome in zip(cells, results):
        init_cols = [e / grid for e in p_cell] + [e / grid for e in r_cell]
        rows.append(init_cols + list(outcome))
    write_csv(args.out, header, rows)

    if agg != "none":
        payoff_col = 4 if agg_payoff == "P" else 5
        groups: Dict[Tuple[int, ...], List[float]] = {}
        order: List[Tuple[int, ...]] = []
        for (p_cell, r_cell), outcome in zip(cells, results):
            key = p_cell if agg == "over-responder" else r_cell
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(outcome[payoff_col])
        agg_rows = []
        for key in order:
            values = groups[key]
            mean = math.fsum(values) / len(values)
            cell_x = key[0] / grid
            cell_y = key[1] / grid if rounds >= 2 else None
            agg_rows.append((cell_x, cell_y, mean))
        write_csv(args.agg_out, ["cell_x", "cell_y", "mean_payoff"], agg_rows)
        if args.svg:
            x_labels: List[str] = []
            y_labels: List[str] = []
            for cell_x, cell_y, _ in agg_rows:
                lx = repr(cell_x)
                ly = "" if cell_y is None else repr(cell_y)
                if lx not in x_labels:
                    x_labels.append(lx)
                if ly not in y_labels:
                    y_labels.append(ly)
            matrix: List[List[Optional[float]]] = [
                [None] * len(x_labels) for _ in y_labels
            ]
            for cell_x, cell_y, mean in agg_rows:
                ix = x_labels.index(repr(cell_x))
                iy = y_labels.index("" if cell_y is None else repr(cell_y))
                matrix[iy][ix] = None if math.isnan(mean) else mean
            axis = "proposer" if agg == "over-responder" else "responder"
            svg = heatmap_svg(
                x_labels, y_labels, matrix,
                title=f"mean payoff {agg_payoff} per {axis} cell",
                value_label=f"payoff {agg_payoff}",
            )
            with open(args.svg, "w") as fh:
                fh.write(svg)

    if args.manifest:
        manifest = RunManifest(
            command="sweep", version=__version__, config=dict(res.resolved),
            seed=None, grid_rounding=rounding,
        )
        write_json(args.manifest, manifest.as_dict())

    all_converged = all(outcome[0] for outcome in results)
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# spe-region
# ---------------------------------------------------------------------------

def cmd_spe_region(args: argparse.Namespace) -> int:
    res = Resolver("spe-region", args)
    delta = res.get_float("delta", low=0.0, high=1.0)
    tau = res.get_float("tau", low=0.0, high=1.0)
    p = res.get_float("p", low=0.0, high=1.0)
    mode = res.get_choice("mode", ("enumerate", "sample", "gaps"))
    resolution = res.get_int("resolution", minimum=2)
    samples = res.get_int("samples", minimum=1)
    seed = res.get_int("seed", minimum=0)
    _check_writable(args.out)
    _check_writable(args.manifest)
    params = _wrap_value_error(MarketParams, delta=delta, tau=tau, p=p)

    if mode == "gaps":
        gaps = payoff_gaps(params)
        header = ["delta", "tau", "p", "candidate_gap", "firm_gap"]
        rows: list = [(delta, tau, p, gaps.candidate_gap, gaps.firm_gap)]
    else:
        if mode == "enumerate":
            lattice = [i / (resolution - 1) for i in range(resolution)]
            targets = [(w1, w2) for w1 in lattice for w2 in lattice]
        else:
            rng = np.random.default_rng(seed)
            targets = [
                (float(rng.random()), float(rng.random()))
                for _ in range(samples)
            ]
        warning = ""
        if not params.in_theorem1_regime:
            bound = delta * delta / (1.0 + delta)
            warning = (
                f"tau={tau!r} exceeds delta^2/(1+delta)={bound!r}; "
                "no feasible targets exist"
            )
        header = ["w1", "w2", "feasible", "W_f", "W_c1", "W_c2", "warning"]
        rows = []
        for w1, w2 in targets:
            target = PayoffTarget(w1, w2)
            feasible = theorem1_feasible(params, target)
            if feasible:
                cert = construct_certificate(params, target)
                if not prop2_check(cert, params):  # pragma: no cover
                    raise RuntimeError(
                        "internal error: feasible target failed the "
                        "stationarity check"
                    )
                w_f, w_c1, w_c2 = cert.W_f, cert.W_c1, cert.W_c2
            else:
                w_f = w_c1 = w_c2 = None
            rows.append((w1, w2, feasible, w_f, w_c1, w_c2, warning))

    write_csv(args.out, header, rows)
    if args.manifest:
        manifest = RunManifest(
            command="spe-region", version=__version__,
            config=dict(res.resolved),
            seed=seed if mode == "sample" else None,
            grid_rounding=[],
        )
        write_json(args.manifest, manifest.as_dict())
    return EXIT_OK


# ---------------------------------------------------------------------------
# regret
# ---------------------------------------------------------------------------

def _load_adversary_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read adversary file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"adversary file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("adversary file must be a JSON object")
    return doc


def _adversary_plays(
    doc: dict, horizon: int, rounds: int
) -> Tuple[List[Tuple[float, ...]], Optional[list]]:
    entry = doc.get(str(horizon), doc.get("default"))
    if entry is None:
        raise ConfigError(
            f"adversary file has no entry for horizon {horizon} "
            "and no default"
        )
    if not isinstance(entry, dict):
        raise ConfigError(f"adversary entry for {horizon} must be an object")
    if "cycle" in entry:
        cycle = entry["cycle"]
        if not isinstance(cycle, list) or not cycle:
            raise ConfigError(f"adversary cycle for {horizon} must be a nonempty list")
        plays = [cycle[t % len(cycle)] for t in range(horizon)]
    elif "plays" in entry:
        plays = entry["plays"]
        if not isinstance(plays, list) or len(plays) != horizon:
            raise ConfigError(
                f"adversary plays for {horizon} must list exactly "
                f"{horizon} rounds"
            )
    else:
        raise ConfigError(
            f"adversary entry for {horizon} needs a cycle or plays field"
        )
    normalized = []
    for t, play in enumerate(plays, start=1):
        if not isinstance(play, list) or len(play) != rounds:
            raise ConfigError(
                f"adversary play {t} for horizon {horizon} must list "
                f"{rounds} values"
            )
        values = []
        for v in play:
            if not isinstance(v, (int, float)) or not 0.0 <= float(v) <= 1.0:
                raise ConfigError(
                    f"adversary play {t} for horizon {horizon} has a value "
                    "outside [0, 1]"
                )
            values.append(float(v))
        normalized.append(tuple(values))
    bins = entry.get("bins")
    if bins is not None and not isinstance(bins, list):
        raise ConfigError(f"adversary bins for {horizon} must be a list")
    return normalized, bins


def cmd_regret(args: argparse.Namespace) -> int:
    res = Resolver("regret", args)
    rounds = res.get_int("rounds", minimum=1)
    delta = res.get_float("delta", low=0.0, high=1.0)
    reg = res.get_int("reg")
    if reg not in (1, 2):
        raise ConfigError(f"reg: supported regularizer exponents are 1 and 2, got {reg}")
    res.resolved["reg"] = str(reg)
    horizons = res.get_int_list("horizons")
    for horizon in horizons:
        if horizon < 1:
            raise ConfigError(f"horizons: must be >= 1, got {horizon}")
    adversary_path = res.get_string("adversary")
    grid_override = res.get_int("grid", minimum=1) if res.has("grid") else None
    rate_override = res.get_float("rate", low=0.0) if res.has("rate") else None
    wp_values = res.get_float_list("wp") if res.has("wp") else None
    alpha_values = (
        res.get_float_list("alpha-p") if res.has("alpha-p") else None
    )
    _check_writable(args.out)
    _check_writable(args.manifest)
    doc = _load_adversary_file(adversary_path)

    # Validate and assemble every horizon before running any of them, so a
    # bad entry never leaves partial output behind.
    experiments = []
    for horizon in horizons:
        grid = grid_override if grid_override is not None else horizon
        rate = (
            rate_override if rate_override is not None
            else 1.0 / math.sqrt(horizon)
        )
        plays, bins = _adversary_plays(doc, horizon, rounds)
        game = _wrap_value_error(
            GameConfig, rounds=rounds, grid=grid, delta=delta
        )
        adversary = _wrap_value_error(
            make_adversary, game, plays, bins=bins
        )

        def literal(key, values, fallback):
            if values is None:
                return fallback
            entries = []
            for v in values:
                scaled = v * grid
                nearest = math.floor(scaled + 0.5)
                if abs(scaled - nearest) > 1e-9 * max(1.0, grid):
                    below = math.floor(scaled) / grid
                    above = math.ceil(scaled) / grid
                    raise ConfigError(
                        f"{key}: {v!r} is not a multiple of 1/{grid} "
                        f"(horizon {horizon}); nearest grid values are "
                        f"{below!r} and {above!r}"
                    )
                entries.append(int(nearest))
            if len(entries) != rounds:
                raise ConfigError(
                    f"{key}: expected {rounds} comma-separated values"
                )
            return tuple(entries)

        initial = literal("wp", wp_values, (grid // 2,) * rounds)
        anchor = literal("alpha-p", alpha_values, initial)
        experiments.append((horizon, game, grid, rate, plays, adversary,
                            initial, anchor))

    rows = []
    for (horizon, game, grid, rate, plays, adversary,
         initial, anchor) in experiments:
        config = _wrap_value_error(
            LearnerConfig, owner="P", reg=reg, rate=rate,
            anchor=Strategy(anchor, grid), initial=Strategy(initial, grid),
            horizon=horizon,
        )
        state = make_learner(game, config)
        played = []
        for t in range(horizon):
            played.append(state.current)
            values = plays[t]
            scaled = [v * grid for v in values]
            on_grid = all(
                abs(s - math.floor(s + 0.5)) <= 1e-9 * max(1.0, grid)
                for s in scaled
            )
            if on_grid:
                opponent = Strategy(
                    tuple(int(math.floor(s + 0.5)) for s in scaled), grid
                )
                step(state, opponent)
            else:
                state.cumulative = state.cumulative + \
                    _grid_utilities_vs_value_play(game, "P", values)
                state.steps += 1
                state.current = (
                    l1_update(state) if reg == 1 else l2_update(state)
                )
        result = external_regret(game, "P", played, adversary)
        rows.append((
            horizon,
            result.regret_vs_grid,
            result.regret_vs_continuous,
            result.regret_vs_continuous / math.sqrt(horizon),
        ))

    write_csv(
        args.out,
        ["T", "regret_grid", "regret_continuous", "regret_per_sqrt_T"],
        rows,
    )
    if args.manifest:
        manifest = RunManifest(
            command="regret", version=__version__, config=dict(res.resolved),
            seed=None, grid_rounding=[],
        )
        write_json(args.manifest, manifest.as_dict())
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-spe
# ---------------------------------------------------------------------------

def cmd_verify_spe(args: argparse.Namespace) -> int:
    res = Resolver("verify-spe", args)
    delta = res.get_float("delta", low=0.0, high=1.0)
    tau = res.get_float("tau", low=0.0, high=1.0)
    p = res.get_float("p", low=0.0, high=1.0)
    w1 = res.get_float("w1", low=0.0, high=1.0)
    w2 = res.get_float("w2", low=0.0, high=1.0)
    z_rule = res.get_choice("z-rule", ("midpoint", "lower", "upper"))
    scan_grid = res.get_int("scan-grid", minimum=10)
    _check_writable(args.out)
    _check_writable(args.manifest)

    params = _wrap_value_error(MarketParams, delta=delta, tau=tau, p=p)
    target = _wrap_value_error(PayoffTarget, w1=w1, w2=w2)
    violations = feasibility_violations(params, target)
    if violations:
        raise ConfigError(f"target infeasible: {', '.join(violations)}")

    cert = construct_certificate(params, target, z_rule=z_rule)
    stationary = prop2_check(cert, params)
    deviations = one_shot_deviation_scan(cert, params, scan_grid=scan_grid)
    w_f, w_c1, w_c2 = expected_match_payoffs(cert)

    reported = []
    for dev in deviations[:MAX_REPORTED_DEVIATIONS]:
        entry = dev._asdict()
        if entry["offer"] is not None and math.isnan(entry["offer"]):
            entry["offer"] = None
        reported.append(entry)
    document = {
        "feasible": True,
        "violations": [],
        "prop2": stationary,
        "deviation_count": len(deviations),
        "deviations": reported,
        "certificate": {
            "u_f": cert.u_f, "u_c1": cert.u_c1, "u_c2": cert.u_c2,
            "z_fc1": cert.z_fc1, "z_fc2": cert.z_fc2,
            "z_c1f": cert.z_c1f, "z_c2f": cert.z_c2f,
            "W_f": cert.W_f, "W_c1": cert.W_c1, "W_c2": cert.W_c2,
        },
        "expected_payoffs": {"W_f": w_f, "W_c1": w_c1, "W_c2": w_c2},
    }
    write_json(args.out, document)
    if args.manifest:
        manifest = RunManifest(
            command="verify-spe", version=__version__,
            config=dict(res.resolved), seed=None, grid_rounding=[],
        )
        write_json(args.manifest, manifest.as_dict())
    clean = stationary and not deviations
    return EXIT_OK if clean else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value file or run-manifest JSON")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--manifest", help="write the resolved run manifest here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bargainlab",
        description="Bargaining-game learning and equilibrium laboratory.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one self-play learning run")
    for flag in ("--rounds", "--delta", "--grid", "--rate", "--reg",
                 "--horizon", "--wp", "--wr", "--alpha-p", "--alpha-r"):
        run.add_argument(flag)
    run.add_argument("--trace", action="store_true", default=None,
                     help="embed the full trajectory in the record")
    run.add_argument("--snap", action="store_true", default=None,
                     help="round off-grid strategy literals to the grid")
    _add_common(run)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="sweep initial strategies")
    for flag in ("--rounds", "--delta", "--grid", "--rate", "--reg",
                 "--horizon", "--wp", "--wr", "--wp-values", "--wr-values",
                 "--alpha-p", "--alpha-r", "--agg", "--agg-payoff", "--jobs"):
        sweep.add_argument(flag)
    sweep.add_argument("--snap", action="store_true", default=None)
    sweep.add_argument("--agg-out", help="aggregated CSV path")
    sweep.add_argument("--svg", help="heatmap SVG path (requires --agg)")
    _add_common(sweep)
    sweep.set_defaults(func=cmd_sweep)

    region = sub.add_parser("spe-region", help="map feasible market targets")
    for flag in ("--delta", "--tau", "--p", "--mode", "--resolution",
                 "--samples", "--seed"):
        region.add_argument(flag)
    _add_common(region)
    region.set_defaults(func=cmd_spe_region)

    regret = sub.add_parser("regret", help="regret vs scripted adversaries")
    for flag in ("--rounds", "--delta", "--reg", "--horizons", "--adversary",
                 "--grid", "--rate", "--wp", "--alpha-p"):
        regret.add_argument(flag)
    _add_common(regret)
    regret.set_defaults(func=cmd_regret)

    verify = sub.add_parser(
        "verify-spe", help="verify one market target end to end"
    )
    for flag in ("--delta", "--tau", "--p", "--w1", "--w2", "--z-rule",
                 "--scan-grid"):
        verify.add_argument(flag)
    _add_common(verify)
    verify.set_defaults(func=cmd_verify_spe)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None or code == 0:
            return EXIT_OK
        return EXIT_INVALID
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
