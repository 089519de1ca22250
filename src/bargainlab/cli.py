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
flags always win.  Every option, with its default and bounds, is declared
once, in ``OPTIONS``.  Exit codes: 0 success, 2 invalid input, 3 completed
without convergence.  No output file is written when validation fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .dynamics import batch_self_play, make_adversary, schedule_regret, self_play
from .ftrl import LearnerConfig, MixedStrategy, Strategy
from .game import GameConfig, snap_share, strategy_from_index, strategy_index
from .reports import heatmap_svg, write_csv, write_json, write_text
from .spe import (
    MarketParams, PayoffTarget, construct_certificate, expected_match_payoffs,
    feasible_payoffs, one_shot_deviation_scan, payoff_gaps, prop2_check,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3

MAX_REPORTED_DEVIATIONS = 50


class ConfigError(Exception):
    """Invalid command-line or config-file input (exit code 2)."""


# ---------------------------------------------------------------------------
# options: one declarative table per subcommand
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Opt:
    """One ``--key`` flag of a subcommand and, unless it is a path, its
    config-file key.  ``kind``: int, float, bool, choice, str, ints and
    shares (comma-separated integers / values in [0, 1]), strategy (one grid
    value per round), levels (grid values) or path (an output file).
    ``low``/``high`` bound numbers; ``choices`` lists what a choice, or the
    ``reg`` int, accepts.  A setting with no default is required unless
    ``optional``: then it is parsed, and recorded in the manifest, only when
    given.  ``env`` names an environment variable that replaces the default.
    """

    key: str
    kind: str
    default: Optional[str] = None
    low: Optional[float] = None
    high: Optional[float] = None
    choices: Tuple = ()
    optional: bool = False
    env: Optional[str] = None
    help: Optional[str] = None


def _unit(key: str, default: Optional[str] = None) -> Opt:
    return Opt(key, "float", default, low=0.0, high=1.0)


ROUNDS = Opt("rounds", "int", "1", low=1)
DELTA = _unit("delta", "0.9")
GRID = Opt("grid", "int", low=1)
RATE = Opt("rate", "float", low=0.0)
REG = Opt("reg", "int", "1", choices=(1, 2))
LEARNING = (ROUNDS, DELTA, GRID, RATE, REG, Opt("horizon", "int", low=1))
SNAP = Opt("snap", "bool", "false", help="round off-grid strategy literals to the grid")
MARKET = (_unit("delta"), _unit("tau"), _unit("p"))
OUT = Opt("out", "path", help="output path (default: stdout)")
MANIFEST = Opt("manifest", "path", help="write the resolved run manifest here")

OPTIONS: Dict[str, Tuple[Opt, ...]] = {
    "run": (
        *LEARNING,
        Opt("trace", "bool", "false", help="embed the full trajectory in the record"),
        SNAP,
        *(Opt(key, "strategy") for key in ("wp", "wr", "alpha-p", "alpha-r")),
        OUT, MANIFEST,
    ),
    "sweep": (
        *LEARNING,
        SNAP,
        Opt("agg", "choice", "none",
            choices=("over-responder", "over-proposer", "none")),
        Opt("agg-payoff", "choice", "P", choices=("P", "R")),
        Opt("jobs", "int", "1", low=1, env="BARGAINLAB_JOBS"),
        Opt("wp", "strategy", optional=True), Opt("wp-values", "levels", optional=True),
        Opt("wr", "strategy", optional=True), Opt("wr-values", "levels", optional=True),
        Opt("alpha-p", "strategy"), Opt("alpha-r", "strategy"),
        OUT,
        Opt("agg-out", "path", help="aggregated CSV path"),
        Opt("svg", "path", help="heatmap SVG path (requires --agg)"),
        MANIFEST,
    ),
    "spe-region": (
        *MARKET,
        Opt("mode", "choice", "enumerate", choices=("enumerate", "sample", "gaps")),
        Opt("resolution", "int", "50", low=2),
        Opt("samples", "int", "100", low=1),
        Opt("seed", "int", "0", low=0),
        OUT, MANIFEST,
    ),
    "regret": (
        ROUNDS, DELTA, replace(REG, default="2"),
        Opt("horizons", "ints", low=1),
        Opt("adversary", "str"),
        replace(GRID, optional=True), replace(RATE, optional=True),
        Opt("wp", "shares", optional=True), Opt("alpha-p", "shares", optional=True),
        OUT, MANIFEST,
    ),
    "verify-spe": (
        *MARKET, _unit("w1"), _unit("w2"),
        Opt("z-rule", "choice", "midpoint", choices=("midpoint", "lower", "upper")),
        Opt("scan-grid", "int", "200", low=10),
        OUT, MANIFEST,
    ),
}

BOOLEANS = {"true": True, "1": True, "yes": True,
            "false": False, "0": False, "no": False}


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


class Settings(dict):
    """The parsed settings of one command by key: defaults < config < flags.

    Parsing also gathers what the run manifest records: the canonical text
    of each setting (``config``; replayed through ``--config`` it reproduces
    the run byte for byte), every snap of an off-grid literal (``rounding``)
    and a sampling command's ``seed``.  Output paths are checked, and must
    name distinct files, before any work starts.
    """

    def __init__(self, args: argparse.Namespace):
        super().__init__()
        self.command, self.args = args.command, args
        self.config: Dict[str, str] = {}
        self.rounding: List[str] = []
        self.seed: Optional[int] = None
        options = [o for o in OPTIONS[self.command] if o.kind != "path"]
        raw = {o.key: (o.env and os.environ.get(o.env)) or o.default for o in options}
        if args.config:
            file_cfg = _load_config_file(args.config, self.command)
            for key in sorted(file_cfg):
                if key not in raw:
                    raise ConfigError(f"unknown configuration key: {key!r}")
            raw.update(file_cfg)
        outputs: Dict[str, str] = {}
        for opt in OPTIONS[self.command]:
            flag = getattr(args, opt.key.replace("-", "_"))
            if opt.kind == "path":
                if flag is not None:
                    _check_output(outputs, opt.key, flag)
                continue
            if flag is not None:
                raw[opt.key] = "true" if flag is True else flag
            if raw[opt.key] is not None:
                self[opt.key], self.config[opt.key] = self._parse(opt, raw[opt.key])
            elif not opt.optional:
                raise ConfigError(f"missing required setting: {opt.key}")

    def _parse(self, opt: Opt, text: str) -> Tuple[object, str]:
        """One setting's parsed value and its canonical text."""
        key, kind = opt.key, opt.kind
        if kind == "choice" and text not in opt.choices:
            raise ConfigError(
                f"{key}: expected one of {', '.join(opt.choices)}; got {text!r}"
            )
        if kind in ("choice", "str"):
            return text, text
        if kind == "bool":
            text = text.lower()
            if text not in BOOLEANS:
                raise ConfigError(f"{key}: expected true or false, got {text!r}")
            return BOOLEANS[text], "true" if BOOLEANS[text] else "false"
        if kind == "int":
            value = _convert(int, key, text, "an integer")
            _check_low(opt, value)
            if opt.choices and value not in opt.choices:
                raise ConfigError(
                    f"{key}: supported regularizer exponents are 1 and 2, "
                    f"got {value}"
                )
            return value, str(value)
        if kind == "float":
            value = _convert(float, key, text, "a number")
            if not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {text!r}")
            if opt.low is not None and value < opt.low:
                raise ConfigError(f"{key}: must be >= {opt.low}, got {text!r}")
            if opt.high is not None and value > opt.high:
                raise ConfigError(f"{key}: must be <= {opt.high}, got {text!r}")
            return value, repr(value)

        parts = [part for part in text.split(",") if part.strip()]
        if kind == "strategy" and len(parts) != self["rounds"]:
            raise ConfigError(
                f"{key}: expected {self['rounds']} comma-separated values, "
                f"got {len(parts)}"
            )
        if kind in ("ints", "shares"):
            try:
                values = [(int if kind == "ints" else float)(p) for p in parts]
            except ValueError:
                what = "integers" if kind == "ints" else "numbers"
                raise ConfigError(f"{key}: expected comma-separated {what}")
        else:
            values = [self._literal(key, position, part)
                      for position, part in enumerate(parts, start=1)]
        if not values:
            raise ConfigError(f"{key}: at least one value required")
        if kind == "ints":
            for value in values:
                _check_low(opt, value)
            return values, ",".join(str(v) for v in values)
        if kind == "shares":
            if not all(0.0 <= v <= 1.0 for v in values):
                raise ConfigError(f"{key}: values must lie in [0, 1]")
            return values, ",".join(repr(v) for v in values)
        canonical = ",".join(repr(e / self["grid"]) for e in values)
        return (tuple(values) if kind == "strategy" else values), canonical

    def _literal(self, key: str, position: int, text: str) -> int:
        """Grid numerator of one strategy value; off-grid values are
        snapped when ``snap`` is set and rejected otherwise."""
        value = _convert(float, key, text, "a number")
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{key}: {text!r} is outside [0, 1]")
        grid = self["grid"]
        nearest, exact = snap_share(value, grid)
        if not exact:
            if not self["snap"]:
                raise _off_grid(key, value, grid)
            self.rounding.append(f"{key}[{position}]: {value!r} -> {nearest / grid!r}")
        return nearest

    def manifest(self) -> dict:
        return {"command": self.command, "version": __version__, "seed": self.seed,
                "grid_rounding": list(self.rounding), "config": dict(self.config)}


def _convert(kind, key: str, text: str, what: str):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key}: expected {what}, got {text!r}")


def _check_low(opt: Opt, value: int) -> None:
    if opt.low is not None and value < opt.low:
        raise ConfigError(f"{opt.key}: must be >= {opt.low}, got {value}")


def _off_grid(key: str, value: float, grid: int, where: str = "") -> ConfigError:
    scaled = value * grid
    return ConfigError(
        f"{key}: {value!r} is not a multiple of 1/{grid}{where}; nearest "
        f"grid values are {math.floor(scaled) / grid!r} and "
        f"{math.ceil(scaled) / grid!r}"
    )


def _check_output(seen: Dict[str, str], key: str, path: str) -> None:
    """Check that ``key``'s output file can be written and that no output
    in ``seen`` (real path -> key) names it too: of two outputs naming one
    file, only the one written last would remain."""
    if not path:
        raise ConfigError(f"{key}: output path is empty")
    if os.path.isdir(path):
        raise ConfigError(f"output path is a directory: {path}")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory does not exist: {directory}")
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"output directory is not writable: {directory}")
    real = os.path.realpath(path)
    if real in seen:
        raise ConfigError(f"{seen[real]} and {key} name the same file: {path}")
    seen[real] = key


def _wrap_value_error(builder, *args, **kwargs):
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _learning(
    settings: Settings, initial_p: Tuple[int, ...], initial_r: Tuple[int, ...]
) -> Tuple[GameConfig, LearnerConfig, LearnerConfig]:
    """The game and both learners of ``run`` / ``sweep``.  Warns on stderr
    when the pure-play rule's rate is too low for the grid."""
    grid = settings["grid"]
    game = _wrap_value_error(
        GameConfig, rounds=settings["rounds"], grid=grid, delta=settings["delta"]
    )
    proposer, responder = (
        _wrap_value_error(
            LearnerConfig, owner=owner, reg=settings["reg"], rate=settings["rate"],
            anchor=Strategy(settings[anchor], grid), initial=Strategy(initial, grid),
            horizon=settings["horizon"],
        )
        for owner, initial, anchor in (
            ("P", initial_p, "alpha-p"), ("R", initial_r, "alpha-r")
        )
    )
    warning = proposer.rate_warning_for(game)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    return game, proposer, responder


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _profile_json(profile) -> list:
    """A joint play: the shares of a pure play, the weights of a mixed one."""
    return [
        {"weights": [float(w) for w in play.weights]}
        if isinstance(play, MixedStrategy) else list(play.values)
        for play in profile
    ]


def cmd_run(settings: Settings) -> int:
    record = _wrap_value_error(
        self_play, *_learning(settings, settings["wp"], settings["wr"])
    )
    converged = record.converged_at is not None
    document = {
        "manifest": settings.manifest(),
        "result": {
            "converged": converged,
            "converged_at": record.converged_at,
            "ne_value": record.ne_value,
            "ne_round": record.ne_round,
            "ne_profile": record.ne_profile and _profile_json(record.ne_profile),
            "payoff_P": record.payoff_P,
            "payoff_R": record.payoff_R,
            "horizon": record.horizon,
        },
    }
    if settings["trace"]:
        document["trajectory"] = [_profile_json(p) for p in record.profiles]
    else:
        document["trajectory_summary"] = {
            "steps": record.horizon,
            "final": _profile_json(record.profiles[-1]),
        }
    write_json(settings.args.out, document)
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_chunk(payload) -> list:
    """Run one contiguous block of sweep cells (used by worker processes).

    ``payload`` is (game, proposer, responder, cells): the two learners hold
    for every cell but their initials, which ``cells``, a (cells, 2) array,
    gives as flat (P, R) strategy indices.  Returns one result tuple
    (converged, t_converge, ne_round, ne_value, payoff_P, payoff_R) per
    cell, in cell order: :meth:`BatchResult.outcomes` of the batch engine
    for reg=1, the :func:`self_play` record of each cell otherwise.
    """
    game, pc, rc, cells = payload
    if pc.reg == rc.reg == 1:
        return batch_self_play(
            game, (pc.rate, rc.rate), pc.horizon, cells[:, 0], cells[:, 1],
            np.full(len(cells), strategy_index(game, pc.anchor)),
            np.full(len(cells), strategy_index(game, rc.anchor)),
        ).outcomes()
    rows = []
    for p, r in cells.tolist():
        record = self_play(
            game,
            replace(pc, initial=strategy_from_index(game, p)),
            replace(rc, initial=strategy_from_index(game, r)),
        )
        rows.append((
            record.converged_at is not None, record.converged_at, record.ne_round,
            record.ne_value, record.payoff_P, record.payoff_R,
        ))
    return rows


def _run_sweep_cells(payload_base, cells: np.ndarray, jobs: int) -> list:
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers <= 1:
        return _sweep_chunk((*payload_base, cells))
    payloads = [(*payload_base, part) for part in np.array_split(cells, workers)]
    rows: list = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for chunk in pool.map(_sweep_chunk, payloads):
            rows.extend(chunk)
    return rows


def _cell_axis(settings: Settings, fixed_key: str, values_key: str) -> list:
    if (fixed_key in settings) == (values_key in settings):
        raise ConfigError(f"exactly one of {fixed_key} and {values_key} is required")
    if fixed_key in settings:
        return [settings[fixed_key]]
    return list(product(settings[values_key], repeat=settings["rounds"]))


def cmd_sweep(settings: Settings) -> int:
    args = settings.args
    rounds, grid = settings["rounds"], settings["grid"]
    agg, agg_payoff = settings["agg"], settings["agg-payoff"]
    cells_p = _cell_axis(settings, "wp", "wp-values")
    cells_r = _cell_axis(settings, "wr", "wr-values")
    if agg == "none" and args.agg_out:
        raise ConfigError("agg-out requires an aggregation mode (--agg)")
    if agg != "none" and not args.agg_out:
        raise ConfigError(f"aggregation {agg!r} requires --agg-out")
    if agg != "none" and rounds > 2:
        # aggregate rows and heatmap cells are keyed by the first two rounds
        raise ConfigError(f"aggregation {agg!r} needs at most two rounds, got {rounds}")
    if args.svg and agg == "none":
        raise ConfigError("svg output requires an aggregation mode (--agg)")
    # the anchors stand in as initials: each cell replaces them
    learning = _learning(settings, settings["alpha-p"], settings["alpha-r"])

    cells = [(p, r) for p in cells_p for r in cells_r]
    index = np.ravel_multi_index(np.array(cells).T, (grid + 1,) * rounds).T
    results = _wrap_value_error(_run_sweep_cells, learning, index, settings["jobs"])

    header = (
        [f"wp{i}_init" for i in range(1, rounds + 1)]
        + [f"wr{i}_init" for i in range(1, rounds + 1)]
        + ["converged", "t_converge", "ne_round", "ne_value", "payoff_P", "payoff_R"]
    )
    rows = []
    for (p_cell, r_cell), outcome in zip(cells, results):
        init_cols = [e / grid for e in p_cell] + [e / grid for e in r_cell]
        rows.append(init_cols + list(outcome))
    write_csv(args.out, header, rows)

    if agg != "none":
        column = 4 if agg_payoff == "P" else 5
        groups: Dict[Tuple[int, ...], List[float]] = {}
        for (p_cell, r_cell), outcome in zip(cells, results):
            key = p_cell if agg == "over-responder" else r_cell
            groups.setdefault(key, []).append(outcome[column])
        agg_rows = [
            (key[0] / grid, key[1] / grid if rounds >= 2 else None,
             math.fsum(values) / len(values))
            for key, values in groups.items()
        ]
        write_csv(args.agg_out, ["cell_x", "cell_y", "mean_payoff"], agg_rows)
        if args.svg:
            labels = [(repr(x), "" if y is None else repr(y)) for x, y, _ in agg_rows]
            xs = list(dict.fromkeys(lx for lx, _ in labels))
            ys = list(dict.fromkeys(ly for _, ly in labels))
            matrix: List[List[Optional[float]]] = [[None] * len(xs) for _ in ys]
            for (lx, ly), (_, _, mean) in zip(labels, agg_rows):
                matrix[ys.index(ly)][xs.index(lx)] = None if math.isnan(mean) else mean
            axis = "proposer" if agg == "over-responder" else "responder"
            write_text(args.svg, heatmap_svg(
                xs, ys, matrix,
                title=f"mean payoff {agg_payoff} per {axis} cell",
                value_label=f"payoff {agg_payoff}",
            ))

    all_converged = all(outcome[0] for outcome in results)
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# spe-region
# ---------------------------------------------------------------------------

def cmd_spe_region(settings: Settings) -> int:
    delta, tau, p = settings["delta"], settings["tau"], settings["p"]
    mode, resolution = settings["mode"], settings["resolution"]
    params = _wrap_value_error(MarketParams, delta=delta, tau=tau, p=p)
    warning = ""
    if not params.in_theorem1_regime:
        bound = delta * delta / (1.0 + delta)
        warning = (
            f"tau={tau!r} exceeds delta^2/(1+delta)={bound!r}; "
            "no feasible targets exist"
        )

    if mode == "gaps":
        if warning:
            print(f"warning: {warning}", file=sys.stderr)
        gaps = payoff_gaps(params)
        header = ["delta", "tau", "p", "candidate_gap", "firm_gap"]
        rows: Iterable = [(delta, tau, p, gaps.candidate_gap, gaps.firm_gap)]
    else:
        if mode == "enumerate":
            lattice = np.arange(resolution) / (resolution - 1)
            count = resolution * resolution
        else:
            settings.seed = settings["seed"]
            rng = np.random.default_rng(settings.seed)
            count = settings["samples"]

        def region_rows() -> Iterable[tuple]:
            """The rows, 4096 targets at a time so that memory stays flat at
            any size: the lattice in row-major order, or the draws in order."""
            for start in range(0, count, 4096):
                stop = min(start + 4096, count)
                if mode == "enumerate":
                    i = np.arange(start, stop)
                    w1, w2 = lattice[i // resolution], lattice[i % resolution]
                else:
                    w1, w2 = rng.random((stop - start, 2)).T
                columns = (w1, w2, *feasible_payoffs(params, w1, w2))
                for row in zip(*(c.tolist() for c in columns)):
                    yield (*row, warning)

        header = ["w1", "w2", "feasible", "W_f", "W_c1", "W_c2", "warning"]
        rows = region_rows()

    write_csv(settings.args.out, header, rows)
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
            f"adversary file has no entry for horizon {horizon} and no default"
        )
    if not isinstance(entry, dict):
        raise ConfigError(f"adversary entry for {horizon} must be an object")
    if "cycle" in entry:
        cycle = entry["cycle"]
        if not isinstance(cycle, list) or not cycle:
            raise ConfigError(f"adversary cycle for {horizon} must be a nonempty list")
        plays = cycle[:horizon]  # the entries the rounds use, each checked once
    elif "plays" in entry:
        plays = entry["plays"]
        if not isinstance(plays, list) or len(plays) != horizon:
            raise ConfigError(
                f"adversary plays for {horizon} must list exactly {horizon} rounds"
            )
    else:
        raise ConfigError(f"adversary entry for {horizon} needs a cycle or plays field")
    for t, play in enumerate(plays, start=1):
        if not isinstance(play, list) or len(play) != rounds:
            raise ConfigError(
                f"adversary play {t} for horizon {horizon} must list "
                f"{rounds} values"
            )
        _check_numbers(play, f"adversary play {t} for horizon {horizon}")
        if not all(0.0 <= v <= 1.0 for v in play):
            raise ConfigError(
                f"adversary play {t} for horizon {horizon} has a value "
                "outside [0, 1]"
            )
    bins = entry.get("bins")
    if bins is not None and not isinstance(bins, list):
        raise ConfigError(f"adversary bins for {horizon} must be a list")
    for k, values in enumerate(bins or (), start=1):
        if not isinstance(values, list):
            raise ConfigError(
                f"adversary bin {k} for horizon {horizon} must be a list of values"
            )
        _check_numbers(values, f"adversary bin {k} for horizon {horizon}")
    plays = [tuple(float(v) for v in play) for play in plays]
    # round t + 1 plays entry t mod the number of entries (a cycle repeats)
    return [plays[t % len(plays)] for t in range(horizon)], bins


def _check_numbers(values: list, what: str) -> None:
    """JSON numbers only: ``true`` is not the share 1."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(
                f"{what} has a value that is not a number: {json.dumps(v)}"
            )


def _regret_start(
    settings: Settings, key: str, grid: int, horizon: int, fallback
) -> Tuple[int, ...]:
    """Grid numerators of a regret start or anchor override, else fallback."""
    if key not in settings:
        return fallback
    entries = []
    for value in settings[key]:
        nearest, exact = snap_share(value, grid)
        if not exact:
            raise _off_grid(key, value, grid, f" (horizon {horizon})")
        entries.append(nearest)
    if len(entries) != settings["rounds"]:
        rounds = settings["rounds"]
        raise ConfigError(f"{key}: expected {rounds} comma-separated values")
    return tuple(entries)


def cmd_regret(settings: Settings) -> int:
    rounds = settings["rounds"]
    doc = _load_adversary_file(settings["adversary"])

    # Validate and assemble every horizon before running any of them, so a
    # bad entry fails before any learning work.
    experiments = []
    for horizon in settings["horizons"]:
        grid = settings.get("grid", horizon)
        plays, bins = _adversary_plays(doc, horizon, rounds)
        game = _wrap_value_error(
            GameConfig, rounds=rounds, grid=grid, delta=settings["delta"]
        )
        adversary = _wrap_value_error(make_adversary, game, plays, bins=bins)
        initial = _regret_start(settings, "wp", grid, horizon, (grid // 2,) * rounds)
        anchor = _regret_start(settings, "alpha-p", grid, horizon, initial)
        config = _wrap_value_error(
            LearnerConfig, owner="P", reg=settings["reg"],
            rate=settings.get("rate", 1.0 / math.sqrt(horizon)),
            anchor=Strategy(anchor, grid), initial=Strategy(initial, grid),
            horizon=horizon,
        )
        experiments.append((game, config, adversary))

    rows = []
    for game, config, adversary in experiments:
        regret = _wrap_value_error(schedule_regret, game, config, adversary)
        rows.append((
            config.horizon, regret.regret_vs_grid, regret.regret_vs_continuous,
            regret.regret_vs_continuous / math.sqrt(config.horizon),
        ))

    header = ["T", "regret_grid", "regret_continuous", "regret_per_sqrt_T"]
    write_csv(settings.args.out, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-spe
# ---------------------------------------------------------------------------

def cmd_verify_spe(settings: Settings) -> int:
    params = _wrap_value_error(
        MarketParams, delta=settings["delta"], tau=settings["tau"], p=settings["p"]
    )
    target = PayoffTarget(w1=settings["w1"], w2=settings["w2"])
    cert = _wrap_value_error(construct_certificate, params, target, settings["z-rule"])
    stationary = prop2_check(cert, params)
    deviations = one_shot_deviation_scan(cert, params, scan_grid=settings["scan-grid"])
    w_f, w_c1, w_c2 = expected_match_payoffs(cert)

    reported = [
        {**dev._asdict(), "offer": None if math.isnan(dev.offer) else dev.offer}
        for dev in deviations[:MAX_REPORTED_DEVIATIONS]
    ]
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
    write_json(settings.args.out, document)
    clean = stationary and not deviations
    return EXIT_OK if clean else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "run": "one self-play learning run",
    "sweep": "sweep initial strategies",
    "spe-region": "map feasible market targets",
    "regret": "regret vs scripted adversaries",
    "verify-spe": "verify one market target end to end",
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser: one flag per ``OPTIONS`` entry, plus ``--config``.

    Built on the first call and reused by every later ``main()`` in the
    process.  It holds no handler: ``main`` looks up ``cmd_<command>`` by
    name at each call, so a module attribute replaced after the first call
    is the one that runs.
    """
    parser = argparse.ArgumentParser(
        prog="bargainlab",
        description="Bargaining-game learning and equilibrium laboratory.",
    )
    version = f"%(prog)s {__version__}"
    parser.add_argument("--version", action="version", version=version)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("--config", help="key=value file or run-manifest JSON")
        for opt in OPTIONS[command]:
            if opt.kind == "bool":
                cmd.add_argument(
                    f"--{opt.key}", action="store_true", default=None, help=opt.help
                )
            else:
                cmd.add_argument(f"--{opt.key}", help=opt.help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (None, 0) else EXIT_INVALID
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        settings = Settings(args)
        code = handler(settings)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.manifest:
        write_json(args.manifest, settings.manifest())
    return code


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
