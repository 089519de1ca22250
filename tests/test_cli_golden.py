"""Golden outputs of the command-line front end.

One small command per subcommand, whose outputs are pinned by sha256 digest.
Together the commands set every configuration key of every subcommand at
least once.  Each written manifest is fed back through ``--config`` and must
reproduce the outputs.  A second table pins, for one bad value of each kind,
exit code 2, the exact stderr text, and that no output file is written.

The commands run in a temporary working directory with relative paths, so
no path that varies from run to run enters a manifest.
"""

import hashlib
import json

import pytest

from bargainlab.cli import main

ADVERSARY = {
    "20": {"plays": [[0.5, 0.5], [0.35, 0.85], [0.2, 0.15], [0.35, 0.5]] * 5},
    "default": {"cycle": [[0.3, 0.6], [0.7, 0.2]]},
}

SWEEP_CONFIG = (
    "# two-axis one-round sweep\n"
    "rounds=1\ndelta=0.8\ngrid=8\nrate=20\nreg=1\nhorizon=50\n"
    "wp-values=0.25,0.5,0.8\nwr=0.375\nalpha-p=0.625\nalpha-r=0.875\n"
    "snap=yes\njobs=1\n"
)

TWO_ROUND = [
    "--rounds", "2", "--delta", "0.9", "--grid", "16", "--rate", "40",
    "--reg", "1",
]

# name -> (argv, exit code, {output file: sha256})
CASES = {
    "run-trace": (
        ["run", *TWO_ROUND, "--horizon", "12", "--wp", "0.5,0.5",
         "--wr", "0.0625,1", "--alpha-p", "0.125,0.375",
         "--alpha-r", "0.5625,0.875", "--trace",
         "--out", "out.json", "--manifest", "manifest.json"],
        0,
        {
            "out.json": "6fad708659706102ed04d95c20702f87f305d99273785c50093d93e818a2f57f",
            "manifest.json": "c76dd3cb2c75c60f9730066ea57d144c5a4561c6514b8fc3d76f2d180055a122",
        },
    ),
    "run-snap": (
        ["run", *TWO_ROUND, "--horizon", "30", "--wp", "0.5,0.52",
         "--wr", "0.07,1", "--alpha-p", "0.125,0.375",
         "--alpha-r", "0.5625,0.875", "--snap",
         "--out", "out.json", "--manifest", "manifest.json"],
        0,
        {
            "out.json": "0cb76af74a652b45f24525d89f163210c8a0bb9eb53ec2667ea0953d71d3e768",
            "manifest.json": "30e539289e5c281f1e6ac9356524c0cfde6db9349157a35f65136018c2b6df7d",
        },
    ),
    "sweep-fixed-wp": (
        ["sweep", *TWO_ROUND, "--horizon", "60", "--wp", "0.25,0.75",
         "--wr-values", "0.125,0.875", "--alpha-p", "0.125,0.375",
         "--alpha-r", "0.375,0.875", "--agg", "over-proposer",
         "--agg-payoff", "R", "--jobs", "2", "--out", "cells.csv",
         "--agg-out", "agg.csv", "--svg", "heat.svg",
         "--manifest", "manifest.json"],
        3,
        {
            "cells.csv": "410b55ba7e53d4752c5e972f33a4c75a2241b8adae17d9869377ac75323296ac",
            "agg.csv": "9cd1b06d72e7b5fff134d60775910fdc22fbbee4411f17628996ff2b0920467c",
            "heat.svg": "3d3d058a14e7767529643877d7fe7e48b39983fd52c19f40ffdea882a4e32cf2",
            "manifest.json": "bf95e632017a360b642683cc5d4c157ed337a47a8caf207fd14a59742ffd796a",
        },
    ),
    "sweep-config": (
        ["sweep", "--config", "sweep.cfg", "--out", "cells.csv",
         "--manifest", "manifest.json"],
        0,
        {
            "cells.csv": "c8526d3678d5aa0f8ff90c4dd7acc2078390053dccdfe4f81775e7a83ee767c9",
            "manifest.json": "59d7831b8a45540ea2cdcfe6dfb0b576ca83ebf9d32e8266c89df358da66c012",
        },
    ),
    "spe-region-sample": (
        ["spe-region", "--delta", "0.9", "--tau", "0.4", "--p", "0.5",
         "--mode", "sample", "--resolution", "7", "--samples", "25",
         "--seed", "3", "--out", "region.csv", "--manifest", "manifest.json"],
        0,
        {
            "region.csv": "5db66ff235fd244eea7c475cc124e33292e8c78d8e31ed51ab83859afb0c5a2d",
            "manifest.json": "0f254a3c6091257e99faba555a10c8fd549c5f8eca8c0d12a45813be6f691dfc",
        },
    ),
    "regret": (
        ["regret", "--rounds", "2", "--delta", "0.8", "--reg", "2",
         "--horizons", "20,30", "--adversary", "adv.json", "--grid", "10",
         "--rate", "0.5", "--wp", "0.5,0.6", "--alpha-p", "0.3,0.7",
         "--out", "regret.csv", "--manifest", "manifest.json"],
        0,
        {
            "regret.csv": "01a818c0c0e14ab7b393e93d89a60d70c36c0ceb84a15f23c28cc635888a4f31",
            "manifest.json": "ae5d50b4847415ca08b1764c462c76e9c71e57520cf2263ecb7f2bedbe8d1558",
        },
    ),
    "verify-spe": (
        ["verify-spe", "--delta", "0.9", "--tau", "0.4", "--p", "0.5",
         "--w1", "0.3", "--w2", "0.85", "--z-rule", "lower",
         "--scan-grid", "50", "--out", "report.json",
         "--manifest", "manifest.json"],
        0,
        {
            "report.json": "aea3f3c2c579e18ac15550b78a4ef58c8168750f1f41a3e5e084a32b9b9bcdba",
            "manifest.json": "000bfc2568efe4a2c5464b65aae6fc4f4f540481f706ab5eda6d0f43f345bf0f",
        },
    ),
}

# Replays whose outputs differ from the original run: a snapped literal is
# recorded in canonical form, so the replay rounds nothing and its manifest
# (embedded in the run record) lists no rounding.
REPLAY_DIFFERS = {
    "run-snap": {
        "out.json": "b274c6e82ef79c6207a6a78829de460d49ada1d8c6c2d1692ecab3419fed5312",
        "manifest.json": "ecb7cea40adaba1e59292a9dc5fc75733ff3aa9fe0cdf3903199748758d1b24e",
    },
    "sweep-config": {
        "manifest.json": "22ae339bdd3c950af47a159c5193eeb68308cc53a33f2ffd4b79b4faeae7768b",
    },
}


def _inputs(directory):
    (directory / "adv.json").write_text(json.dumps(ADVERSARY))
    (directory / "sweep.cfg").write_text(SWEEP_CONFIG)
    (directory / "spe.json").write_text(json.dumps(
        {"command": "spe-region", "version": "0", "seed": None,
         "grid_rounding": [], "config": {"delta": "0.9"}}
    ))


def _digests(directory, names):
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in names
    }


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BARGAINLAB_JOBS", raising=False)
    _inputs(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(workdir, name):
    argv, code, expected = CASES[name]
    assert main(argv) == code
    assert _digests(workdir, expected) == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_manifest_replays(workdir, name):
    argv, code, expected = CASES[name]
    assert main(argv) == code
    (workdir / "manifest.json").rename(workdir / "first.json")
    outputs = [a for a in argv if a in expected]
    replay = [argv[0], "--config", "first.json"]
    for flag, value in zip(argv, argv[1:]):
        if value in expected:
            replay += [flag, value]
    assert main(replay) == code
    want = {**expected, **REPLAY_DIFFERS.get(name, {})}
    assert _digests(workdir, outputs) == {n: want[n] for n in outputs}


RUN_1 = [
    "run", "--rounds", "1", "--grid", "8", "--rate", "20", "--horizon", "10",
    "--wp", "0.75", "--wr", "0.5", "--alpha-p", "0.625", "--alpha-r", "0.875",
]
SWEEP_1 = [
    "sweep", "--rounds", "1", "--grid", "8", "--rate", "20", "--horizon", "10",
    "--wr", "0.5", "--alpha-p", "0.625", "--alpha-r", "0.875",
]
REGRET_2 = [
    "regret", "--rounds", "2", "--horizons", "20", "--adversary", "adv.json",
    "--grid", "10",
]

# (argv, config file text or None, stderr)
BAD_INPUTS = {
    "int-below-minimum": (
        [*RUN_1, "--grid", "0"], None,
        "error: grid: must be >= 1, got 0\n",
    ),
    "non-finite-float": (
        [*RUN_1, "--delta", "nan"], None,
        "error: delta: must be finite, got 'nan'\n",
    ),
    "bad-bool": (
        RUN_1, "trace=Maybe\n",
        "error: trace: expected true or false, got 'maybe'\n",
    ),
    "bad-choice": (
        [*SWEEP_1, "--wp-values", "0.25", "--agg", "sideways"], None,
        "error: agg: expected one of over-responder, over-proposer, none; "
        "got 'sideways'\n",
    ),
    "reg-3": (
        [*REGRET_2, "--reg", "3"], None,
        "error: reg: supported regularizer exponents are 1 and 2, got 3\n",
    ),
    "bad-int-list": (
        ["regret", "--horizons", "20,x", "--adversary", "adv.json"], None,
        "error: horizons: expected comma-separated integers\n",
    ),
    "horizon-below-minimum": (
        ["regret", "--horizons", "20,0", "--adversary", "adv.json"], None,
        "error: horizons: must be >= 1, got 0\n",
    ),
    "share-list-outside-unit": (
        [*REGRET_2, "--alpha-p", "0.5,1.5"], None,
        "error: alpha-p: values must lie in [0, 1]\n",
    ),
    "literal-outside-unit": (
        [*RUN_1, "--wp", "1.5"], None,
        "error: wp: '1.5' is outside [0, 1]\n",
    ),
    "off-grid-literal": (
        [*RUN_1, "--wr", "0.55"], None,
        "error: wr: 0.55 is not a multiple of 1/8; nearest grid values are "
        "0.5 and 0.625\n",
    ),
    "off-grid-level": (
        [*SWEEP_1, "--wp-values", "0.25,0.3"], None,
        "error: wp-values: 0.3 is not a multiple of 1/8; nearest grid values "
        "are 0.25 and 0.375\n",
    ),
    "off-grid-regret-start": (
        [*REGRET_2, "--wp", "0.55,0.5"], None,
        "error: wp: 0.55 is not a multiple of 1/10 (horizon 20); nearest grid "
        "values are 0.5 and 0.6\n",
    ),
    "literal-count": (
        [*RUN_1, "--rounds", "2"], None,
        "error: wp: expected 2 comma-separated values, got 1\n",
    ),
    "regret-literal-count": (
        [*REGRET_2, "--alpha-p", "0.5"], None,
        "error: alpha-p: expected 2 comma-separated values\n",
    ),
    "wp-and-wp-values": (
        [*SWEEP_1, "--wp", "0.25", "--wp-values", "0.25,0.5"], None,
        "error: exactly one of wp and wp-values is required\n",
    ),
    "unknown-config-key": (
        RUN_1, "rounds=1\nwidget=7\n",
        "error: unknown configuration key: 'widget'\n",
    ),
    "manifest-of-other-command": (
        ["run", "--config", "spe.json"], None,
        "error: manifest was produced by 'spe-region', not by 'run'\n",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_2_and_writes_nothing(workdir, capsys, name):
    argv, config, stderr = BAD_INPUTS[name]
    argv = list(argv)
    if config is not None:
        (workdir / "bad.cfg").write_text(config)
        argv += ["--config", "bad.cfg"]
    before = sorted(p.name for p in workdir.iterdir())
    assert main([*argv, "--out", "out.txt", "--manifest", "m.json"]) == 2
    assert capsys.readouterr().err == stderr
    assert sorted(p.name for p in workdir.iterdir()) == before


# reg=1 regret runs, recorded before the learner was played from kernel rows:
# the pure-play learner against the one-round 0.3/0.6 cycle (grid D = T), and
# against a two-round schedule with off-grid plays.
REG1_ADVERSARIES = {
    "cycle.json": {"default": {"cycle": [[0.3], [0.6]]}},
    "plays.json": {
        "20": {"plays": [[0.5, 0.5], [0.35, 0.85], [0.2, 0.15], [0.35, 0.5]] * 5},
        "30": {"plays": [[0.35, 0.85], [0.2, 0.15], [0.5, 0.5]] * 10},
    },
}

REG1_REGRET = {
    "cycle": (
        ["regret", "--reg", "1", "--horizons", "100,400",
         "--adversary", "cycle.json"],
        {
            "regret.csv": "6e0a4091a36829a8effe1453f311b4fbbd8da778ff9d98c24fe7753eee458393",
            "manifest.json": "e42d312a8d35c824b85525ac845a00fa161dd25eb3f6d6bc0b13f6b0e4ac947b",
        },
    ),
    "off-grid-plays": (
        ["regret", "--rounds", "2", "--delta", "0.8", "--reg", "1",
         "--horizons", "20,30", "--adversary", "plays.json", "--grid", "10",
         "--rate", "5", "--alpha-p", "0.3,0.7"],
        {
            "regret.csv": "f91f676fe9d9b750dd3c524d53f75b1c1d342f83a0811e0940c6f33c729ecc37",
            "manifest.json": "bd0c32260b5fd9b24c98518580bf39e8e389c4cd51209791ab01469447a4b0a8",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(REG1_REGRET))
def test_reg1_regret_goldens(workdir, name):
    for file, adversary in REG1_ADVERSARIES.items():
        (workdir / file).write_text(json.dumps(adversary))
    argv, expected = REG1_REGRET[name]
    assert main([*argv, "--out", "regret.csv", "--manifest", "manifest.json"]) == 0
    assert _digests(workdir, expected) == expected


# reg=2 self-play, recorded before convergence was decided by the batch
# detector alone.  The first run converges at t=13 on weights a few ulps off
# one-hot, so it pays 0.6250000000000089 / 0.37500000000000533, not the
# table's 0.625 / 0.375.  The second ends on a genuine mixture: exit 3,
# payoffs 0.7284221094859158 / 0.2715778905140851.  The two-round sweep's 36
# cells hold converged cells that end off one-hot and unconverged cells that
# end on mixtures.
REG2_CASES = {
    "run-near-one-hot": (
        ["run", "--rounds", "1", "--delta", "0.9", "--grid", "8", "--rate", "0.7",
         "--reg", "2", "--horizon", "80", "--wp", "0", "--wr", "0.375",
         "--alpha-p", "1", "--alpha-r", "0.375", "--trace",
         "--out", "out.json", "--manifest", "manifest.json"],
        0,
        {
            "out.json": "6393f04564336cd2618812d0c71835065da19d1a01d5cf193c324c581569582a",
            "manifest.json": "0221fb163ba757fb30da7b00193fefdd72003caca85e80eccb90f5e839d6ea8d",
        },
    ),
    "run-genuine-mixture": (
        ["run", "--rounds", "1", "--delta", "0.9", "--grid", "4", "--rate", "0.5",
         "--reg", "2", "--horizon", "40", "--wp", "0", "--wr", "0.5",
         "--alpha-p", "0", "--alpha-r", "1",
         "--out", "out.json", "--manifest", "manifest.json"],
        3,
        {
            "out.json": "baf9f12f75b1256829dbc15418a77f375506442bc78f5114f5bee070c35dcbc6",
            "manifest.json": "84ce4315e91afc849494b26655a9558d4e466ecfdb38f589920a4a42a0883424",
        },
    ),
    "sweep": (
        ["sweep", "--rounds", "2", "--delta", "0.9", "--grid", "4", "--rate", "0.3",
         "--reg", "2", "--horizon", "60", "--wp-values", "0,1",
         "--wr-values", "0,0.25,1", "--alpha-p", "0,0.75",
         "--alpha-r", "0.75,0.75",
         "--out", "cells.csv", "--manifest", "manifest.json"],
        3,
        {
            "cells.csv": "8a47afb0bd6841cf7a01b1decffdda3d0ca32fba4cc3e0d1ed7a59a25f663b70",
            "manifest.json": "b6c4dd36be6d0f462ec24faf47671f0be97a27536bfb4e5499dd2c625ff55c7c",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(REG2_CASES))
def test_reg2_golden_outputs(workdir, name):
    argv, code, expected = REG2_CASES[name]
    assert main(argv) == code
    assert _digests(workdir, expected) == expected


@pytest.mark.parametrize("name", sorted(REG2_CASES))
def test_reg2_manifest_replays(workdir, name):
    argv, code, expected = REG2_CASES[name]
    assert main(argv) == code
    (workdir / "manifest.json").rename(workdir / "first.json")
    replay = [argv[0], "--config", "first.json"]
    for flag, value in zip(argv, argv[1:]):
        if value in expected:
            replay += [flag, value]
    assert main(replay) == code
    assert _digests(workdir, expected) == expected


VERIFY_SPE = ["verify-spe", "--delta", "0.9", "--p", "0.5", "--w1", "0.5", "--w2", "0.5"]
TAU_ONE = "error: tau must lie in [0, 1), got 1.0\n"
RATE_OVERFLOW = (
    "error: rate 1e-320 is too small: its anchor handicap 2 / rate overflows\n"
)

# A rate whose handicap 2 / rate overflows played NaN objectives, and tau = 1
# divided by zero in the bounds.  (argv, stderr)
DOMAIN_EDGES = {
    "run-subnormal-rate": ([*RUN_1, "--rate", "1e-320"], RATE_OVERFLOW),
    "sweep-subnormal-rate": (
        [*SWEEP_1, "--wp", "0.75", "--rate", "1e-320"], RATE_OVERFLOW,
    ),
    "regret-subnormal-rate": (
        [*REGRET_2, "--reg", "1", "--rate", "1e-320"], RATE_OVERFLOW,
    ),
    "verify-spe-tau-one": ([*VERIFY_SPE, "--tau", "1.0"], TAU_ONE),
    "spe-region-tau-one": (
        ["spe-region", "--delta", "0.9", "--tau", "1.0", "--p", "0.5"], TAU_ONE,
    ),
    "gaps-tau-one": (
        ["spe-region", "--delta", "0.9", "--tau", "1.0", "--p", "0.5",
         "--mode", "gaps"], TAU_ONE,
    ),
    "gaps-tau-one-p-one": (
        ["spe-region", "--delta", "0.9", "--tau", "1.0", "--p", "1",
         "--mode", "gaps"], TAU_ONE,
    ),
}


@pytest.mark.parametrize("name", sorted(DOMAIN_EDGES))
def test_domain_edge_exits_2_and_writes_nothing(workdir, capsys, name):
    argv, stderr = DOMAIN_EDGES[name]
    before = sorted(p.name for p in workdir.iterdir())
    assert main([*argv, "--out", "out.txt", "--manifest", "m.json"]) == 2
    assert capsys.readouterr().err == stderr
    assert sorted(p.name for p in workdir.iterdir()) == before


def test_tau_within_boundary_tol_of_the_regime_is_in_it(workdir):
    """tau = delta^2/(1+delta) + 5e-13 is inside the regime up to
    BOUNDARY_TOL, so its feasible rows carry no out-of-regime warning."""
    argv = ["spe-region", "--delta", "0.9", "--tau", "0.42631578947418425",
            "--p", "0.5", "--resolution", "5", "--out", "region.csv"]
    assert main(argv) == 0
    rows = [line.split(",") for line in
            (workdir / "region.csv").read_text().splitlines()[1:]]
    assert sum(row[2] == "true" for row in rows) == 7
    assert all(row[6] == "" for row in rows)


GAPS = ["spe-region", "--p", "0.5", "--mode", "gaps", "--out", "gaps.csv"]


def test_gaps_outside_the_regime_warn_on_stderr(workdir, capsys):
    """Outside the regime no target is supportable and the closed-form gaps
    are negative.  Gaps mode says so in the same stderr line the other
    modes put in their warning column, and its CSV and exit code stay."""
    assert main([*GAPS, "--delta", "0.5", "--tau", "0.9"]) == 0
    assert capsys.readouterr().err == (
        "warning: tau=0.9 exceeds delta^2/(1+delta)=0.16666666666666666; "
        "no feasible targets exist\n"
    )
    assert (workdir / "gaps.csv").read_bytes() == (
        b"delta,tau,p,candidate_gap,firm_gap\r\n"
        b"0.5,0.9,0.5,-0.7272727272727273,-4.000000000000001\r\n"
    )


def test_gaps_inside_the_regime_are_silent(workdir, capsys):
    assert main([*GAPS, "--delta", "0.9", "--tau", "0.4"]) == 0
    assert capsys.readouterr().err == ""
    assert (workdir / "gaps.csv").read_bytes() == (
        b"delta,tau,p,candidate_gap,firm_gap\r\n"
        b"0.9,0.4,0.5,0.625,0.8333333333333334\r\n"
    )
