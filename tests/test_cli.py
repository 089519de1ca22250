"""End-to-end tests for the command-line front end.

Every test drives ``bargainlab.cli.main`` directly with an argv list and
checks exit codes, emitted files, and determinism.  Exit-code contract:
0 success, 2 invalid input, 3 completed without convergence.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from bargainlab import __version__, cli
from bargainlab.cli import main
from bargainlab.reports import write_csv
from bargainlab.spe import MarketParams, feasible_payoffs, one_shot_deviation_scan

REPLAY = [
    "--rounds", "1", "--grid", "8", "--rate", "20", "--reg", "1",
    "--horizon", "300", "--wp", "0.75", "--wr", "0.5",
    "--alpha-p", "0.625", "--alpha-r", "0.875",
]

EXAMPLE_RUN_A = [
    "--rounds", "2", "--delta", "0.9", "--grid", "16", "--rate", "40",
    "--reg", "1", "--horizon", "300",
    "--wp", "0.5,0.5", "--alpha-p", "0.125,0.375",
    "--wr", "0.0625,1.0", "--alpha-r", "0.5625,0.875",
]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunCommand:
    def test_replay_example(self, tmp_path):
        out = tmp_path / "rec.json"
        assert main(["run", *REPLAY, "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["result"]["converged"] is True
        assert rec["result"]["converged_at"] == 4
        assert rec["result"]["ne_value"] == 0.5
        assert rec["result"]["ne_round"] == 1
        assert rec["result"]["payoff_P"] == 0.5
        assert rec["result"]["payoff_R"] == 0.5
        assert rec["manifest"]["command"] == "run"

    def test_two_round_example(self, tmp_path):
        out = tmp_path / "rec.json"
        assert main(["run", *EXAMPLE_RUN_A, "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["result"]["ne_value"] == 0.0625
        assert rec["result"]["converged_at"] == 3

    def test_out_defaults_to_stdout(self, capsys):
        assert main(["run", *REPLAY]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["result"]["ne_value"] == 0.5

    def test_no_convergence_exits_3_but_writes_record(self, tmp_path):
        out = tmp_path / "rec.json"
        args = [a if a != "300" else "3" for a in REPLAY]
        assert main(["run", *args, "--out", str(out)]) == 3
        rec = json.loads(out.read_text())
        assert rec["result"]["converged"] is False
        assert rec["result"]["converged_at"] is None
        assert rec["result"]["ne_value"] is None

    def test_off_grid_literal_exits_2_naming_neighbours(self, tmp_path, capsys):
        out = tmp_path / "rec.json"
        rc = main(
            ["run", *EXAMPLE_RUN_A[:-4], "--wr", "0.7,1.0",
             "--alpha-r", "0.5625,0.875", "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "0.7" in err and "0.6875" in err and "0.75" in err
        assert not out.exists()

    def test_unsupported_regularizer_exits_2(self):
        args = list(REPLAY)
        args[args.index("--reg") + 1] = "3"
        assert main(["run", *args]) == 2

    def test_non_integer_rounds_exit_2_writing_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        args = list(REPLAY)
        args[args.index("--rounds") + 1] = "x"
        assert main(["run", *args, "--out", "rec.json", "--manifest", "m.json"]) == 2
        assert capsys.readouterr().err == "error: rounds: expected an integer, got 'x'\n"
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_exits_2(self, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "rec.json"
        assert main(["run", *REPLAY, "--out", str(out)]) == 2

    def test_trace_toggle(self, tmp_path):
        out = tmp_path / "rec.json"
        args = [a if a != "300" else "6" for a in REPLAY]
        main(["run", *args, "--out", str(out)])
        rec = json.loads(out.read_text())
        assert "trajectory" not in rec
        assert rec["trajectory_summary"]["steps"] == 6
        main(["run", *args, "--trace", "--out", str(out)])
        rec = json.loads(out.read_text())
        assert len(rec["trajectory"]) == 6
        assert rec["trajectory"][0] == [[0.75], [0.5]]

    def test_snap_rounds_and_records(self, tmp_path):
        out = tmp_path / "rec.json"
        value = repr(1 / (16 * 0.9))
        base = [
            "--rounds", "2", "--delta", "0.9", "--grid", "16", "--rate", "40",
            "--reg", "1", "--horizon", "5",
            "--wp", "0.5,0.5", "--alpha-p", "0.125,0.375",
            "--wr", f"{value},1.0", "--alpha-r", "0.5625,0.875",
        ]
        assert main(["run", *base, "--out", str(out)]) == 2  # without --snap
        rc = main(["run", *base, "--snap", "--out", str(out)])
        assert rc in (0, 3)
        rec = json.loads(out.read_text())
        rounding = rec["manifest"]["grid_rounding"]
        assert len(rounding) == 1
        assert "0.0625" in rounding[0] and value in rounding[0]
        assert rec["manifest"]["config"]["wr"] == "0.0625,1.0"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", *EXAMPLE_RUN_A, "--out", str(a)])
        main(["run", *EXAMPLE_RUN_A, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestConfigAndManifest:
    def test_config_file_supplies_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# replay configuration\n"
            "rounds=1\ngrid=8\nrate=20\nreg=1\nhorizon=300\n"
            "wp=0.75\nwr=0.5\nalpha-p=0.625\nalpha-r=0.875\n"
        )
        out = tmp_path / "rec.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["result"]["converged_at"] == 4

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "rounds=1\ngrid=8\nrate=20\nreg=1\nhorizon=300\n"
            "wp=0.75\nwr=0.5\nalpha-p=0.625\nalpha-r=0.875\n"
        )
        out = tmp_path / "rec.json"
        assert main(
            ["run", "--config", str(cfg), "--wp", "0.5", "--out", str(out)]
        ) == 0
        rec = json.loads(out.read_text())
        assert rec["manifest"]["config"]["wp"] == "0.5"
        assert rec["result"]["converged_at"] == 1  # equal initials settle at once

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rounds=1\nwidget=7\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_manifest_reruns_byte_identically(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        manifest = tmp_path / "m.json"
        argv = [
            "spe-region", "--delta", "0.9", "--tau", "0.4", "--p", "0.5",
            "--mode", "sample", "--samples", "30", "--seed", "5",
        ]
        assert main([*argv, "--out", str(a), "--manifest", str(manifest)]) == 0
        assert main(
            ["spe-region", "--config", str(manifest), "--out", str(b)]
        ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_for_other_command_exits_2(self, tmp_path):
        manifest = tmp_path / "m.json"
        argv = [
            "spe-region", "--delta", "0.9", "--tau", "0.4", "--p", "0.5",
            "--mode", "gaps",
        ]
        assert main([*argv, "--out", str(tmp_path / "g.csv"),
                     "--manifest", str(manifest)]) == 0
        assert main(["run", "--config", str(manifest)]) == 2


SWEEP_BASE = [
    "sweep", "--rounds", "2", "--delta", "0.9", "--grid", "16",
    "--rate", "40", "--reg", "1", "--horizon", "40",
    "--alpha-p", "0.125,0.375", "--alpha-r", "0.375,0.875",
]


class TestSweepCommand:
    def test_small_sweep_csv_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [*SWEEP_BASE, "--wp-values", "0.125,0.875",
             "--wr", "0.0625,1.0", "--out", str(out)]
        )
        assert rc == 0
        raw = out.read_bytes()
        assert b"\r\n" in raw  # RFC-4180 line endings
        rows = read_csv(out)
        assert rows[0] == [
            "wp1_init", "wp2_init", "wr1_init", "wr2_init", "converged",
            "t_converge", "ne_round", "ne_value", "payoff_P", "payoff_R",
        ]
        assert len(rows) == 1 + 4  # 2x2 proposer grid, fixed responder
        for row in rows[1:]:
            assert row[2] == "0.0625" and row[3] == "1.0"
            assert row[4] in ("true", "false")

    def test_degenerate_1x1_matches_run(self, tmp_path):
        out = tmp_path / "one.csv"
        rc = main(
            ["sweep", "--rounds", "1", "--grid", "8", "--rate", "20",
             "--reg", "1", "--horizon", "300", "--wp", "0.75", "--wr", "0.5",
             "--alpha-p", "0.625", "--alpha-r", "0.875", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 2
        header, row = rows
        rec = dict(zip(header, row))
        assert rec["converged"] == "true"
        assert rec["t_converge"] == "4"
        assert rec["ne_value"] == "0.5"
        assert rec["payoff_P"] == "0.5"

    def test_aggregation_and_svg(self, tmp_path):
        out = tmp_path / "sweep.csv"
        agg = tmp_path / "agg.csv"
        svg = tmp_path / "heat.svg"
        rc = main(
            [*SWEEP_BASE, "--horizon", "300", "--wp-values", "0.25,0.75",
             "--wr-values", "0.25,0.75", "--agg", "over-responder",
             "--agg-out", str(agg), "--svg", str(svg), "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 1 + 16  # 4 proposer cells x 4 responder cells
        arows = read_csv(agg)
        assert arows[0] == ["cell_x", "cell_y", "mean_payoff"]
        assert len(arows) == 1 + 4
        # aggregated means match the per-run rows
        groups = {}
        header = rows[0]
        for row in rows[1:]:
            rec = dict(zip(header, row))
            key = (rec["wp1_init"], rec["wp2_init"])
            groups.setdefault(key, []).append(float(rec["payoff_P"]))
        for cell_x, cell_y, mean in (r for r in arows[1:]):
            expected = sum(groups[(cell_x, cell_y)]) / 4
            assert float(mean) == pytest.approx(expected, abs=1e-12)
        # SVG is well-formed XML with exactly one rect per heatmap cell
        root = ET.parse(svg).getroot()
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        cells = [el for el in rects if el.get("class") == "cell"]
        legend = [el for el in rects if el.get("class") == "legend"]
        assert len(cells) == 4
        assert len(legend) > 0
        assert len(rects) == len(cells) + len(legend)
        texts = [el for el in root.iter() if el.tag.endswith("text")]
        labels = {el.text for el in texts}
        assert "0.25" in labels and "0.75" in labels

    def test_jobs_do_not_change_bytes(self, tmp_path):
        outs = []
        for jobs, name in ((1, "a.csv"), (2, "b.csv")):
            out = tmp_path / name
            rc = main(
                [*SWEEP_BASE, "--horizon", "300", "--wp-values", "0.25,0.75",
                 "--wr-values", "0.25,0.75", "--jobs", str(jobs),
                 "--out", str(out)]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_jobs_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BARGAINLAB_JOBS", "2")
        out = tmp_path / "env.csv"
        rc = main(
            [*SWEEP_BASE, "--wp-values", "0.25,0.75", "--wr", "0.0625,1.0",
             "--out", str(out)]
        )
        assert rc == 0
        assert len(read_csv(out)) == 1 + 4

    def test_invalid_grid_value_writes_nothing(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [*SWEEP_BASE, "--wp-values", "0.25,0.3", "--wr", "0.0625,1.0",
             "--out", str(out)]
        )
        assert rc == 2
        assert not out.exists()

    def test_l2_sweep_smoke(self, tmp_path):
        out = tmp_path / "l2.csv"
        rc = main(
            ["sweep", "--rounds", "1", "--grid", "4", "--rate", "0.5",
             "--reg", "2", "--horizon", "10", "--wp-values", "0.25,0.5",
             "--wr", "0.5", "--alpha-p", "0.25", "--alpha-r", "0.5",
             "--out", str(out)]
        )
        assert rc in (0, 3)
        assert len(read_csv(out)) == 1 + 2


class TestRateWarning:
    """reg=1 with rate <= 2*grid warns on stderr; the outputs do not change.

    The digests are of the files these commands wrote before the warning
    existed.
    """

    RUN = [
        "run", "--rounds", "2", "--delta", "0.9", "--grid", "16",
        "--rate", "20", "--reg", "1", "--horizon", "300",
        "--wp", "0.5,0.5", "--alpha-p", "0.125,0.375",
        "--wr", "0.0625,1.0", "--alpha-r", "0.5625,0.875",
    ]
    SWEEP = [
        "sweep", "--rounds", "2", "--delta", "0.9", "--grid", "16",
        "--rate", "20", "--reg", "1", "--horizon", "40",
        "--alpha-p", "0.125,0.375", "--alpha-r", "0.375,0.875",
        "--wp-values", "0.125,0.875", "--wr", "0.0625,1.0",
    ]
    DIGESTS = {
        "run": "602cf6735a5debbc538e9575fd29aad983b6babaa34dc65c2ba4aa796d4c1884",
        "sweep": "b30ab87ff31fd428d53a322aa9957a5d9122ec2cb0ea014d52864a14a48b1afa",
    }

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_low_rate_warns_and_keeps_bytes(self, tmp_path, capsys, command):
        argv = self.RUN if command == "run" else self.SWEEP
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "warning: rate 20.0 <= 2 * grid 16" in err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[command]

    @pytest.mark.parametrize("argv", [
        ["run", *EXAMPLE_RUN_A],
        [*SWEEP_BASE, "--wp", "0.125,0.875", "--wr", "0.0625,1.0"],
    ])
    def test_rate_above_twice_grid_is_silent(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert "warning" not in capsys.readouterr().err


class TestSpeRegionCommand:
    def test_enumerate_recovers_max_gap(self, tmp_path):
        out = tmp_path / "region.csv"
        rc = main(
            ["spe-region", "--delta", "0.9", "--tau", "0.4", "--p", "0.5",
             "--resolution", "100", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == [
            "w1", "w2", "feasible", "W_f", "W_c1", "W_c2", "warning",
        ]
        feasible = [
            (float(r[0]), float(r[1])) for r in rows[1:] if r[2] == "true"
        ]
        assert feasible
        max_gap = max(w2 - w1 for w1, w2 in feasible)
        assert abs(max_gap - 0.625) <= 1 / 100
        # spot-check the steady-state payoff columns on one feasible row
        for r in rows[1:]:
            if r[2] == "true":
                w1, w2 = float(r[0]), float(r[1])
                assert float(r[3]) == pytest.approx(0.5 * w1 + 0.5 * w2, abs=1e-12)
                assert float(r[4]) == pytest.approx(1 - w1, abs=1e-12)
                assert float(r[5]) == pytest.approx(1 - w2, abs=1e-12)
                break

    def test_regime_violation_warns_all_infeasible(self, tmp_path):
        out = tmp_path / "region.csv"
        rc = main(
            ["spe-region", "--delta", "0.9", "--tau", "0.45", "--p", "0.5",
             "--resolution", "20", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out)
        assert all(r[2] == "false" for r in rows[1:])
        assert all("tau" in r[6] for r in rows[1:])

    def test_zero_optout_cost_range(self, tmp_path):
        out = tmp_path / "region.csv"
        rc = main(
            ["spe-region", "--delta", "0.9", "--tau", "0", "--p", "0.5",
             "--resolution", "101", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out)
        w1s = sorted(float(r[0]) for r in rows[1:] if r[2] == "true")
        assert w1s[0] == pytest.approx(0.05, abs=1e-12)
        assert w1s[-1] == pytest.approx(0.95, abs=1e-12)

    def test_gaps_mode(self, tmp_path):
        out = tmp_path / "gaps.csv"
        rc = main(
            ["spe-region", "--delta", "0.9", "--tau", "0.4", "--p", "0.5",
             "--mode", "gaps", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["delta", "tau", "p", "candidate_gap", "firm_gap"]
        assert float(rows[1][3]) == pytest.approx(0.625, abs=1e-12)
        assert float(rows[1][4]) == pytest.approx(5 / 6, abs=1e-12)

    def test_sample_mode_is_seeded(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "spe-region", "--delta", "0.9", "--tau", "0.4", "--p", "0.5",
            "--mode", "sample", "--samples", "40", "--seed", "7",
        ]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(read_csv(a)) == 1 + 40

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_sample_block_is_the_stream_of_single_draws(self, seed):
        """Sample mode draws its targets from one seeded stream, at most
        4096 (w1, w2) pairs per ``rng.random((k, 2))`` call.  Its goldens
        were recorded from pairs of single draws, so numpy must keep a block
        of draws equal to the stream of single draws."""
        block = np.random.default_rng(seed).random((5000, 2))
        rng = np.random.default_rng(seed)
        pairs = [[rng.random(), rng.random()] for _ in range(5000)]
        assert block.tolist() == pairs

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    def test_region_runs_no_per_target_certificate(self, tmp_path, monkeypatch, mode):
        """The region decides every target in one array pass; the scalar
        certificate pipeline is the library's and the tests' oracle."""
        def refuse(*args, **kwargs):
            raise AssertionError("per-target scalar call")

        for name in ("PayoffTarget", "construct_certificate", "prop2_check"):
            monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / "region.csv"
        assert main(["spe-region", "--delta", "0.9", "--tau", "0.4", "--p", "0.5",
                     "--mode", mode, "--resolution", "30", "--out", str(out)]) == 0
        assert sum(r[2] == "true" for r in read_csv(out)[1:]) > 0

    REGION = ["spe-region", "--delta", "0.9", "--tau", "0.4", "--p", "0.5"]

    # 67² = 4489 and 4096 + 905 targets: one full block and a partial one
    @pytest.mark.parametrize("mode, size", [("enumerate", 67), ("sample", 5001)])
    def test_blocks_write_the_rows_of_whole_arrays(self, tmp_path, mode, size):
        """The region decides and writes its targets a block at a time; the
        bytes equal rows built from the whole lattice or from one draw."""
        if mode == "enumerate":
            lattice = np.arange(size) / (size - 1)
            w1, w2 = np.repeat(lattice, size), np.tile(lattice, size)
        else:
            w1, w2 = np.random.default_rng(5).random((size, 2)).T
        params = MarketParams(delta=0.9, tau=0.4, p=0.5)
        columns = (w1, w2, *feasible_payoffs(params, w1, w2))
        expected = tmp_path / "expected.csv"
        write_csv(str(expected),
                  ["w1", "w2", "feasible", "W_f", "W_c1", "W_c2", "warning"],
                  ((*row, "") for row in zip(*(c.tolist() for c in columns))))
        out = tmp_path / "region.csv"
        assert main([*self.REGION, "--mode", mode, "--resolution", str(size),
                     "--samples", str(size), "--seed", "5", "--out", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_region_memory_does_not_grow_with_the_lattice(self, monkeypatch):
        """At 300² targets a whole-lattice pass peaks at about 6 MB of
        allocations; one block at a time stays near one block's worth.  The
        rows are counted instead of formatted, which tracing makes slow."""
        written = []
        monkeypatch.setattr(cli, "write_csv", lambda path, header, rows:
                            written.append(sum(1 for _ in rows)))
        assert main([*self.REGION, "--resolution", "9"]) == 0
        tracemalloc.start()  # after the warm-up run, imports are not counted
        try:
            assert main([*self.REGION, "--resolution", "300"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written == [9 * 9, 300 * 300]
        assert peak < 2_000_000


class TestRegretCommand:
    def _adversary(self, tmp_path):
        path = tmp_path / "adv.json"
        path.write_text(json.dumps({"default": {"cycle": [[0.3], [0.6]]}}))
        return path

    def test_cycling_adversary(self, tmp_path):
        out = tmp_path / "regret.csv"
        rc = main(
            ["regret", "--horizons", "100,400",
             "--adversary", str(self._adversary(tmp_path)),
             "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == [
            "T", "regret_grid", "regret_continuous", "regret_per_sqrt_T",
        ]
        assert [r[0] for r in rows[1:]] == ["100", "400"]
        normalized = []
        for row in rows[1:]:
            grid, cont, norm = map(float, row[1:])
            assert cont > 0
            # the cycling values sit on the strategy grid, so both
            # benchmarks coincide
            assert grid == pytest.approx(cont, abs=1e-9)
            assert norm == pytest.approx(cont / math.sqrt(int(row[0])), abs=1e-12)
            normalized.append(norm)
        assert normalized[1] / normalized[0] <= 1.25

    def test_bin_spacing_violation_exits_2(self, tmp_path):
        adv = tmp_path / "adv.json"
        adv.write_text(
            json.dumps(
                {"100": {"plays": [[0.3], [0.3005]] * 50,
                         "bins": [[0.3, 0.3005]]}}
            )
        )
        rc = main(
            ["regret", "--horizons", "100", "--adversary", str(adv),
             "--out", str(tmp_path / "r.csv")]
        )
        assert rc == 2
        assert not (tmp_path / "r.csv").exists()

    def test_missing_horizon_entry_exits_2(self, tmp_path):
        adv = tmp_path / "adv.json"
        adv.write_text(json.dumps({"100": {"cycle": [[0.3]]}}))
        rc = main(
            ["regret", "--horizons", "100,200", "--adversary", str(adv),
             "--out", str(tmp_path / "r.csv")]
        )
        assert rc == 2


class TestVerifySpeCommand:
    ARGS = [
        "verify-spe", "--delta", "0.9", "--tau", "0.4", "--p", "0.5",
        "--w1", repr(7 / 24), "--w2", repr(11 / 12),
    ]

    def test_worked_instance_verifies(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main([*self.ARGS, "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["feasible"] is True
        assert rec["prop2"] is True
        assert rec["deviation_count"] == 0
        assert rec["certificate"]["z_fc1"] == pytest.approx(41 / 120, abs=1e-12)
        assert rec["expected_payoffs"]["W_f"] == pytest.approx(29 / 48, abs=1e-12)

    def test_infeasible_target_exits_2(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        args = list(self.ARGS)
        args[args.index("--w2") + 1] = "0.95"
        assert main([*args, "--out", str(out)]) == 2
        assert "w2-upper" in capsys.readouterr().err
        assert not out.exists()


class TestVerifySpeReportsDeviations:
    """A certificate that fails the one-shot deviation scan exits 3, counts
    every deviation and reports the first ``MAX_REPORTED_DEVIATIONS``; an
    opt-out deviation has no offer on the table and reports ``null``."""

    @pytest.mark.parametrize("change,count,optouts", [
        (lambda cert: {"z_fc1": cert.u_f / 2}, 239, 0),
        (lambda cert: {"u_c1": cert.params.delta - cert.u_f + 0.02}, 44, 4),
    ], ids=["lowball-share", "outside-option-above-threat"])
    def test_exit_3_and_reported_deviations(
        self, tmp_path, monkeypatch, change, count, optouts
    ):
        construct, broken = cli.construct_certificate, []

        def construct_broken(*args):
            cert = construct(*args)
            broken.append(dataclasses.replace(cert, **change(cert)))
            return broken[-1]

        monkeypatch.setattr(cli, "construct_certificate", construct_broken)
        out = tmp_path / "v.json"
        assert main([*TestVerifySpeCommand.ARGS, "--out", str(out)]) == 3
        expected = one_shot_deviation_scan(*broken, scan_grid=200)
        assert len(expected) == count
        assert sum(dev.node == "optout" for dev in expected) == optouts
        doc = json.loads(out.read_text())
        assert doc["deviation_count"] == count
        assert len(doc["deviations"]) == min(count, cli.MAX_REPORTED_DEVIATIONS)
        assert cli.MAX_REPORTED_DEVIATIONS == 50
        for reported, dev in zip(doc["deviations"], expected):
            offer = None if dev.node == "optout" else dev.offer
            assert reported == {**dev._asdict(), "offer": offer}


def test_unwritable_output_directory_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert main([*TestVerifySpeCommand.ARGS, "--out", "v.json"]) == 2
    assert capsys.readouterr().err == "error: output directory is not writable: .\n"
    assert list(tmp_path.iterdir()) == []


def test_console_script_entrypoint_passes_exit_codes_through(tmp_path, child_env):
    """``bargainlab`` runs ``cli.entrypoint``, which exits with ``main``'s code."""
    def entrypoint(*argv):
        return subprocess.run(
            [sys.executable, "-c", "from bargainlab.cli import entrypoint; entrypoint()",
             *argv], cwd=tmp_path, env=child_env, capture_output=True, text=True,
            timeout=60,
        )

    version = entrypoint("--version")
    assert (version.returncode, version.stdout) == (0, f"bargainlab {__version__}\n")
    assert entrypoint("--no-such-flag").returncode == 2


class TestOutputPathIsDirectory:
    """An output path naming an existing directory exits 2 before any work,
    with nothing written."""

    def test_run_out_directory(self, tmp_path, capsys):
        assert main(["run", *REPLAY, "--out", str(tmp_path)]) == 2
        assert "output path is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_svg_directory_writes_no_csv(self, tmp_path, capsys):
        svg = tmp_path / "heat.svg"
        svg.mkdir()
        out, agg = tmp_path / "cells.csv", tmp_path / "agg.csv"
        rc = main(
            [*SWEEP_BASE, "--wp-values", "0.25,0.75", "--wr", "0.0625,1.0",
             "--agg", "over-responder", "--agg-out", str(agg),
             "--svg", str(svg), "--out", str(out)]
        )
        assert rc == 2
        assert f"output path is a directory: {svg}" in capsys.readouterr().err
        assert not out.exists() and not agg.exists()


class TestOutputsNameOneFile:
    """Two output options naming one file exit 2 before any work, with
    nothing written (else the file would hold only the last write)."""

    @pytest.mark.parametrize("argv", [
        [*TestVerifySpeCommand.ARGS, "--out", "same.json", "--manifest", "same.json"],
        ["spe-region", "--delta", "0.9", "--tau", "0.4", "--p", "0.5",
         "--mode", "gaps", "--out", "g.csv", "--manifest", "./g.csv"],
    ])
    def test_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert "out and manifest name the same file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


VERIFY_LOWER = [*TestVerifySpeCommand.ARGS, "--z-rule", "lower"]


def _fresh_call(argv, cwd, env):
    """Exit code of ``argv`` run by ``main`` in a new interpreter."""
    code = "import sys; from bargainlab.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, capture_output=True,
        env=env, timeout=60,
    ).returncode


class TestParserReuse:
    """``main`` builds its parser once per process; later calls reuse it and
    must behave as a first call does."""

    def test_later_calls_add_no_arguments(self, tmp_path, monkeypatch):
        main([*VERIFY_LOWER, "--out", str(tmp_path / "first.json")])
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        assert main([*VERIFY_LOWER, "--out", str(tmp_path / "a.json")]) == 0
        assert main(["run", *REPLAY, "--out", str(tmp_path / "b.json")]) == 0
        assert main(["verify-spe", "--no-such-flag"]) == 2
        assert calls == []

    def test_bad_input_then_good_call_matches_fresh_call(
        self, tmp_path, monkeypatch, child_env
    ):
        monkeypatch.chdir(tmp_path)
        outputs = ["--out", "v.json", "--manifest", "m.json"]
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert _fresh_call([*VERIFY_LOWER, *outputs], fresh, child_env) == 0
        assert main([*VERIFY_LOWER, "--no-such-flag"]) == 2
        assert main([*VERIFY_LOWER, "--w2", "0.95", "--scan-grid", "5"]) == 2
        assert main([*VERIFY_LOWER, *outputs]) == 0
        for name in ("v.json", "m.json"):
            assert (tmp_path / name).read_bytes() == (fresh / name).read_bytes()

    def test_omitted_option_takes_its_default_again(self, tmp_path):
        manifest = tmp_path / "m.json"
        out = ["--out", str(tmp_path / "v.json"), "--manifest", str(manifest)]
        assert main([*VERIFY_LOWER, *out]) == 0
        assert json.loads(manifest.read_text())["config"]["z-rule"] == "lower"
        assert main([*TestVerifySpeCommand.ARGS, *out]) == 0
        assert json.loads(manifest.read_text())["config"]["z-rule"] == "midpoint"

    def test_jobs_default_follows_environment_between_calls(
        self, tmp_path, monkeypatch
    ):
        manifest = tmp_path / "m.json"
        argv = [
            "sweep", "--rounds", "1", "--grid", "8", "--rate", "20", "--reg", "1",
            "--horizon", "300", "--wp", "0.75", "--wr", "0.5",
            "--alpha-p", "0.625", "--alpha-r", "0.875",
            "--out", str(tmp_path / "s.csv"), "--manifest", str(manifest),
        ]
        monkeypatch.setenv("BARGAINLAB_JOBS", "2")
        assert main(argv) == 0
        assert json.loads(manifest.read_text())["config"]["jobs"] == "2"
        monkeypatch.delenv("BARGAINLAB_JOBS")
        assert main(argv) == 0
        assert json.loads(manifest.read_text())["config"]["jobs"] == "1"


class TestAdversaryFileValues:
    """A value of an adversary file that is not a JSON number, or a bin
    that is not a list, exits 2 naming the horizon, and nothing is written."""

    GOOD = {"cycle": [[0.3], [0.6]]}

    @pytest.mark.parametrize("entry, stderr", [
        ({**GOOD, "bins": [0.3]},
         "error: adversary bin 1 for horizon 20 must be a list of values\n"),
        ({"cycle": [[True], [0.6]]},
         "error: adversary play 1 for horizon 20 has a value that is not a "
         "number: true\n"),
        ({"plays": [[0.3]] * 19 + [[False]]},
         "error: adversary play 20 for horizon 20 has a value that is not a "
         "number: false\n"),
        ({**GOOD, "bins": [[0.3, True, 0.6]]},
         "error: adversary bin 1 for horizon 20 has a value that is not a "
         "number: true\n"),
    ])
    def test_rejected_with_exit_2(self, tmp_path, monkeypatch, capsys, entry, stderr):
        monkeypatch.chdir(tmp_path)
        Path("adv.json").write_text(json.dumps({"default": self.GOOD, "20": entry}))
        argv = ["regret", "--horizons", "10,20", "--adversary", "adv.json",
                "--out", "r.csv", "--manifest", "m.json"]
        assert main(argv) == 2
        assert capsys.readouterr().err == stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adv.json"]


class TestRegretWithoutTables:
    def test_two_round_grid_400(self, tmp_path):
        """N = 401**2 strategies: the dense payoff tables would need 96 GiB
        for the first of them; the regret learner builds none."""
        from bargainlab import game

        adv = tmp_path / "adv.json"
        adv.write_text(json.dumps({"default": {"cycle": [[0.3, 0.6], [0.7, 0.2]]}}))
        out = tmp_path / "r.csv"
        before = game.payoff_matrices.cache_info()
        assert main(["regret", "--rounds", "2", "--grid", "400", "--horizons", "10",
                     "--adversary", str(adv), "--out", str(out)]) == 0
        assert game.payoff_matrices.cache_info() == before
        rows = read_csv(out)
        assert rows[0] == ["T", "regret_grid", "regret_continuous",
                           "regret_per_sqrt_T"]
        assert rows[1][0] == "10"
        assert all(math.isfinite(float(v)) for v in rows[1][1:])


class TestSweepAggregationRounds:
    def test_three_rounds_exit_2_and_write_nothing(self, tmp_path, monkeypatch, capsys):
        """The aggregate table and heatmap key a cell by its first two
        rounds, so a three-round cell cannot be told apart from another."""
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--rounds", "3", "--grid", "2", "--rate", "10",
                "--reg", "1", "--horizon", "20", "--wp-values", "0,1",
                "--wr", "0.5,0.5,0.5", "--alpha-p", "0.5,0.5,0.5",
                "--alpha-r", "0.5,0.5,0.5", "--agg", "over-responder",
                "--out", "cells.csv", "--agg-out", "agg.csv", "--svg", "heat.svg",
                "--manifest", "m.json"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: aggregation 'over-responder' needs at most two rounds, got 3\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestReg2RateTooLarge:
    """At a reg=2 rate so large that float64 rounding leaves the projected
    weights off the simplex, each learning command exits 2 naming the rate,
    and nothing is written."""

    GAME = ["--rounds", "1", "--grid", "4", "--horizon", "50", "--wr", "0.5",
            "--alpha-p", "0.5", "--alpha-r", "0.5"]

    @pytest.mark.parametrize("argv", [
        ["run", *GAME, "--wp", "0.5", "--out", "out.json"],
        ["sweep", *GAME, "--wp-values", "0.25,0.5,0.75", "--jobs", "2",
         "--out", "out.csv"],
        ["regret", "--horizons", "10,20", "--adversary", "adv.json",
         "--out", "out.csv"],
    ], ids=["run", "sweep", "regret"])
    def test_exit_2_and_write_nothing(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        Path("adv.json").write_text(json.dumps({"default": {"cycle": [[0.3], [0.6]]}}))
        assert main([*argv, "--reg", "2", "--rate", "1e16", "--manifest", "m.json"]) == 2
        assert capsys.readouterr().err == (
            "error: rate 1e+16 is too large for reg=2: "
            "mixed strategy weights must sum to 1\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adv.json"]


RUN_BASE = ["run", *REPLAY, "--out", "out.json"]
SWEEP_CELLS = [*SWEEP_BASE, "--wp", "0.5,0.5", "--wr", "0.0625,1.0", "--out", "out.csv"]
REGRET_BASE = ["regret", "--horizons", "10", "--adversary", "adv.json", "--out", "out.csv"]


def _bad_adversary(name, doc, stderr):
    files = {"adv.json": json.dumps(doc)}
    return pytest.param(REGRET_BASE, files, stderr, id=f"adversary-{name}")


class TestInputErrors:
    """Each rejected input exits 2 with its message and writes neither the
    output nor the manifest.  The unwritable-directory check has no case:
    ``os.access`` reports every directory writable to the root user, so it
    can only be exercised by an ordinary user."""

    @pytest.mark.parametrize("argv,files,stderr", [
        pytest.param(
            [*RUN_BASE, "--config", "missing.cfg"], {},
            "error: cannot read config file: [Errno 2] No such file or "
            "directory: 'missing.cfg'\n", id="config-unreadable"),
        pytest.param(
            [*RUN_BASE, "--config", "c.json"], {"c.json": "{grid: 8}"},
            "error: config file is not valid JSON: Expecting property name "
            "enclosed in double quotes: line 1 column 2 (char 1)\n",
            id="config-bad-json"),
        pytest.param(
            [*RUN_BASE, "--config", "c.json"], {"c.json": '{"grid": 8}'},
            "error: JSON config file is not a run manifest\n",
            id="config-not-manifest"),
        pytest.param(
            [*RUN_BASE, "--config", "c.cfg"],
            {"c.cfg": "# run settings\ngrid=8\nrate 20\n"},
            "error: config line 3: expected key=value\n", id="config-line"),
        pytest.param(
            ["run", "--rounds", "1", "--out", "out.json"], {},
            "error: missing required setting: grid\n", id="missing-setting"),
        pytest.param(
            [*RUN_BASE, "--delta=-0.5"], {},
            "error: delta: must be >= 0.0, got '-0.5'\n", id="float-low"),
        pytest.param(
            [*RUN_BASE, "--delta", "1.5"], {},
            "error: delta: must be <= 1.0, got '1.5'\n", id="float-high"),
        pytest.param(
            ["regret", "--horizons", ",", "--adversary", "adv.json", "--out", "out.csv"],
            {}, "error: horizons: at least one value required\n", id="no-values"),
        pytest.param(
            [*SWEEP_CELLS, "--agg-out", "agg.csv"], {},
            "error: agg-out requires an aggregation mode (--agg)\n",
            id="agg-out-without-agg"),
        pytest.param(
            [*SWEEP_CELLS, "--agg", "over-responder"], {},
            "error: aggregation 'over-responder' requires --agg-out\n",
            id="agg-without-agg-out"),
        pytest.param(
            [*SWEEP_CELLS, "--svg", "heat.svg"], {},
            "error: svg output requires an aggregation mode (--agg)\n",
            id="svg-without-agg"),
        pytest.param(
            REGRET_BASE, {},
            "error: cannot read adversary file: [Errno 2] No such file or "
            "directory: 'adv.json'\n", id="adversary-unreadable"),
        pytest.param(
            REGRET_BASE, {"adv.json": "cycle"},
            "error: adversary file is not valid JSON: Expecting value: line 1 "
            "column 1 (char 0)\n", id="adversary-bad-json"),
        _bad_adversary(
            "not-object", [[0.3]],
            "error: adversary file must be a JSON object\n"),
        _bad_adversary(
            "entry-not-object", {"default": [[0.3]]},
            "error: adversary entry for 10 must be an object\n"),
        _bad_adversary(
            "empty-cycle", {"default": {"cycle": []}},
            "error: adversary cycle for 10 must be a nonempty list\n"),
        _bad_adversary(
            "plays-length", {"default": {"plays": [[0.3]] * 9}},
            "error: adversary plays for 10 must list exactly 10 rounds\n"),
        _bad_adversary(
            "no-cycle-or-plays", {"default": {"bins": [[0.3]]}},
            "error: adversary entry for 10 needs a cycle or plays field\n"),
        _bad_adversary(
            "play-length", {"default": {"cycle": [[0.3], [0.3, 0.6]]}},
            "error: adversary play 2 for horizon 10 must list 1 values\n"),
        _bad_adversary(
            "value-outside", {"default": {"cycle": [[1.5]]}},
            "error: adversary play 1 for horizon 10 has a value outside [0, 1]\n"),
        _bad_adversary(
            "bins-not-list", {"default": {"cycle": [[0.3]], "bins": 0.3}},
            "error: adversary bins for 10 must be a list\n"),
    ])
    def test_exits_2_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, argv, files, stderr
    ):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            Path(name).write_text(text)
        assert main([*argv, "--manifest", "m.json"]) == 2
        assert capsys.readouterr().err == stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def test_cycle_entries_are_checked_once(tmp_path, monkeypatch, capsys):
    """A cycle is checked entry by entry once, not once per round: a second
    entry ``true`` at horizon 1600 exits 2 with round 2's message and writes
    nothing, and a good two-entry cycle checks two plays, not 1600."""
    monkeypatch.chdir(tmp_path)
    Path("adv.json").write_text(json.dumps({"default": {"cycle": [[0.3], True]}}))
    assert main(["regret", "--horizons", "1600", "--adversary", "adv.json",
                 "--out", "out.csv", "--manifest", "m.json"]) == 2
    assert capsys.readouterr().err == (
        "error: adversary play 2 for horizon 1600 must list 1 values\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["adv.json"]

    checked = []
    monkeypatch.setattr(cli, "_check_numbers", lambda values, what: checked.append(what))
    plays, _ = cli._adversary_plays({"default": {"cycle": [[0.3], [0.6]]}}, 1600, 1)
    assert checked == [f"adversary play {t} for horizon 1600" for t in (1, 2)]
    assert plays == [(0.3,), (0.6,)] * 800


class TestRoundsThreeDiscount:
    def test_run_prices_agreement_as_play(self, capsys):
        """A round-3 agreement at delta 0.8 pays the Python scalar
        ``0.8 ** 2``, as ``play`` does, not numpy's ``0.64``."""
        argv = ["run", "--rounds", "3", "--grid", "4", "--delta", "0.8",
                "--rate", "9", "--reg", "1", "--horizon", "30",
                "--wp", "0,1,1", "--wr", "1,0,1",
                "--alpha-p", "0,1,1", "--alpha-r", "1,0,1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert '"payoff_R": 0.6400000000000001' in out
        assert json.loads(out)["result"]["payoff_R"] == 0.8 ** 2


INFEASIBLE_TARGET = [*TestVerifySpeCommand.ARGS[:-1], "0.95"]


class TestVerifySpeDecidesFeasibilityOnce:
    def test_infeasible_target_exact_stderr(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*INFEASIBLE_TARGET, "--out", "v.json", "--manifest", "m.json"]) == 2
        assert capsys.readouterr().err == "error: target infeasible: w2-upper, w1-lower\n"
        assert list(tmp_path.iterdir()) == []

    def test_one_support_conditions_pass_per_run(self, tmp_path, monkeypatch):
        from bargainlab import spe

        calls = []
        conditions = spe._support_conditions

        def counting(*args):
            calls.append(args)
            return conditions(*args)

        monkeypatch.setattr(spe, "_support_conditions", counting)
        assert main([*TestVerifySpeCommand.ARGS, "--out", str(tmp_path / "v.json")]) == 0
        assert len(calls) == 1


class TestEmptyOutputPath:
    """An empty output path exits 2 naming its option, with nothing written."""

    GAPS = ["spe-region", "--delta", "0.9", "--tau", "0.4", "--p", "0.5",
            "--mode", "gaps", "--out", "gaps.csv"]
    AGG = [*SWEEP_CELLS, "--agg", "over-responder"]

    @pytest.mark.parametrize("argv,key", [
        (["run", *REPLAY, "--out", ""], "out"),
        ([*GAPS, "--manifest", ""], "manifest"),
        ([*AGG, "--agg-out", ""], "agg-out"),
        ([*AGG, "--agg-out", "agg.csv", "--svg", ""], "svg"),
    ], ids=["out", "manifest", "agg-out", "svg"])
    def test_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, argv, key):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {key}: output path is empty\n"
        assert list(tmp_path.iterdir()) == []


class TestJobsCappedAtCpuCount:
    def test_pool_size_is_capped_and_bytes_match_serial(self, tmp_path, monkeypatch):
        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        argv = [*SWEEP_BASE, "--wp-values", "0.25,0.75", "--wr-values", "0.25,0.75"]
        pooled, serial, manifest = (tmp_path / n for n in ("p.csv", "s.csv", "m.json"))
        code = main([*argv, "--jobs", "64", "--out", str(pooled), "--manifest", str(manifest)])
        assert pools == [2]
        assert len(read_csv(pooled)) == 1 + 16
        assert json.loads(manifest.read_text())["config"]["jobs"] == "64"
        assert main([*argv, "--jobs", "1", "--out", str(serial)]) == code
        assert pools == [2]
        assert pooled.read_bytes() == serial.read_bytes()


class TestJobsOddCellCount:
    """Nine cells split unevenly over two workers (5 + 4) and the pooled CSV
    is the serial CSV byte for byte, on both the batch engine (reg=1) and
    the stepwise learners (reg=2)."""

    @pytest.mark.parametrize("reg, rate", [("1", "40"), ("2", "5")])
    def test_two_workers_write_the_serial_bytes(self, tmp_path, monkeypatch, reg, rate):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = [*SWEEP_BASE, "--reg", reg, "--rate", rate, "--wp", "0.5,0.5",
                "--wr-values", "0.25,0.5,0.75"]
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"cells-{jobs}.csv"
            code = main([*argv, "--jobs", jobs, "--out", str(out)])
            outs.append((code, out.read_bytes()))
        assert len(read_csv(tmp_path / "cells-1.csv")) == 1 + 9
        assert outs[0] == outs[1]
