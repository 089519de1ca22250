"""Tests for self-play dynamics, settlement prediction, and external regret.

Expected trajectories, settlement times, and regret numbers are hand-derived
from the update rule and frozen here; the exhaustive prediction check then
covers every interior one-round initial condition on the D=8 grid.
"""

import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bargainlab import dynamics
from bargainlab.dynamics import (
    AdversarySchedule,
    BatchResult,
    G1Classification,
    RegretResult,
    TrajectoryRecord,
    batch_self_play,
    classify_g1,
    detect_convergence,
    external_regret,
    make_adversary,
    self_play,
    theorem5_preconditions,
    _joint_payoffs,
    _self_play_stepwise,
)
from bargainlab.ftrl import LearnerConfig, MixedStrategy, make_learner, step
from bargainlab.game import (
    GameConfig,
    Strategy,
    play,
    strategy_from_index,
    strategy_index,
    value_play_utilities,
)

G1 = GameConfig(rounds=1, grid=8, delta=0.9)
G2 = GameConfig(rounds=2, grid=16, delta=0.9)


def lcfg(game, owner, entries_initial, entries_anchor, rate=20.0, reg=1, horizon=12):
    return LearnerConfig(
        owner=owner,
        reg=reg,
        rate=rate,
        anchor=Strategy(tuple(entries_anchor), game.grid),
        initial=Strategy(tuple(entries_initial), game.grid),
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# self_play: frozen trajectories
# ---------------------------------------------------------------------------


class TestSelfPlayReplay:
    def test_one_round_replay_profiles(self):
        # D=8, M=20: offers/thresholds 0.75 vs 0.5, anchors 0.625 / 0.875.
        # Dwell phase: (6,4), (4,6), (6,4), then settled at (4,4).
        rec = self_play(
            G1,
            lcfg(G1, "P", (6,), (5,)),
            lcfg(G1, "R", (4,), (7,)),
        )
        entries = [(p.entries[0], r.entries[0]) for p, r in rec.profiles[:6]]
        assert entries == [(6, 4), (4, 6), (6, 4), (4, 4), (4, 4), (4, 4)]
        assert rec.converged_at == 4
        assert rec.ne_value == 0.5
        assert rec.ne_round == 1
        assert rec.ne_profile == (Strategy((4,), 8), Strategy((4,), 8))
        assert rec.payoff_P == 0.5 and rec.payoff_R == 0.5
        assert rec.horizon == 12

    def test_equal_initials_settle_immediately(self):
        rec = self_play(
            G1,
            lcfg(G1, "P", (4,), (3,)),
            lcfg(G1, "R", (4,), (6,)),
        )
        assert rec.converged_at == 1
        assert rec.ne_value == 0.5

    def test_owner_and_horizon_validation(self):
        with pytest.raises(ValueError):
            self_play(G1, lcfg(G1, "R", (4,), (3,)), lcfg(G1, "R", (4,), (6,)))
        with pytest.raises(ValueError):
            self_play(
                G1,
                lcfg(G1, "P", (4,), (3,), horizon=10),
                lcfg(G1, "R", (4,), (6,), horizon=11),
            )

    def test_determinism_bitwise(self):
        a = self_play(G1, lcfg(G1, "P", (6,), (5,)), lcfg(G1, "R", (4,), (7,)))
        b = self_play(G1, lcfg(G1, "P", (6,), (5,)), lcfg(G1, "R", (4,), (7,)))
        assert a.profiles == b.profiles
        assert a.converged_at == b.converged_at
        c = self_play(
            G1,
            lcfg(G1, "P", (6,), (5,), reg=2, rate=5.0),
            lcfg(G1, "R", (4,), (7,), reg=2, rate=5.0),
        )
        d = self_play(
            G1,
            lcfg(G1, "P", (6,), (5,), reg=2, rate=5.0),
            lcfg(G1, "R", (4,), (7,), reg=2, rate=5.0),
        )
        for (p1, r1), (p2, r2) in zip(c.profiles, d.profiles):
            if isinstance(p1, MixedStrategy):
                assert np.array_equal(p1.weights, p2.weights)
                assert np.array_equal(r1.weights, r2.weights)
            else:
                assert (p1, r1) == (p2, r2)

    def test_l2_self_play_runs_and_records_mixtures(self):
        rec = self_play(
            G1,
            lcfg(G1, "P", (6,), (5,), reg=2, rate=5.0, horizon=15),
            lcfg(G1, "R", (4,), (7,), reg=2, rate=5.0, horizon=15),
        )
        assert rec.horizon == 15
        # first play is the pure initial; later plays are simplex points
        assert rec.profiles[0] == (Strategy((6,), 8), Strategy((4,), 8))
        for p, r in rec.profiles[1:]:
            for side in (p, r):
                w = side.weights if isinstance(side, MixedStrategy) else None
                if w is not None:
                    assert abs(w.sum() - 1.0) < 1e-9 and w.min() > -1e-12

    def test_unequal_rate_pair_plays_pure_strategies(self):
        rec = self_play(
            G1,
            lcfg(G1, "P", (6,), (5,), rate=20.0),
            lcfg(G1, "R", (4,), (7,), rate=24.0),
        )
        assert isinstance(rec.profiles[0][0], Strategy)
        assert rec.horizon == 12


class TestExampleRuns:
    """Two-round reference runs: D=16, M=40, delta=0.9.

    Run A (accommodating responder (1/16, 1)) settles at t=3 on value 1/16.
    Run B (aggressive responder (15/16, 1/16)) settles on value 15/16, but
    its middle phase builds a cumulative-utility lead for the first mover's
    caving route that erodes by only 1/160 per step, so settlement lands at
    t=427 — far past a 300-step horizon.  Both facts are asserted: the t=300
    run must report non-convergence, the t=500 run the true settlement.
    """

    def test_run_a_settles_fast_on_low_value(self):
        rec = self_play(
            G2,
            lcfg(G2, "P", (8, 8), (2, 6), rate=40.0, horizon=300),
            lcfg(G2, "R", (1, 16), (9, 14), rate=40.0, horizon=300),
        )
        assert rec.converged_at == 3
        assert rec.ne_value == pytest.approx(1 / 16, abs=0)
        assert rec.ne_round == 1

    def test_run_b_not_settled_within_300(self):
        rec = self_play(
            G2,
            lcfg(G2, "P", (8, 8), (2, 6), rate=40.0, horizon=300),
            lcfg(G2, "R", (15, 1), (9, 14), rate=40.0, horizon=300),
        )
        assert rec.converged_at is None
        assert rec.ne_value is None

    def test_run_b_settles_at_427_on_high_value(self):
        rec = self_play(
            G2,
            lcfg(G2, "P", (8, 8), (2, 6), rate=40.0, horizon=500),
            lcfg(G2, "R", (15, 1), (9, 14), rate=40.0, horizon=500),
        )
        assert rec.converged_at == 427
        assert rec.ne_value == pytest.approx(15 / 16, abs=0)
        assert rec.ne_round == 1
        assert rec.ne_profile == (Strategy((15, 16), 16), Strategy((15, 1), 16))


# ---------------------------------------------------------------------------
# detect_convergence
# ---------------------------------------------------------------------------


class TestDetectConvergence:
    GAME = GameConfig(rounds=1, grid=4, delta=0.9)

    @staticmethod
    def _plays(*entry_pairs):
        return [
            (Strategy((a,), 4), Strategy((b,), 4)) for a, b in entry_pairs
        ]

    def test_constant_ne_suffix(self):
        plays = self._plays((3, 1), (3, 1), *[(2, 2)] * 8)
        assert detect_convergence(self.GAME, plays) == (
            3,
            (Strategy((2,), 4), Strategy((2,), 4)),
            0.5,
        )

    def test_constant_from_start(self):
        plays = self._plays(*[(2, 2)] * 5)
        t, profile, value = detect_convergence(self.GAME, plays)
        assert t == 1 and value == 0.5

    def test_constant_but_not_ne(self):
        # offer 3 vs threshold 1: the first mover is overpaying
        plays = self._plays(*[(3, 1)] * 5)
        assert detect_convergence(self.GAME, plays) is None

    def test_ne_only_at_final_step_does_not_count(self):
        plays = self._plays((3, 1), (3, 1), (3, 1), (3, 1), (2, 2))
        assert detect_convergence(self.GAME, plays) is None

    def test_single_step_horizon_counts(self):
        plays = self._plays((2, 2))
        t, _, value = detect_convergence(self.GAME, plays)
        assert t == 1 and value == 0.5

    def test_empty_trajectory(self):
        assert detect_convergence(self.GAME, []) is None

    def test_point_mass_mixture_counts_as_pure(self):
        w = np.zeros(5)
        ne = strategy_index(self.GAME, Strategy((2,), 4))
        w[ne] = 1.0
        w_soft = w.copy()
        w_soft[ne] = 1.0 - 1e-12
        w_soft[0] = 1e-12
        mixed = MixedStrategy(self.GAME, w_soft)
        plays = [(mixed, MixedStrategy(self.GAME, w))] * 3
        t, profile, value = detect_convergence(self.GAME, plays)
        assert t == 1 and profile[0] == Strategy((2,), 4) and value == 0.5

    def test_genuine_mixture_is_not_converged(self):
        w = np.full(5, 0.2)
        plays = [(MixedStrategy(self.GAME, w), MixedStrategy(self.GAME, w))] * 3
        assert detect_convergence(self.GAME, plays) is None

    def test_accepts_trajectory_record(self):
        rec = self_play(G1, lcfg(G1, "P", (6,), (5,)), lcfg(G1, "R", (4,), (7,)))
        det = detect_convergence(G1, rec)
        assert det is not None
        assert det[0] == rec.converged_at
        assert det[1] == rec.ne_profile
        assert det[2] == rec.ne_value

    def test_no_agreement_equilibrium_has_none_value(self):
        # offer 0 vs threshold 4 in a one-round game: no deal, and neither
        # side can profit: the responder would accept only overgenerous
        # offers it cannot induce, and any accepted offer the proposer could
        # make pays the proposer at most 1 - threshold = 0.
        g = GameConfig(rounds=1, grid=4, delta=0.9)
        plays = [(Strategy((0,), 4), Strategy((4,), 4))] * 4
        det = detect_convergence(g, plays)
        assert det is not None and det[2] is None


# ---------------------------------------------------------------------------
# classify_g1
# ---------------------------------------------------------------------------


class TestClassifyG1:
    def test_replay_instance_is_c2_t4(self):
        c = classify_g1(G1, 0.75, 0.5, 0.625, 0.875, 20.0)
        assert (c.case, c.predicted_t_prime) == ("C2", 4)
        assert c.predicted_value == Fraction(1, 2)
        assert c.t_prime_bound == 3

    def test_equal_initials(self):
        c = classify_g1(G1, 0.5, 0.5, 0.375, 0.75, 20.0)
        assert (c.case, c.predicted_t_prime, c.predicted_value) == (
            "C1",
            1,
            Fraction(1, 2),
        )

    def test_anchor_matching_shares_collapse_in_two_steps(self):
        c = classify_g1(G1, 0.75, 0.5, 0.375, 0.5, 20.0)
        assert (c.case, c.predicted_t_prime) == ("C1", 2)

    def test_wide_spread_settles_at_three(self):
        # 1 - p_min = 7/8 > 2 * (1 - p_max) = 1/4: no dwell phase
        c = classify_g1(G1, 0.875, 0.125, 0.5, 0.875, 20.0)
        assert (c.case, c.predicted_t_prime, c.predicted_value) == (
            "C1",
            3,
            Fraction(1, 8),
        )

    def test_low_anchor_on_boundary_settles_at_three(self):
        # alpha_p = p_min and 1 - p_min = 2 (1 - p_max) exactly
        c = classify_g1(G1, 0.25, 0.625, 0.25, 0.875, 20.0)
        assert (c.case, c.predicted_t_prime) == ("C1", 3)

    def test_low_anchor_off_boundary_is_c2(self):
        c = classify_g1(G1, 0.25, 0.625, 0.375, 0.875, 20.0)
        assert (c.case, c.predicted_t_prime) == ("C2", 4)

    def test_low_anchor_with_integer_base_settles_at_base(self):
        # t_base = 4 exactly; the anchored low offer wins the tie at t=4
        c = classify_g1(G1, 0.5, 0.25, 0.25, 0.875, 20.0)
        assert (c.case, c.predicted_t_prime) == ("C2", 4)
        assert c.t_prime_bound == Fraction(18, 5)

    def test_predicted_value_is_min_of_three(self):
        c = classify_g1(G1, 0.25, 0.75, 0.625, 0.5, 20.0)
        assert c.predicted_value == Fraction(1, 4)
        assert c.p_min <= c.p_max

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_g1(G2, 0.25, 0.75, 0.625, 0.5, 40.0)  # two-round game
        with pytest.raises(ValueError):
            classify_g1(G1, 0.0, 0.75, 0.625, 0.5, 20.0)  # boundary value
        with pytest.raises(ValueError):
            classify_g1(G1, 1.0, 0.75, 0.625, 0.5, 20.0)
        with pytest.raises(ValueError):
            classify_g1(G1, 0.3, 0.75, 0.625, 0.5, 20.0)  # off-grid
        with pytest.raises(ValueError):
            classify_g1(G1, 0.25, 0.75, 0.625, 0.5, 16.0)  # rate <= 2D

    def test_exhaustive_prediction_matches_dynamics(self):
        """Every interior 4-tuple on the D=8 grid settles exactly as predicted."""
        tuples = [
            (wp, wr, ap, ar)
            for wp in range(1, 8)
            for wr in range(1, 8)
            for ap in range(1, 8)
            for ar in range(1, 8)
        ]
        to_idx = lambda e: strategy_index(G1, Strategy((e,), 8))
        batch = batch_self_play(
            G1,
            20.0,
            40,
            np.array([to_idx(t[0]) for t in tuples]),
            np.array([to_idx(t[1]) for t in tuples]),
            np.array([to_idx(t[2]) for t in tuples]),
            np.array([to_idx(t[3]) for t in tuples]),
        )
        for b, (wp, wr, ap, ar) in enumerate(tuples):
            c = classify_g1(
                G1,
                Fraction(wp, 8),
                Fraction(wr, 8),
                Fraction(ap, 8),
                Fraction(ar, 8),
                20.0,
            )
            assert batch.converged_at[b] == c.predicted_t_prime, (wp, wr, ap, ar)
            assert batch.ne_value[b] == float(c.predicted_value), (wp, wr, ap, ar)
            assert batch.ne_value[b] == float(
                min(Fraction(wr, 8), Fraction(wp, 8), Fraction(ar, 8))
            )


# ---------------------------------------------------------------------------
# batch engine vs stepwise learners
# ---------------------------------------------------------------------------


class TestBatchEngine:
    def test_matches_stepwise_on_random_two_round_games(self):
        g = GameConfig(rounds=2, grid=6, delta=0.8)
        n = g.strategy_count
        rng = np.random.default_rng(7)
        for _ in range(20):
            idx = rng.integers(0, n, size=4)
            stepwise = _self_play_stepwise(
                g,
                LearnerConfig(
                    owner="P",
                    reg=1,
                    rate=30.0,
                    anchor=strategy_from_index(g, int(idx[2])),
                    initial=strategy_from_index(g, int(idx[0])),
                    horizon=25,
                ),
                LearnerConfig(
                    owner="R",
                    reg=1,
                    rate=30.0,
                    anchor=strategy_from_index(g, int(idx[3])),
                    initial=strategy_from_index(g, int(idx[1])),
                    horizon=25,
                ),
            )
            batch = batch_self_play(
                g, 30.0, 25, idx[0:1], idx[1:2], idx[2:3], idx[3:4]
            )
            got = [tuple(int(x) for x in batch.profiles[0, t]) for t in range(25)]
            want = [
                (strategy_index(g, p), strategy_index(g, r)) for p, r in stepwise
            ]
            assert got == want
            det = detect_convergence(g, stepwise)
            if det is None:
                assert batch.converged_at[0] == -1
            else:
                assert batch.converged_at[0] == det[0]

    @settings(max_examples=80)
    @given(data=st.data())
    def test_property_matches_stepwise_learners(self, data):
        """Event engine == reg=1 ftrl learners on random small games.

        delta is a multiple of 1/100 and the rate an integer, so every
        nonzero objective gap is far above the tie tolerance and the oracle's
        tie decisions never hinge on rounding.  Rates at or below 2*D make
        the anchor handicap equal whole grid utility gaps (tie-heavy play).
        The block size is patched down so batches span several blocks.
        """
        rounds = data.draw(st.integers(1, 3), label="rounds")
        grid = data.draw(st.integers(2, 6), label="grid")
        delta = data.draw(st.integers(1, 100), label="delta_pct") / 100
        game = GameConfig(rounds=rounds, grid=grid, delta=delta)
        n = game.strategy_count
        rate = float(data.draw(
            st.one_of(
                st.integers(2 * grid + 1, 1000),
                st.integers(1, 2 * grid),
                st.just(grid),
            ),
            label="rate",
        ))
        horizon = data.draw(st.integers(1, 80), label="horizon")
        cells = data.draw(st.integers(2, 40), label="cells")
        index = st.lists(st.integers(0, n - 1), min_size=cells, max_size=cells)
        iP, iR, aP, aR = (
            np.array(data.draw(index, label=name))
            for name in ("initial_P", "initial_R", "anchor_P", "anchor_R")
        )
        block = data.draw(st.integers(1, cells), label="block")

        with mock.patch.object(dynamics, "_BLOCK_BYTES", 8 * n * block):
            res = batch_self_play(game, rate, horizon, iP, iR, aP, aR)

        def learner(owner, initial, anchor):
            return LearnerConfig(
                owner=owner, reg=1, rate=rate, horizon=horizon,
                initial=strategy_from_index(game, int(initial)),
                anchor=strategy_from_index(game, int(anchor)),
            )

        for b in range(cells):
            plays = _self_play_stepwise(
                game, learner("P", iP[b], aP[b]), learner("R", iR[b], aR[b])
            )
            want = [(strategy_index(game, p), strategy_index(game, r)) for p, r in plays]
            assert res.profiles[b].tolist() == [list(pr) for pr in want], b
            det = detect_convergence(game, plays)
            if det is None:
                assert res.converged_at[b] == -1
                assert np.isnan(res.ne_value[b]) and res.ne_round[b] == 0
            else:
                t_conv, profile, value = det
                out = play(game, *profile)
                assert res.converged_at[b] == t_conv
                assert res.ne_round[b] == (out.agreement_round or 0)
                if value is None:
                    assert np.isnan(res.ne_value[b])
                else:
                    assert res.ne_value[b] == value
            assert (res.payoff_P[b], res.payoff_R[b]) == _joint_payoffs(game, *plays[-1])

    def test_long_dwell_settles_at_predicted_time(self):
        """One-round C2 dwells of 501 to 1001 steps, at horizons in the thousands.

        p_max - p_min = 1/1000, so the first mover's switch step lands near
        (1 - p_min) * 1000.  With alpha_p at neither share the exact
        switching threshold is an integer (901, 1000 and 501), a tie that
        lands on a step.
        """
        D = 1000
        game = GameConfig(rounds=1, grid=D, delta=0.9)
        cases = [
            (wp, wr, ap, ar)
            for wp, wr, ar in ((100, 101, 500), (2, 1, 999), (500, 501, 900))
            for ap in (min(wp, wr), max(wp, wr), 300)
        ]
        for rate in (2001.0, 2500.0, 100000.0):
            predicted = [
                classify_g1(game, *(Fraction(e, D) for e in case), rate)
                for case in cases
            ]
            assert {c.case for c in predicted} == {"C2"}
            assert max(c.predicted_t_prime for c in predicted) > 1000
            for horizon in (2000, 5000):
                res = batch_self_play(
                    game, rate, horizon, *(np.array(col) for col in zip(*cases))
                )
                for b, c in enumerate(predicted):
                    assert res.converged_at[b] == c.predicted_t_prime, cases[b]
                    assert res.ne_value[b] == float(c.predicted_value), cases[b]

    def test_final_payoffs_reported_even_without_convergence(self):
        res = batch_self_play(
            G2,
            40.0,
            300,
            np.array([strategy_index(G2, Strategy((8, 8), 16))]),
            np.array([strategy_index(G2, Strategy((15, 1), 16))]),
            np.array([strategy_index(G2, Strategy((2, 6), 16))]),
            np.array([strategy_index(G2, Strategy((9, 14), 16))]),
        )
        assert not res.converged[0]
        assert np.isnan(res.ne_value[0]) and res.ne_round[0] == 0
        p, r = res.profiles[0, -1]
        out = play(G2, strategy_from_index(G2, int(p)), strategy_from_index(G2, int(r)))
        assert res.payoff_P[0] == out.payoff_P
        assert res.payoff_R[0] == out.payoff_R

    def test_validation(self):
        one = np.array([0])
        with pytest.raises(ValueError):
            batch_self_play(G1, 20.0, 10, one, one, one, np.array([0, 1]))
        with pytest.raises(ValueError):
            batch_self_play(G1, 20.0, 10, np.array([99]), one, one, one)
        with pytest.raises(ValueError):
            batch_self_play(G1, 20.0, 0, one, one, one, one)
        with pytest.raises(ValueError):
            batch_self_play(G1, -1.0, 10, one, one, one, one)


# ---------------------------------------------------------------------------
# theorem5_preconditions
# ---------------------------------------------------------------------------


class TestTheorem5Preconditions:
    def test_balanced_pair_with_high_anchors(self):
        assert theorem5_preconditions(
            G2,
            Strategy((8, 8), 16),
            Strategy((8, 8), 16),
            Strategy((12, 8), 16),
            Strategy((12, 8), 16),
        )

    def test_reference_run_a_qualifies_run_b_does_not(self):
        args = (
            Strategy((8, 8), 16),
            Strategy((1, 16), 16),
            Strategy((2, 6), 16),
            Strategy((9, 14), 16),
        )
        assert theorem5_preconditions(G2, *args)
        aggressive = (
            Strategy((8, 8), 16),
            Strategy((15, 1), 16),
            Strategy((2, 6), 16),
            Strategy((9, 14), 16),
        )
        assert not theorem5_preconditions(G2, *aggressive)

    def test_first_mover_too_patient_fails(self):
        g = GameConfig(rounds=2, grid=20, delta=0.9)
        assert not theorem5_preconditions(
            g,
            Strategy((6, 10), 20),  # 0.3 > 0.9 * 0.5 fails
            Strategy((2, 10), 20),
            Strategy((15, 10), 20),
            Strategy((15, 10), 20),
        )

    def test_anchor_equal_to_opposing_initial_fails(self):
        assert not theorem5_preconditions(
            G2,
            Strategy((8, 8), 16),
            Strategy((8, 8), 16),
            Strategy((8, 8), 16),  # a_p1 == w_r1: strict inequality required
            Strategy((12, 8), 16),
        )

    def test_coarse_grid_fails(self):
        g = GameConfig(rounds=2, grid=8, delta=0.9)  # 1/8 >= 1 - 0.9
        assert not theorem5_preconditions(
            g,
            Strategy((4, 4), 8),
            Strategy((4, 4), 8),
            Strategy((6, 4), 8),
            Strategy((6, 4), 8),
        )

    def test_wrong_round_count_raises(self):
        with pytest.raises(ValueError):
            theorem5_preconditions(
                G1,
                Strategy((4,), 8),
                Strategy((4,), 8),
                Strategy((6,), 8),
                Strategy((6,), 8),
            )

    def test_strategies_off_the_game_raise(self):
        good = Strategy((8, 8), 16)
        for bad in (Strategy((4, 4), 8), Strategy((8, 8, 8), 16)):
            with pytest.raises(ValueError, match="two-round strategies on the game grid"):
                theorem5_preconditions(G2, good, good, good, bad)

    def test_qualifying_samples_converge(self):
        """Sampled precondition-passing pairs settle within 300 steps."""
        rng = np.random.default_rng(5)
        found = []
        while len(found) < 40:
            row = rng.integers(1, 16, size=8)
            wp = Strategy((int(row[0]), int(row[1])), 16)
            wr = Strategy((int(row[2]), int(row[3])), 16)
            ap = Strategy((int(row[4]), int(row[5])), 16)
            ar = Strategy((int(row[6]), int(row[7])), 16)
            if theorem5_preconditions(G2, wp, wr, ap, ar):
                found.append((wp, wr, ap, ar))
        res = batch_self_play(
            G2,
            40.0,
            300,
            np.array([strategy_index(G2, f[0]) for f in found]),
            np.array([strategy_index(G2, f[1]) for f in found]),
            np.array([strategy_index(G2, f[2]) for f in found]),
            np.array([strategy_index(G2, f[3]) for f in found]),
        )
        assert res.converged.all()


# ---------------------------------------------------------------------------
# adversaries and external regret
# ---------------------------------------------------------------------------


class TestMakeAdversary:
    G10 = GameConfig(rounds=1, grid=10, delta=0.9)

    def test_valid_spaced_bins(self):
        adv = make_adversary(self.G10, [(0.0,), (0.3,)], bins=[(0.0, 0.15, 0.3)])
        assert adv.bins == ((0.0, 0.15, 0.3),)
        assert adv.plays == ((0.0,), (0.3,))
        assert adv.spacing == 0.1

    def test_spacing_violation(self):
        with pytest.raises(ValueError):
            make_adversary(self.G10, [(0.1,)], bins=[(0.1, 0.15)])

    def test_per_round_distinct_bins(self):
        g = GameConfig(rounds=2, grid=10, delta=0.5)
        adv = make_adversary(
            g,
            [(0.2, 0.15), (0.4, 0.35)],
            bins=[(0.0, 0.2, 0.4), (0.15, 0.35)],
        )
        assert adv.bins[1] == (0.15, 0.35)

    def test_bins_inferred_from_plays(self):
        adv = make_adversary(self.G10, [(0.3,), (0.6,), (0.3,)])
        assert adv.bins == ((0.3, 0.6),)

    def test_one_bin_list_per_round(self):
        with pytest.raises(ValueError, match=r"need one bin list per round \(1\)"):
            make_adversary(self.G10, [(0.1,)], bins=[(0.1,), (0.2,)])

    def test_play_outside_declared_bins(self):
        with pytest.raises(ValueError):
            make_adversary(self.G10, [(0.25,)], bins=[(0.0, 0.2)])

    def test_value_outside_unit_interval(self):
        with pytest.raises(ValueError):
            make_adversary(self.G10, [(1.2,)])
        with pytest.raises(ValueError):
            make_adversary(self.G10, [(0.5,)], bins=[(-0.1, 0.5)])

    def test_coarser_spacing_allowed_finer_rejected(self):
        adv = make_adversary(self.G10, [(0.0,), (0.5,)], spacing=0.5)
        assert adv.spacing == 0.5
        with pytest.raises(ValueError):
            make_adversary(self.G10, [(0.0,)], spacing=0.05)
        with pytest.raises(ValueError):
            # declared coarse spacing must actually hold within the bin
            make_adversary(self.G10, [(0.0,), (0.2,)], spacing=0.5)

    def test_empty_schedule_and_wrong_arity(self):
        with pytest.raises(ValueError):
            make_adversary(self.G10, [])
        with pytest.raises(ValueError):
            make_adversary(self.G10, [(0.5, 0.5)])


class TestExternalRegret:
    GR = GameConfig(rounds=1, grid=2, delta=0.9)

    def test_overshooting_proposer(self):
        # against threshold 0.5 twice, playing offers 1 then 0.5 earns 0 + 0.5;
        # the best fixed offer 0.5 earns 1.0 in total
        adv = make_adversary(self.GR, [(0.5,), (0.5,)])
        res = external_regret(
            self.GR, "P", [Strategy((2,), 2), Strategy((1,), 2)], adv
        )
        assert res == RegretResult(0.5, 0.5)

    def test_off_grid_adversary_separates_the_two_bars(self):
        # threshold 0.3 twice; playing offer 1 earns nothing; the best grid
        # offer is 0.5 (earns 0.5 per step) but the best continuous offer is
        # 0.3 itself (earns 0.7 per step)
        adv = make_adversary(self.GR, [(0.3,), (0.3,)])
        res = external_regret(
            self.GR, "P", [Strategy((2,), 2), Strategy((2,), 2)], adv
        )
        assert res.regret_vs_grid == pytest.approx(1.0, abs=1e-12)
        assert res.regret_vs_continuous == pytest.approx(1.4, abs=1e-12)

    def test_best_response_from_start_has_zero_regret(self):
        adv = make_adversary(self.GR, [(0.5,), (0.5,)])
        res = external_regret(
            self.GR, "P", [Strategy((1,), 2), Strategy((1,), 2)], adv
        )
        assert res == RegretResult(0.0, 0.0)

    def test_static_overgenerous_proposer_has_linear_regret(self):
        g = GameConfig(rounds=1, grid=4, delta=0.9)
        T = 5
        adv = make_adversary(g, [(0.0,)] * T)
        res = external_regret(g, "P", [Strategy((4,), 4)] * T, adv)
        assert res.regret_vs_grid == pytest.approx(T, abs=1e-12)

    def test_responder_owner(self):
        # the adversary proposes 0.6 twice; thresholds 0.5 then 1.0 earn
        # 0.6 + 0; the best fixed threshold (anything <= 0.6) earns 1.2
        adv = make_adversary(self.GR, [(0.6,), (0.6,)])
        res = external_regret(
            self.GR, "R", [Strategy((1,), 2), Strategy((2,), 2)], adv
        )
        assert res.regret_vs_grid == pytest.approx(0.6, abs=1e-12)
        assert res.regret_vs_continuous == pytest.approx(0.6, abs=1e-12)

    def test_mixed_plays_are_scored_by_expectation(self):
        adv = make_adversary(self.GR, [(0.5,)])
        half = MixedStrategy(self.GR, np.array([0.0, 0.5, 0.5]))
        res = external_regret(self.GR, "P", [half], adv)
        # expected earning 0.5 * 0.5 + 0.5 * 0 = 0.25; best fixed 0.5
        assert res.regret_vs_grid == pytest.approx(0.25, abs=1e-12)

    def test_continuous_bar_dominates_grid_bar(self):
        g = GameConfig(rounds=2, grid=5, delta=0.7)
        rng = np.random.default_rng(11)
        vals = [(0.23, 0.61), (0.43, 0.81), (0.63, 0.41)]
        plays = [vals[int(i)] for i in rng.integers(0, 3, size=12)]
        adv = make_adversary(
            g, plays, bins=[(0.23, 0.43, 0.63), (0.41, 0.61, 0.81)]
        )
        n = g.strategy_count
        seq = [strategy_from_index(g, int(i)) for i in rng.integers(0, n, size=12)]
        res = external_regret(g, "P", seq, adv)
        assert res.regret_vs_continuous >= res.regret_vs_grid - 1e-12

    def test_validation(self):
        adv = make_adversary(self.GR, [(0.5,), (0.5,)])
        with pytest.raises(ValueError):
            external_regret(self.GR, "X", [Strategy((1,), 2)] * 2, adv)
        with pytest.raises(ValueError):
            external_regret(self.GR, "P", [Strategy((1,), 2)], adv)
        other = GameConfig(rounds=1, grid=4, delta=0.9)
        with pytest.raises(ValueError):
            external_regret(other, "P", [Strategy((1,), 4)] * 2, adv)


class TestRegretSublinearity:
    def test_l2_learner_normalized_regret_is_stable(self):
        """Normalized regret stays bounded as the horizon quadruples."""
        normalized = []
        for T in (100, 400):
            D = T
            g = GameConfig(rounds=1, grid=D, delta=0.9)
            cfg = LearnerConfig(
                owner="P",
                reg=2,
                rate=1.0 / np.sqrt(T),
                anchor=Strategy((D // 2,), D),
                initial=Strategy((D // 2,), D),
                horizon=T,
            )
            st = make_learner(g, cfg)
            cycle = [Strategy((int(0.3 * D),), D), Strategy((int(0.6 * D),), D)]
            played, values = [], []
            for t in range(T):
                played.append(st.current)
                opp = cycle[t % 2]
                values.append((opp.entries[0] / D,))
                step(st, opp)
            adv = make_adversary(g, values)
            res = external_regret(g, "P", played, adv)
            assert res.regret_vs_continuous > 0
            normalized.append(res.regret_vs_continuous / np.sqrt(T))
        assert normalized[1] / normalized[0] <= 1.25


class TestTheorem5DecimalDelta:
    def test_boundary_start_qualifies_and_settles(self):
        """delta = 0.9 is read as 9/10: 1 - 7/16 = 9/10 * 10/16 exactly, so
        the responder condition holds with equality.  At the binary value of
        0.9 (just above 9/10) it would fail."""
        wp, wr = Strategy((8, 8), 16), Strategy((7, 10), 16)
        anchor = Strategy((12, 8), 16)
        assert theorem5_preconditions(G2, wp, wr, anchor, anchor)
        record = self_play(
            G2,
            LearnerConfig(owner="P", reg=1, rate=40.0, anchor=anchor,
                          initial=wp, horizon=300),
            LearnerConfig(owner="R", reg=1, rate=40.0, anchor=anchor,
                          initial=wr, horizon=300),
        )
        assert record.converged_at == 45
        assert record.ne_value == 0.5


# ---------------------------------------------------------------------------
# the schedule engine against the stepwise learner
# ---------------------------------------------------------------------------


def _stepwise_regret(game, config, adversary):
    """Step ``ftrl.step`` through the schedule, then score the strategies
    played round by round: one kernel row per round, summed as they come."""
    state = make_learner(game, config)
    played = []
    for adv in adversary.plays:
        played.append(state.current)
        step(state, adv)
    owner = config.owner
    cum_grid = np.zeros(game.strategy_count)
    earned = 0.0
    for own, adv in zip(played, adversary.plays):
        u = value_play_utilities(game, owner, adv)
        cum_grid += u
        earned += float(_weights_of(game, own) @ u)
    shift = 1.0 / game.grid
    values = []
    for k in range(game.rounds):
        vals = {float(x) for x in game.grid_values}
        vals.update(v for b in adversary.bins[k] for v in (b - shift, b, b + shift)
                    if 0.0 <= v <= 1.0)
        values.append(sorted(vals))
    candidates = np.array(list(itertools.product(*values)))
    cont = np.zeros(len(candidates))
    for adv in adversary.plays:
        cont += value_play_utilities(game, owner, adv, candidates)
    want = RegretResult(float(cum_grid.max() - earned), float(cont.max() - earned))
    return want, played


def _weights_of(game, own):
    if isinstance(own, MixedStrategy):
        return own.weights
    w = np.zeros(game.strategy_count)
    w[strategy_index(game, own)] = 1.0
    return w



@pytest.mark.parametrize("n", [101, 401, 1601])
def test_block_arithmetic_has_the_bits_of_round_by_round(n):
    """The regret accounting works a block of rounds at a time and relies on
    two facts of the installed numpy and BLAS, pinned here so that a build
    that breaks them fails loudly: a stacked (rows, 1, n) @ (rows, n, 1)
    matmul gives each row's ``float(w @ u)`` bit for bit, for mixed and
    one-hot weights; and a sum over the leading axis adds the rows in
    order, as ``+=`` one row at a time does."""
    rng = np.random.default_rng(n)
    rows = 40
    u = rng.random((rows, n)) * rng.choice([1e-3, 1.0, 40.0], size=(rows, 1))
    dense = rng.random((rows, n))
    sparse = np.where(rng.random((rows, n)) < 0.01, dense, 0.0)
    sparse[:, 0] += 1e-3  # no empty row
    one_hot = np.zeros((rows, n))
    one_hot[np.arange(rows), rng.integers(0, n, rows)] = 1.0
    for w in (dense / dense.sum(axis=1, keepdims=True),
              sparse / sparse.sum(axis=1, keepdims=True), one_hot):
        stacked = np.matmul(w[:, None, :], u[:, :, None]).ravel().tolist()
        assert stacked == [float(a @ b) for a, b in zip(w, u)]
    running = u[0].copy()
    for row in u[1:]:
        running += row
    assert np.add.reduce(u, axis=0).tobytes() == running.tobytes()


class TestScheduleRegret:
    @settings(max_examples=120)
    @given(data=st.data())
    def test_property_matches_stepwise_learner(self, data):
        """``schedule_regret`` == the ``ftrl.step`` loop scored round by
        round, bit for bit, and == ``external_regret`` of the plays.

        Each round's bin holds grid values shifted by one offset: none (on
        the grid), 1e-12 (fed back at the grid point, scored at the raw
        value) or 0.37/D (off the grid).  Rates span pure and mixed reg=2
        plays and tie-heavy reg=1 play; the block size is patched down so
        the schedule spans several blocks, and the row cache down to 1-3
        rows so that rows are dropped and computed again.
        """
        rounds = data.draw(st.integers(1, 3), label="rounds")
        grid = data.draw(st.integers(2, 6), label="grid")
        delta = data.draw(st.integers(1, 100), label="delta_pct") / 100
        game = GameConfig(rounds=rounds, grid=grid, delta=delta)
        n = game.strategy_count
        reg = data.draw(st.sampled_from([1, 2]), label="reg")
        rate = data.draw(st.one_of(
            st.integers(1, 4 * grid).map(float),
            st.sampled_from([0.01, 0.3, 1.7, 25.0, 1000.0]),
        ), label="rate")
        bins = []
        for k in range(rounds):
            offset = data.draw(
                st.sampled_from([0.0, 1e-12, 0.37 / grid]), label=f"offset_{k + 1}"
            )
            top = grid if offset == 0.0 else grid - 1
            numerators = data.draw(st.lists(
                st.integers(0, top), min_size=1, max_size=3, unique=True
            ), label=f"bin_{k + 1}")
            bins.append(sorted(e / grid + offset for e in numerators))
        horizon = data.draw(st.integers(1, 60), label="horizon")
        play = st.tuples(*(st.sampled_from(b) for b in bins))
        if data.draw(st.booleans(), label="cycle"):
            cycle = data.draw(st.lists(play, min_size=1, max_size=4), label="cycle")
            plays = [cycle[t % len(cycle)] for t in range(horizon)]
        else:
            plays = data.draw(
                st.lists(play, min_size=horizon, max_size=horizon), label="plays"
            )
        adversary = make_adversary(game, plays, bins=bins)
        entry = st.tuples(*[st.integers(0, grid)] * rounds)
        config = LearnerConfig(
            owner=data.draw(st.sampled_from("PR"), label="owner"),
            reg=reg, rate=rate, horizon=horizon,
            anchor=Strategy(data.draw(entry, label="anchor"), grid),
            initial=Strategy(data.draw(entry, label="initial"), grid),
        )
        block = data.draw(st.integers(1, horizon), label="block")
        cached = data.draw(st.integers(1, 3), label="cached_rows")

        with mock.patch.object(dynamics, "_BLOCK_BYTES", 8 * n * block), \
                mock.patch.object(dynamics, "_ROW_CACHE_BYTES", 8 * n * cached):
            got = dynamics.schedule_regret(game, config, adversary)
        want, played = _stepwise_regret(game, config, adversary)
        assert got == want
        assert external_regret(game, config.owner, played, adversary) == want

    @pytest.mark.parametrize("rounds,grid", [(3, 4), (4, 3)])
    def test_matches_stepwise_learner_past_two_rounds(self, rounds, grid):
        """Bit for bit where agreements are discounted by ``delta ** 2`` and
        more, on grid plays: the ``ftrl.step`` loop scores them as the pure
        strategy, ``schedule_regret`` at their grid values."""
        rng = np.random.default_rng(rounds)
        for delta, case in itertools.product((0.8, 0.99), range(12)):
            game = GameConfig(rounds=rounds, grid=grid, delta=delta)
            bins = [sorted(rng.choice(grid + 1, 2, replace=False) / grid)
                    for _ in range(rounds)]
            plays = [tuple(float(rng.choice(b)) for b in bins) for _ in range(30)]
            adversary = make_adversary(game, plays, bins=bins)
            entries = rng.integers(0, grid + 1, (2, rounds))
            config = LearnerConfig(
                owner="PR"[case % 2], reg=1 + case // 6,
                rate=float(rng.choice([1.7, 9.0, 25.0])), horizon=30,
                anchor=Strategy(tuple(entries[0]), grid),
                initial=Strategy(tuple(entries[1]), grid),
            )
            want, _ = _stepwise_regret(game, config, adversary)
            got = dynamics.schedule_regret(game, config, adversary)
            assert got == want, (delta, case)

    def test_checks_its_inputs(self):
        game = GameConfig(rounds=1, grid=4, delta=0.9)
        adversary = make_adversary(game, [(0.25,), (0.5,)])
        config = lcfg(game, "P", (2,), (2,), horizon=2)
        with pytest.raises(ValueError, match="horizon 3"):
            dynamics.schedule_regret(game, lcfg(game, "P", (2,), (2,), horizon=3),
                                     adversary)
        with pytest.raises(ValueError, match="different game"):
            dynamics.schedule_regret(G1, config, adversary)
        with pytest.raises(ValueError):
            dynamics.schedule_regret(
                game, lcfg(G1, "P", (2,), (2,), horizon=2), adversary
            )

    def test_float_near_tie_goes_to_the_largest_index(self):
        """After six rounds the offers 0.4 (accepted once, 0.6) and 0.9
        (accepted six times, 0.1 each) tie in exact arithmetic but not in
        float; the tie band sends round 7 to the larger offer, as
        ``ftrl.l1_update`` does."""
        game = GameConfig(rounds=1, grid=10, delta=0.9)
        plays = [(0.9,), (0.9,), (0.4,), (0.9,), (0.9,), (0.9,), (0.9,)]
        adversary = make_adversary(game, plays)
        config = lcfg(game, "P", (10,), (10,), rate=1000.0, horizon=7)
        want, played = _stepwise_regret(game, config, adversary)
        assert played[6] == Strategy((9,), 10)
        assert dynamics.schedule_regret(game, config, adversary) == want


# ---------------------------------------------------------------------------
# one rate per learner on the event engine
# ---------------------------------------------------------------------------


class TestRatePerLearner:
    def test_unequal_reg1_rates_run_on_the_engine(self):
        """Run B with rates 40 / 41 never reaches the stepwise learners."""
        pc = lcfg(G2, "P", (8, 8), (2, 6), rate=40.0, horizon=500)
        rc = lcfg(G2, "R", (15, 1), (9, 14), rate=41.0, horizon=500)
        want = _self_play_stepwise(G2, pc, rc)
        with mock.patch.object(
            dynamics, "_self_play_stepwise", side_effect=AssertionError("stepwise")
        ):
            rec = self_play(G2, pc, rc)
        assert rec.profiles == want
        assert rec.converged_at == 427 and rec.ne_value == 0.9375
        assert (rec.payoff_P, rec.payoff_R) == (0.0625, 0.9375)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_property_rate_pair_matches_stepwise_learners(self, data):
        """Event engine with ``(rate_P, rate_R)`` == reg=1 ftrl learners.

        Draws as in ``TestBatchEngine.test_property_matches_stepwise_learners``,
        but each learner's rate is drawn on its own.
        """
        rounds = data.draw(st.integers(1, 3), label="rounds")
        grid = data.draw(st.integers(2, 6), label="grid")
        delta = data.draw(st.integers(1, 100), label="delta_pct") / 100
        game = GameConfig(rounds=rounds, grid=grid, delta=delta)
        n = game.strategy_count
        rate = st.one_of(
            st.integers(2 * grid + 1, 1000), st.integers(1, 2 * grid), st.just(grid)
        ).map(float)
        rate_P, rate_R = data.draw(rate, label="rate_P"), data.draw(rate, label="rate_R")
        horizon = data.draw(st.integers(1, 60), label="horizon")
        cells = data.draw(st.integers(2, 12), label="cells")
        index = st.lists(st.integers(0, n - 1), min_size=cells, max_size=cells)
        iP, iR, aP, aR = (
            np.array(data.draw(index, label=name))
            for name in ("initial_P", "initial_R", "anchor_P", "anchor_R")
        )
        block = data.draw(st.integers(1, cells), label="block")

        with mock.patch.object(dynamics, "_BLOCK_BYTES", 8 * n * block):
            res = batch_self_play(game, (rate_P, rate_R), horizon, iP, iR, aP, aR)

        def learner(owner, rate, initial, anchor):
            return LearnerConfig(
                owner=owner, reg=1, rate=rate, horizon=horizon,
                initial=strategy_from_index(game, int(initial)),
                anchor=strategy_from_index(game, int(anchor)),
            )

        for b in range(cells):
            plays = _self_play_stepwise(
                game,
                learner("P", rate_P, iP[b], aP[b]),
                learner("R", rate_R, iR[b], aR[b]),
            )
            want = [[strategy_index(game, p), strategy_index(game, r)] for p, r in plays]
            assert res.profiles[b].tolist() == want, b
            det = detect_convergence(game, plays)
            if det is None:
                assert res.converged_at[b] == -1
                assert np.isnan(res.ne_value[b]) and res.ne_round[b] == 0
                continue
            t_conv, profile, value = det
            assert res.converged_at[b] == t_conv
            assert res.ne_round[b] == (play(game, *profile).agreement_round or 0)
            if value is None:
                assert np.isnan(res.ne_value[b])
            else:
                assert res.ne_value[b] == value

    @pytest.mark.parametrize("bad", [0.0, -40.0, float("nan"), 1e-320])
    def test_engine_rejects_a_bad_rate_in_either_position(self, bad):
        for rate in (bad, (bad, 40.0), (40.0, bad)):
            with pytest.raises(ValueError, match="rate"):
                batch_self_play(G1, rate, 10, [0], [1], [2], [3])
