"""Unit tests for the alternating-offers game engine.

Expected values are frozen from hand enumeration of the small payoff tables
(grid denominators 4-6, one or two rounds), and the brute-force oracles here
recompute best responses / equilibria straight from ``play`` so the vectorized
payoff-matrix path is checked against an independent route.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bargainlab.game import (
    GameConfig,
    Strategy,
    all_strategies,
    best_responses,
    continuous_play,
    equilibrium_value,
    feedback_vector,
    is_pure_ne,
    payoff_matrices,
    play,
    snap_share,
    strategy_from_index,
    strategy_index,
    value_play_utilities,
)

RNG = np.random.default_rng(20260822)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_game_config_validation():
    GameConfig(rounds=1, grid=4, delta=1.0)  # delta may be 1
    with pytest.raises(ValueError):
        GameConfig(rounds=0, grid=4, delta=0.9)
    with pytest.raises(ValueError):
        GameConfig(rounds=1, grid=0, delta=0.9)
    with pytest.raises(ValueError):
        GameConfig(rounds=1, grid=4, delta=0.0)
    with pytest.raises(ValueError):
        GameConfig(rounds=1, grid=4, delta=1.2)
    with pytest.raises(ValueError):
        GameConfig(rounds=-2, grid=4, delta=0.5)


def test_strategy_validation():
    s = Strategy((2, 0), 4)
    assert s.values == (0.5, 0.0)
    assert s.fractions == (Fraction(1, 2), Fraction(0))
    assert len(s) == 2
    with pytest.raises(ValueError):
        Strategy((5,), 4)
    with pytest.raises(ValueError):
        Strategy((-1,), 4)
    with pytest.raises(ValueError):
        Strategy((), 4)
    with pytest.raises((TypeError, ValueError)):
        Strategy((1.5,), 4)
    with pytest.raises(ValueError):
        Strategy((1,), 0)


def test_strategy_from_values_snapping():
    assert Strategy.from_values((0.25,), 4) == Strategy((1,), 4)
    with pytest.raises(ValueError):
        Strategy.from_values((0.3,), 4)  # off-grid, exact mode rejects
    assert Strategy.from_values((0.3,), 4, snap="floor") == Strategy((1,), 4)
    assert Strategy.from_values((0.3,), 4, snap="ceil") == Strategy((2,), 4)
    # 0.3*4 = 1.2 -> nearest is 1
    assert Strategy.from_values((0.3,), 4, snap="nearest") == Strategy((1,), 4)
    with pytest.raises(ValueError):
        Strategy.from_values((1.25,), 4, snap="floor")  # outside [0, 1]
    with pytest.raises(ValueError):
        Strategy.from_values((0.3,), 4, snap="bogus")


def test_strategy_indexing_roundtrip():
    cfg = GameConfig(rounds=2, grid=3, delta=0.5)
    seen = set()
    for i in range(cfg.strategy_count):
        s = strategy_from_index(cfg, i)
        assert strategy_index(cfg, s) == i
        seen.add(s.entries)
    assert len(seen) == 16
    # flat index order is lexicographic order of the entry tuples
    entries = [strategy_from_index(cfg, i).entries for i in range(16)]
    assert entries == sorted(entries)


def test_play_input_validation():
    cfg = GameConfig(rounds=2, grid=4, delta=0.5)
    good = Strategy((1, 2), 4)
    with pytest.raises(ValueError):
        play(cfg, Strategy((1,), 4), good)  # wrong length
    with pytest.raises(ValueError):
        play(cfg, Strategy((1, 2), 5), good)  # wrong denominator


# ---------------------------------------------------------------------------
# play: frozen outcomes
# ---------------------------------------------------------------------------


def test_play_one_round_agreement():
    cfg = GameConfig(rounds=1, grid=4, delta=0.9)
    out = play(cfg, Strategy((2,), 4), Strategy((1,), 4))
    assert out.agreement_round == 1
    assert out.responder_share == 0.5
    assert out.payoff_P == 0.5
    assert out.payoff_R == 0.5


def test_play_one_round_weak_inequality_at_threshold():
    cfg = GameConfig(rounds=1, grid=4, delta=0.9)
    out = play(cfg, Strategy((2,), 4), Strategy((2,), 4))
    assert out.agreement_round == 1  # offer equal to threshold is accepted


def test_play_one_round_rejection():
    cfg = GameConfig(rounds=1, grid=4, delta=0.9)
    out = play(cfg, Strategy((1,), 4), Strategy((3,), 4))
    assert out.agreement_round is None
    assert out.responder_share is None
    assert out.payoff_P == 0.0 and out.payoff_R == 0.0


def test_play_two_rounds_no_agreement():
    cfg = GameConfig(rounds=2, grid=4, delta=0.5)
    out = play(cfg, Strategy((1, 2), 4), Strategy((3, 1), 4))
    # round 1: offer 1/4 < threshold 3/4; round 2: offer 1/4 < threshold 2/4
    assert out.agreement_round is None
    assert out.payoff_P == 0.0 and out.payoff_R == 0.0


def test_play_second_round_agreement_discounted_once():
    cfg = GameConfig(rounds=2, grid=4, delta=0.5)
    out = play(cfg, Strategy((1, 2), 4), Strategy((3, 3), 4))
    # round 2: responder is the first mover; offer 3/4 >= threshold 2/4
    assert out.agreement_round == 2
    assert out.responder_share == 0.75
    assert out.payoff_P == pytest.approx(0.5 * 0.75, abs=1e-15)
    assert out.payoff_R == pytest.approx(0.5 * 0.25, abs=1e-15)


def test_play_first_round_is_undiscounted():
    cfg = GameConfig(rounds=1, grid=4, delta=0.3)
    out = play(cfg, Strategy((3,), 4), Strategy((0,), 4))
    assert out.payoff_P == 0.25
    assert out.payoff_R == 0.75


def test_play_discount_exponent_counts_from_zero():
    cfg = GameConfig(rounds=2, grid=4, delta=0.8)
    out = play(cfg, Strategy((0, 1), 4), Strategy((1, 1), 4))
    assert out.agreement_round == 2
    assert out.payoff_P == pytest.approx(0.8 * 0.25, abs=1e-15)
    assert out.payoff_R == pytest.approx(0.8 * 0.75, abs=1e-15)


def test_play_three_rounds_parity():
    # odd rounds are proposed by the first mover again
    cfg = GameConfig(rounds=3, grid=4, delta=0.5)
    out = play(cfg, Strategy((0, 0, 2), 4), Strategy((3, 0, 2), 4))
    # r1: offer 0 < threshold 3, reject.  r2: the second mover proposes its
    # own entry 0, the first mover's threshold entry is 0, 0 >= 0 accepts;
    # the round-2 responder (the first mover) receives share 0.
    assert out.agreement_round == 2
    assert out.responder_share == 0.0
    assert out.payoff_P == 0.0
    assert out.payoff_R == pytest.approx(0.5 * 1.0, abs=1e-15)

    out2 = play(cfg, Strategy((0, 1, 2), 4), Strategy((3, 1, 4), 4))
    # r1: 0<3 reject; r2: offer 1/4 to the first mover vs threshold 1/4: accept
    assert out2.agreement_round == 2
    assert out2.payoff_P == pytest.approx(0.5 * 0.25, abs=1e-15)


def test_play_three_rounds_third_round_discount():
    cfg = GameConfig(rounds=3, grid=4, delta=0.5)
    out = play(cfg, Strategy((0, 1, 2), 4), Strategy((3, 0, 2), 4))
    # r1 reject; r2: offer 0 < threshold 1 reject; r3: offer 2 >= threshold 2
    assert out.agreement_round == 3
    assert out.responder_share == 0.5
    assert out.payoff_P == pytest.approx(0.25 * 0.5, abs=1e-15)
    assert out.payoff_R == pytest.approx(0.25 * 0.5, abs=1e-15)


def test_continuous_play_matches_grid_play():
    for rounds, grid in [(1, 4), (2, 5), (3, 3)]:
        cfg = GameConfig(rounds=rounds, grid=grid, delta=0.7)
        for _ in range(25):
            sp = strategy_from_index(cfg, int(RNG.integers(cfg.strategy_count)))
            sr = strategy_from_index(cfg, int(RNG.integers(cfg.strategy_count)))
            a = play(cfg, sp, sr)
            b = continuous_play(rounds, 0.7, sp.values, sr.values)
            assert a.agreement_round == b.agreement_round
            assert a.payoff_P == pytest.approx(b.payoff_P, abs=1e-12)
            assert a.payoff_R == pytest.approx(b.payoff_R, abs=1e-12)


def test_continuous_play_off_grid():
    out = continuous_play(1, 0.9, (0.3,), (0.3,))
    assert out.agreement_round == 1
    assert out.payoff_P == pytest.approx(0.7)
    assert out.payoff_R == pytest.approx(0.3)
    out2 = continuous_play(1, 0.9, (0.2999,), (0.3,))
    assert out2.agreement_round is None


# ---------------------------------------------------------------------------
# feedback vectors and payoff matrices
# ---------------------------------------------------------------------------


def test_feedback_vector_matches_play():
    for rounds, grid in [(1, 5), (2, 3)]:
        cfg = GameConfig(rounds=rounds, grid=grid, delta=0.7)
        strategies = all_strategies(cfg)
        for _ in range(10):
            opp = strategies[int(RNG.integers(len(strategies)))]
            fb_p = feedback_vector(cfg, "P", opp)
            fb_r = feedback_vector(cfg, "R", opp)
            for s in strategies:
                assert fb_p[s] == pytest.approx(
                    play(cfg, s, opp).payoff_P, abs=1e-12
                )
                assert fb_r[s] == pytest.approx(
                    play(cfg, opp, s).payoff_R, abs=1e-12
                )


def test_feedback_vector_as_dict_keys():
    cfg = GameConfig(rounds=1, grid=3, delta=0.5)
    fb = feedback_vector(cfg, "P", Strategy((1,), 3))
    d = fb.as_dict()
    assert set(d) == set(all_strategies(cfg))
    assert d[Strategy((1,), 3)] == pytest.approx(1 - 1 / 3)


def test_feedback_vector_owner_validation():
    cfg = GameConfig(rounds=1, grid=3, delta=0.5)
    with pytest.raises(ValueError):
        feedback_vector(cfg, "X", Strategy((1,), 3))


def test_payoff_matrices_match_feedback_columns():
    cfg = GameConfig(rounds=2, grid=4, delta=0.6)
    U_P, U_R = payoff_matrices(cfg)
    n = cfg.strategy_count
    assert U_P.shape == (n, n) and U_R.shape == (n, n)
    for j in [0, 7, n - 1]:
        opp = strategy_from_index(cfg, j)
        np.testing.assert_allclose(U_P[:, j], feedback_vector(cfg, "P", opp).values, atol=1e-15)
        np.testing.assert_allclose(U_R[j, :], feedback_vector(cfg, "R", opp).values, atol=1e-15)


@pytest.mark.parametrize("rounds,grid", [(3, 4), (4, 3), (5, 2)])
def test_payoff_matrices_equal_play_bit_for_bit(rounds, grid):
    """Every table entry is ``play``'s float.  Both discount round k by the
    Python scalar ``delta ** (k - 1)``; numpy's array power is off by an ulp
    at some exponents >= 2 (0.8 ** 2, 0.1 ** 2, 0.99 ** 3, 0.64 ** 3)."""
    for delta in (0.8, 0.1, 0.99, 0.64):
        cfg = GameConfig(rounds=rounds, grid=grid, delta=delta)
        U_P, U_R = payoff_matrices(cfg)
        strategies = all_strategies(cfg)
        for i, sp in enumerate(strategies):
            for j, sr in enumerate(strategies):
                out = play(cfg, sp, sr)
                assert (U_P[i, j], U_R[i, j]) == (out.payoff_P, out.payoff_R), (
                    delta, sp, sr
                )


def test_pure_opponent_reads_build_no_table():
    """Reads against one pure opponent take one kernel row.  N = 1681: the
    two payoff tables would hold 45 MB."""
    from bargainlab.ftrl import LearnerConfig, make_learner, step

    cfg = GameConfig(rounds=2, grid=40, delta=0.9)
    proposer, responder = Strategy((0, 40), 40), Strategy((0, 13), 40)
    before = payoff_matrices.cache_info()
    vector = feedback_vector(cfg, "P", responder)
    assert vector[proposer] == 1.0
    assert best_responses(cfg, "R", proposer)[0] == Strategy((0, 0), 40)
    assert is_pure_ne(cfg, proposer, responder)
    assert not is_pure_ne(cfg, Strategy((1, 40), 40), responder)
    assert equilibrium_value(cfg, proposer, responder) == 0.0
    for owner in ("P", "R"):
        state = make_learner(cfg, LearnerConfig(
            owner=owner, reg=1, rate=100.0, horizon=2,
            anchor=responder, initial=responder,
        ))
        step(state, proposer)
        step(state, (0.0, 0.325))  # on the grid: (0, 13)
        want = (feedback_vector(cfg, owner, proposer).values
                + feedback_vector(cfg, owner, responder).values)
        np.testing.assert_array_equal(state.cumulative, want)
    assert payoff_matrices.cache_info() == before


# ---------------------------------------------------------------------------
# best responses and pure equilibria
# ---------------------------------------------------------------------------


def test_best_responses_one_round():
    cfg = GameConfig(rounds=1, grid=4, delta=0.9)
    # against threshold 1/2 the unique best offer is exactly 1/2
    br = best_responses(cfg, "P", Strategy((2,), 4))
    assert br == [Strategy((2,), 4)]
    # against offer 1/2 every threshold <= 1/2 earns 1/2
    br_r = best_responses(cfg, "R", Strategy((2,), 4))
    assert br_r == [Strategy((0,), 4), Strategy((1,), 4), Strategy((2,), 4)]


def _brute_force_is_ne(cfg, sp, sr, tol=1e-9):
    """Independent equilibrium oracle built directly on play()."""
    strategies = all_strategies(cfg)
    up = play(cfg, sp, sr).payoff_P
    ur = play(cfg, sp, sr).payoff_R
    best_p = max(play(cfg, s, sr).payoff_P for s in strategies)
    best_r = max(play(cfg, sp, s).payoff_R for s in strategies)
    return up >= best_p - tol and ur >= best_r - tol


def test_is_pure_ne_one_round_families():
    cfg = GameConfig(rounds=1, grid=6, delta=0.9)
    for v in range(7):
        assert is_pure_ne(cfg, Strategy((v,), 6), Strategy((v,), 6))
    # agreement above the threshold leaves the proposer exploitable
    assert not is_pure_ne(cfg, Strategy((3,), 6), Strategy((2,), 6))
    # rejection with a beatable threshold is not an equilibrium
    assert not is_pure_ne(cfg, Strategy((1,), 6), Strategy((3,), 6))
    # total rejection of everything except an offer of the whole pie
    assert is_pure_ne(cfg, Strategy((0,), 6), Strategy((6,), 6))


@pytest.mark.parametrize("rounds,grid", [(1, 4), (1, 8), (2, 3)])
def test_is_pure_ne_exhaustive_vs_brute_force(rounds, grid):
    cfg = GameConfig(rounds=rounds, grid=grid, delta=0.6)
    strategies = all_strategies(cfg)
    for sp in strategies:
        for sr in strategies:
            assert is_pure_ne(cfg, sp, sr) == _brute_force_is_ne(cfg, sp, sr), (
                sp,
                sr,
            )


def test_equilibrium_value():
    cfg = GameConfig(rounds=1, grid=4, delta=0.9)
    assert equilibrium_value(cfg, Strategy((2,), 4), Strategy((2,), 4)) == 0.5
    # no-agreement equilibrium has no deal value
    assert equilibrium_value(cfg, Strategy((0,), 4), Strategy((4,), 4)) is None
    with pytest.raises(ValueError):
        equilibrium_value(cfg, Strategy((3,), 4), Strategy((1,), 4))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    rounds=st.integers(1, 3),
    grid=st.integers(1, 6),
    delta=st.floats(0.05, 1.0, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
)
def test_play_payoff_identities(rounds, grid, delta, seed):
    rng = np.random.default_rng(seed)
    cfg = GameConfig(rounds=rounds, grid=grid, delta=delta)
    sp = strategy_from_index(cfg, int(rng.integers(cfg.strategy_count)))
    sr = strategy_from_index(cfg, int(rng.integers(cfg.strategy_count)))
    out = play(cfg, sp, sr)
    assert out.payoff_P >= 0 and out.payoff_R >= 0
    if out.agreement_round is None:
        assert out.payoff_P == 0 and out.payoff_R == 0
        assert out.responder_share is None
    else:
        k = out.agreement_round
        assert 1 <= k <= rounds
        assert out.payoff_P + out.payoff_R == pytest.approx(
            delta ** (k - 1), abs=1e-12
        )
        # the agreed share sits on the grid
        assert out.responder_share == pytest.approx(
            out.offer_index / grid, abs=1e-15
        )


def test_snap_share_rule():
    # half-up rounding, clamped to the grid, 1e-9 on the share counts as on it
    assert snap_share(0.25, 4) == (1, True)
    assert snap_share(0.25 + 5e-10, 4) == (1, True)
    assert snap_share(0.25 + 2e-9, 4) == (1, False)
    assert snap_share(0.375, 4) == (2, False)  # 1.5 rounds up
    assert snap_share(0.3, 4) == (1, False)
    assert snap_share(1.0 + 1e-10, 4) == (4, True)
    assert snap_share(-1e-10, 4) == (0, True)


def test_continuous_play_and_index_validation():
    with pytest.raises(ValueError, match="strategy length must equal the number of rounds"):
        continuous_play(2, 0.9, (0.5,), (0.5, 0.5))
    with pytest.raises(ValueError, match=r"shares must lie in \[0, 1\]"):
        continuous_play(1, 0.9, (1.5,), (0.5,))
    cfg = GameConfig(rounds=2, grid=4, delta=0.9)
    for index in (-1, cfg.strategy_count):
        with pytest.raises(ValueError, match=f"strategy index {index} out of range"):
            strategy_from_index(cfg, index)


def test_value_play_utilities_match_continuous_play():
    """Each row of the kernel equals ``continuous_play`` of that strategy."""
    for rounds, grid in [(1, 4), (2, 5), (3, 3)]:
        cfg = GameConfig(rounds=rounds, grid=grid, delta=0.7)
        own = RNG.random((20, rounds))
        own[:5] = RNG.integers(0, grid + 1, (5, rounds)) / grid
        for _ in range(10):
            opp = tuple(float(v) for v in RNG.random(rounds))
            for owner in ("P", "R"):
                util = value_play_utilities(cfg, owner, opp, own)
                for row, u in zip(own, util):
                    mine = tuple(float(v) for v in row)
                    if owner == "P":
                        out = continuous_play(rounds, 0.7, mine, opp)
                        assert u == out.payoff_P
                    else:
                        assert u == continuous_play(rounds, 0.7, opp, mine).payoff_R
            grid_util = value_play_utilities(cfg, "P", opp)
            assert grid_util.shape == (cfg.strategy_count,)
            for i in RNG.integers(0, cfg.strategy_count, 5):
                s = strategy_from_index(cfg, int(i))
                out = continuous_play(rounds, 0.7, s.values, opp)
                assert grid_util[i] == out.payoff_P


@st.composite
def _stacked_plays(draw):
    """A game, k opponent plays of it (on the grid or not) and, maybe, an own
    strategy matrix."""
    rounds = draw(st.integers(1, 3))
    grid = draw(st.integers(1, 6))
    cfg = GameConfig(rounds, grid, draw(st.sampled_from([1.0, 0.9, 0.83, 0.5])))
    share = st.one_of(
        st.integers(0, grid).map(lambda e: e / grid),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    plays = st.lists(share, min_size=rounds, max_size=rounds)
    opponents = draw(st.lists(plays, min_size=1, max_size=6))
    own = draw(st.one_of(st.none(), st.lists(plays, min_size=1, max_size=8)))
    return cfg, np.array(opponents), None if own is None else np.array(own)


@given(_stacked_plays(), st.sampled_from(["P", "R"]))
@settings(max_examples=150, deadline=None)
def test_value_play_utilities_of_a_stack_is_each_play_bit_for_bit(case, owner):
    """A (k, rounds) stack of opponent plays gives (k, n) rows, each the one
    row of that play alone."""
    cfg, opponents, own = case
    stacked = value_play_utilities(cfg, owner, opponents, own)
    n = cfg.strategy_count if own is None else len(own)
    assert stacked.shape == (len(opponents), n)
    for row, opp in zip(stacked, opponents):
        alone = value_play_utilities(cfg, owner, tuple(opp.tolist()), own)
        assert np.array_equal(row.view(np.int64), alone.view(np.int64))
