"""Unit tests for the two follow-the-regularized-leader update rules.

Frozen numbers come from hand-evaluating the small objective tables (one-round
games on coarse grids); the simplex projection is checked against its KKT
optimality conditions and against direct objective comparison with random
feasible points, both independent of the sorting construction used inside.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bargainlab import ftrl as ftrl_module
from bargainlab import game as game_module
from bargainlab.dynamics import batch_self_play
from bargainlab.ftrl import (
    HorizonExceededError,
    LearnerConfig,
    MixedStrategy,
    l1_objective,
    l1_update,
    l2_update,
    make_learner,
    next_plays,
    project_rows_to_simplex,
    project_to_simplex,
    step,
)
from bargainlab.game import (
    PAYOFF_TOL,
    GameConfig,
    Strategy,
    feedback_vector,
    strategy_index,
    value_play_utilities,
)

RNG = np.random.default_rng(7130)


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------


def test_projection_hand_cases():
    np.testing.assert_allclose(
        project_to_simplex(np.array([0.4, 0.4, 0.8])), [0.2, 0.2, 0.6], atol=1e-12
    )
    np.testing.assert_allclose(
        project_to_simplex(np.array([1.0, 5.0])), [0.0, 1.0], atol=1e-12
    )
    np.testing.assert_allclose(
        project_to_simplex(np.array([-1.0, 1.0])), [0.0, 1.0], atol=1e-12
    )
    np.testing.assert_allclose(
        project_to_simplex(np.array([0.3, 0.3, 0.3])),
        [1 / 3, 1 / 3, 1 / 3],
        atol=1e-12,
    )
    np.testing.assert_allclose(project_to_simplex(np.array([7.5])), [1.0], atol=0)


def test_projection_idempotent_on_simplex():
    for _ in range(50):
        d = int(RNG.integers(1, 20))
        w = RNG.dirichlet(np.ones(d))
        np.testing.assert_allclose(project_to_simplex(w), w, atol=1e-9)


def test_projection_kkt_conditions():
    for _ in range(1000):
        d = int(RNG.integers(1, 50))
        v = RNG.normal(scale=3.0, size=d)
        w = project_to_simplex(v)
        assert (w >= -1e-12).all()
        assert abs(w.sum() - 1.0) <= 1e-9
        support = w > 1e-12
        theta = v[support] - w[support]
        # multiplier is constant on the support...
        assert theta.max() - theta.min() <= 1e-9
        # ...and off-support coordinates sit at or below it
        if (~support).any():
            assert v[~support].max() <= theta.max() + 1e-9


def test_projection_beats_random_feasible_points():
    for _ in range(100):
        d = int(RNG.integers(2, 12))
        v = RNG.normal(scale=2.0, size=d)
        w = project_to_simplex(v)
        dw = ((w - v) ** 2).sum()
        for _ in range(20):
            z = RNG.dirichlet(np.ones(d))
            assert dw <= ((z - v) ** 2).sum() + 1e-9


# ---------------------------------------------------------------------------
# mixed strategies
# ---------------------------------------------------------------------------


def test_mixed_strategy_validation():
    cfg = GameConfig(rounds=1, grid=2, delta=0.9)
    MixedStrategy(cfg, np.array([0.25, 0.25, 0.5]))
    with pytest.raises(ValueError):
        MixedStrategy(cfg, np.array([0.5, 0.6, -0.1]))
    with pytest.raises(ValueError):
        MixedStrategy(cfg, np.array([0.3, 0.3, 0.3]))
    with pytest.raises(ValueError):
        MixedStrategy(cfg, np.array([0.5, 0.5]))  # wrong length


def test_mixed_strategy_support():
    cfg = GameConfig(rounds=1, grid=2, delta=0.9)
    m = MixedStrategy(cfg, np.array([0.0, 0.25, 0.75]))
    sup = m.support()
    assert sup == [
        (Strategy((1,), 2), 0.25),
        (Strategy((2,), 2), 0.75),
    ]


# ---------------------------------------------------------------------------
# learner construction
# ---------------------------------------------------------------------------


def _lcfg(**kw):
    base = dict(
        owner="R",
        reg=1,
        rate=10.0,
        anchor=Strategy((3,), 4),
        initial=Strategy((1,), 4),
        horizon=100,
    )
    base.update(kw)
    return LearnerConfig(**base)


def test_learner_config_validation():
    game = GameConfig(rounds=1, grid=4, delta=0.9)
    make_learner(game, _lcfg())
    with pytest.raises(ValueError):
        LearnerConfig("X", 1, 10.0, Strategy((3,), 4), Strategy((1,), 4), 100)
    with pytest.raises(ValueError):
        _lcfg(reg=3)
    with pytest.raises(ValueError):
        _lcfg(rate=0.0)
    with pytest.raises(ValueError):
        _lcfg(horizon=0)
    with pytest.raises(ValueError):
        make_learner(game, _lcfg(anchor=Strategy((3,), 5)))
    with pytest.raises(ValueError):
        make_learner(game, _lcfg(initial=Strategy((1, 1), 4)))


def test_rate_warning_for_pure_play_guarantee():
    # sharp ties between adjacent grid payoffs are only broken in the right
    # direction when the anchor penalty 2/rate is below the grid gap 1/D
    assert _lcfg(rate=8.0).rate_warning_for(GameConfig(1, 4, 0.9)) is not None
    assert _lcfg(rate=9.0).rate_warning_for(GameConfig(1, 4, 0.9)) is None
    assert _lcfg(reg=2, rate=0.5).rate_warning_for(GameConfig(1, 4, 0.9)) is None


# ---------------------------------------------------------------------------
# l1 (anchor-penalized leader) updates
# ---------------------------------------------------------------------------


def test_l1_requires_feedback():
    game = GameConfig(rounds=1, grid=4, delta=0.9)
    state = make_learner(game, _lcfg())
    with pytest.raises(RuntimeError):
        l1_update(state)


def test_l1_objective_and_update_worked_example():
    # responder on D=4 after observing one offer of 1/2, anchor 3/4, rate 10:
    # thresholds {0, 1/4, 1/2} each earned 1/2; penalty 0.2 off-anchor
    game = GameConfig(rounds=1, grid=4, delta=0.9)
    state = make_learner(game, _lcfg())
    step(state, Strategy((2,), 4))
    np.testing.assert_allclose(
        l1_objective(state), [0.3, 0.3, 0.3, 0.0, -0.2], atol=1e-12
    )
    assert l1_update(state) == Strategy((2,), 4)  # largest of the tied trio


def test_l1_zero_feedback_returns_anchor():
    game = GameConfig(rounds=1, grid=4, delta=0.9)
    state = make_learner(game, _lcfg())
    step(state, Strategy((0,), 4))  # an offer of 0 pays every threshold 0
    assert l1_update(state) == Strategy((3,), 4)
    assert state.current == Strategy((3,), 4)


def test_l1_tie_breaks_to_largest_strategy():
    game = GameConfig(rounds=1, grid=4, delta=0.9)
    state = make_learner(game, _lcfg(anchor=Strategy((4,), 4)))
    step(state, Strategy((2,), 4))
    step(state, Strategy((2,), 4))
    assert state.current == Strategy((2,), 4)


def test_l1_anchor_wins_utility_ties():
    game = GameConfig(rounds=1, grid=4, delta=0.9)
    state = make_learner(game, _lcfg(anchor=Strategy((1,), 4)))
    step(state, Strategy((2,), 4))
    assert state.current == Strategy((1,), 4)


def test_l1_unique_argmax_ignores_anchor_when_gap_large():
    game = GameConfig(rounds=1, grid=4, delta=0.9)
    for anchor in range(5):
        state = make_learner(game, _lcfg(owner="P", anchor=Strategy((anchor,), 4)))
        # responder threshold 1/4 repeatedly: offering exactly 1/4 nets 0.75/step
        for _ in range(3):
            step(state, Strategy((1,), 4))
        # gap to the runner-up is 3*(0.75-0.5)=0.75 > 2/rate=0.2
        assert state.current == Strategy((1,), 4), anchor


def test_l1_membership_exhaustive():
    # on a one-round game the argmax is always the anchor or one of the
    # opponent entries seen so far (checked for every sequence up to length 3)
    game = GameConfig(rounds=1, grid=3, delta=0.9)
    for owner in ("P", "R"):
        for anchor in range(4):
            for length in (1, 2, 3):
                for seq in itertools.product(range(4), repeat=length):
                    state = make_learner(
                        game,
                        LearnerConfig(
                            owner, 1, 10.0, Strategy((anchor,), 3),
                            Strategy((0,), 3), 10,
                        ),
                    )
                    for o in seq:
                        step(state, Strategy((o,), 3))
                    got = state.current.entries[0]
                    assert got in set(seq) | {anchor}, (owner, anchor, seq, got)


# ---------------------------------------------------------------------------
# l2 (euclidean) updates
# ---------------------------------------------------------------------------


def test_l2_update_is_projection_of_anchor_plus_scaled_utility():
    game = GameConfig(rounds=1, grid=1, delta=0.9)
    cfg = LearnerConfig("P", 2, 1.0, Strategy((0,), 1), Strategy((0,), 1), 10)
    state = make_learner(game, cfg)
    state.cumulative = np.array([0.0, 5.0])
    state.steps = 1
    mix = l2_update(state)
    np.testing.assert_allclose(mix.weights, [0.0, 1.0], atol=1e-12)


def test_l2_concentrates_on_best_response():
    game = GameConfig(rounds=1, grid=4, delta=0.9)
    cfg = LearnerConfig("P", 2, 1.0, Strategy((0,), 4), Strategy((0,), 4), 100)
    state = make_learner(game, cfg)
    for _ in range(60):
        step(state, Strategy((2,), 4))
    w = state.current.weights
    assert w[strategy_index(game, Strategy((2,), 4))] >= 0.99


def test_l2_mixed_feedback_expectation():
    # responder mix: half threshold 0, half threshold 1 -> proposer expected
    # utilities are [1*.5, .5*.5, 0] for offers {0, 1/2, 1}
    game = GameConfig(rounds=1, grid=2, delta=0.9)
    cfg = LearnerConfig("P", 2, 1.0, Strategy((0,), 2), Strategy((0,), 2), 10)
    state = make_learner(game, cfg)
    mix = MixedStrategy(game, np.array([0.5, 0.0, 0.5]))
    step(state, mix)
    np.testing.assert_allclose(state.cumulative, [0.5, 0.25, 0.0], atol=1e-12)


def test_step_horizon_budget():
    game = GameConfig(rounds=1, grid=4, delta=0.9)
    state = make_learner(game, _lcfg(horizon=2))
    step(state, Strategy((2,), 4))
    step(state, Strategy((2,), 4))
    with pytest.raises(HorizonExceededError):
        step(state, Strategy((2,), 4))


def test_step_accumulates_feedback_vector():
    game = GameConfig(rounds=2, grid=3, delta=0.7)
    cfg = LearnerConfig(
        "R", 1, 20.0, Strategy((2, 2), 3), Strategy((1, 1), 3), 50
    )
    state = make_learner(game, cfg)
    opp = Strategy((1, 2), 3)
    step(state, opp)
    np.testing.assert_allclose(
        state.cumulative, feedback_vector(game, "R", opp).values, atol=0
    )
    step(state, opp)
    np.testing.assert_allclose(
        state.cumulative, 2 * feedback_vector(game, "R", opp).values, atol=0
    )


def test_deterministic_replay():
    game = GameConfig(rounds=2, grid=4, delta=0.8)
    plays = [
        Strategy((int(a), int(b)), 4)
        for a, b in RNG.integers(0, 5, size=(20, 2))
    ]
    results = []
    for _ in range(2):
        cfg = LearnerConfig(
            "P", 1, 30.0, Strategy((3, 1), 4), Strategy((2, 2), 4), 50
        )
        state = make_learner(game, cfg)
        seq = []
        for p in plays:
            seq.append(state.current)
            step(state, p)
        results.append(seq)
    assert results[0] == results[1]


def test_step_real_valued_play():
    """An on-grid tuple is that pure strategy, bit for bit; an off-grid one
    is scored by the value-play kernel."""
    game = GameConfig(rounds=2, grid=4, delta=0.8)
    cfg = LearnerConfig("P", 2, 0.5, Strategy((2, 2), 4), Strategy((2, 2), 4), 10)
    by_tuple, by_strategy = make_learner(game, cfg), make_learner(game, cfg)
    step(by_tuple, (0.25, 1.0))
    step(by_strategy, Strategy((1, 4), 4))
    assert np.array_equal(by_tuple.cumulative, by_strategy.cumulative)
    assert np.array_equal(by_tuple.current.weights, by_strategy.current.weights)
    off_grid = make_learner(game, cfg)
    step(off_grid, (0.3, 0.9))
    np.testing.assert_array_equal(
        off_grid.cumulative, value_play_utilities(game, "P", (0.3, 0.9))
    )
    for bad in ((0.5,), (0.5, 1.5)):
        with pytest.raises(ValueError):
            step(off_grid, bad)


def test_projection_and_step_reject_wrong_inputs():
    with pytest.raises(ValueError, match=r"expected a 2-D array of rows, got shape \(3,\)"):
        project_rows_to_simplex(np.ones(3))
    game = GameConfig(rounds=1, grid=4, delta=0.9)
    cfg = LearnerConfig("P", 1, 20.0, Strategy((2,), 4), Strategy((2,), 4), 5)
    state = make_learner(game, cfg)
    with pytest.raises(TypeError, match="opponent play must be Strategy or MixedStrategy"):
        step(state, [0.5])
    assert state.steps == 0


def test_pure_opponent_row_is_computed_once(monkeypatch):
    """A learner keeps its row against each pure opponent it has seen: a
    second step against the same strategy computes no kernel row."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return value_play_utilities(*args, **kwargs)

    for module in (game_module, ftrl_module):
        monkeypatch.setattr(module, "value_play_utilities", spy)
    game = GameConfig(rounds=2, grid=4, delta=0.8)
    cfg = LearnerConfig("R", 1, 20.0, Strategy((2, 2), 4), Strategy((2, 2), 4), 10)
    state = make_learner(game, cfg)
    opponent = Strategy((1, 3), 4)
    step(state, opponent)
    step(state, opponent)
    assert len(calls) == 1
    np.testing.assert_array_equal(
        state.cumulative, 2 * value_play_utilities(game, "R", opponent.values)
    )


# ---------------------------------------------------------------------------
# row-wise simplex projection
# ---------------------------------------------------------------------------


def _projection_reference(v):
    """The sort-based projection of one vector, written out on its own."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


def test_row_projection_kkt_on_repeated_values():
    """Rows drawn from a few levels, so most values repeat and ties sit at
    the active-set boundary; each row meets the KKT conditions, equal
    inputs get equal weights, and every row has the bits of the one-vector
    construction."""
    for scale in (0.05, 0.5, 3.0, 40.0):
        v = RNG.integers(0, 4, size=(200, 9)) * scale
        v[::7] = v[::7, :1]  # some rows constant
        w = project_rows_to_simplex(v)
        assert w.shape == v.shape
        assert (w >= 0).all()
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
        for row, weights in zip(v, w):
            support = weights > 0
            theta = row[support] - weights[support]
            assert theta.max() - theta.min() <= 1e-12
            if (~support).any():
                assert row[~support].max() <= theta.min() + 1e-12
            for level in np.unique(row):
                assert np.unique(weights[row == level]).size == 1
            assert weights.tobytes() == _projection_reference(row).tobytes()
    with pytest.raises(ValueError, match="empty"):
        project_rows_to_simplex(np.zeros((3, 0)))


def _projection_or_last(v):
    """``_projection_reference``; when no position passes the test, the
    last position, as the construction defines it."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    if (u * np.arange(1, v.size + 1) > css).any():
        return _projection_reference(v)
    return np.maximum(v - css[-1] / v.size, 0.0)


@pytest.mark.parametrize("d", [129, 289, 401, 1601, 4225])
def test_row_projection_from_the_top_entries_is_bit_for_bit(d):
    """Each array holds a row with a short top (a few entries within 1 of
    its maximum), so the projection sorts only the top k entries of every
    row.  Each row must still have the bits of the whole-row construction,
    also where those k entries cannot be trusted and the certificate sends
    the row to the full sort: rows whose support is longer than k (every
    entry within 1 of the maximum), the round-1 row (zeros and one 1.0, all
    tied at theta), constant rows, and a row with an entry of 2**54, where
    no position passes the test."""
    rng = np.random.default_rng(d)
    spiky = rng.random((4, d)) * 0.5
    for row in spiky:
        row[rng.choice(d, 3, replace=False)] += (3.0, 2.6, 2.3)
    round_one = np.zeros((1, d))
    round_one[0, d // 2] = 1.0
    huge = np.zeros((1, d))
    huge[0, 7] = 2.0 ** 54
    arrays = {
        "short tops": spiky,
        "support past k": np.vstack([spiky[:1], rng.random((2, d)) * 1e-3]),
        "round 1": np.vstack([spiky[:1], round_one]),
        "negative": np.vstack([spiky[:1], rng.normal(size=(2, d)) * 3.0 - 10.0]),
        "constant": np.vstack([spiky[:1], np.full((2, d), 0.7), np.full((1, d), -3.0)]),
        "none passes": np.vstack([spiky[:1], huge]),
    }
    for name, v in arrays.items():
        assert ftrl_module._selected_thresholds(v, v.copy()) is not None, name
        for row, weights in zip(v, project_rows_to_simplex(v)):
            assert weights.tobytes() == _projection_or_last(row).tobytes(), name


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------


def test_non_finite_weights_and_rates_rejected():
    """A NaN weight compares False with every bound and must still fail the
    check; an infinite reg=2 rate would play all-NaN weights.  The event
    engine takes an infinite rate: its handicap 2 / rate is then exactly 0."""
    game = GameConfig(rounds=1, grid=4, delta=0.9)
    for weights in (np.full(5, np.nan), [np.nan, 1.0, 0.0, 0.0, 0.0],
                    [np.inf, 0.0, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="must be finite"):
            MixedStrategy(game, np.array(weights))
    for reg in (1, 2):
        with pytest.raises(ValueError, match="rate must be finite, got inf"):
            _lcfg(reg=reg, rate=float("inf"))
    batch = batch_self_play(game, float("inf"), 20, [1, 4], [2, 0], [3, 3], [0, 4])
    assert batch.profiles.shape == (2, 20, 2)


# ---------------------------------------------------------------------------
# the row-wise update rule against references that share none of its code
# ---------------------------------------------------------------------------


def _leader_reference(row, anchor, rate):
    """The reg=1 rule for one row, as a loop over Python floats: the largest
    index whose handicapped utility is within PAYOFF_TOL of the best."""
    pen = 2.0 / rate
    obj = [c if j == anchor else c - pen for j, c in enumerate(row)]
    best = max(obj)
    return max(j for j, h in enumerate(obj) if h >= best - PAYOFF_TOL)


def _cum_for(target, pen):
    """A cumulative utility whose handicapped value c - pen is exactly
    ``target`` when one lies within a few ulps of target + pen."""
    c = target + pen
    for _ in range(4):
        if c - pen == target:
            break
        c = math.nextafter(c, math.inf if c - pen < target else -math.inf)
    return c


@settings(max_examples=200)
@given(data=st.data())
def test_next_plays_reg1_matches_per_row_loop(data):
    """Per-row anchors, gaps planted at exactly +-PAYOFF_TOL from the row's
    best handicapped utility and one ulp either side of them.  Utilities are
    multiples of 2**-10 and rates powers of two, so the anchor's utility is
    exact whether or not the handicap is taken off and added back."""
    m = data.draw(st.integers(1, 6), label="rows")
    n = data.draw(st.integers(2, 8), label="strategies")
    rate = 2.0 ** data.draw(st.integers(-3, 8), label="log2_rate")
    pen = 2.0 / rate
    cum = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 1 << 16), min_size=n, max_size=n),
        min_size=m, max_size=m,
    ), label="cum_units")) / 1024.0
    anchors = np.array(data.draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m), label="anchors"
    ))
    for r in range(m):
        best = max(c if j == anchors[r] else c - pen for j, c in enumerate(cum[r]))
        edges = [best, best - PAYOFF_TOL, best + PAYOFF_TOL]
        targets = edges + [math.nextafter(e, d) for e in edges[1:]
                           for d in (-math.inf, math.inf)]
        for j in range(n):
            if j != anchors[r] and data.draw(st.booleans(), label="plant"):
                target = data.draw(st.sampled_from(targets), label="target")
                cum[r, j] = _cum_for(target, pen)
    got = next_plays(cum, anchors, rate, 1)
    want = [_leader_reference(list(cum[r]), anchors[r], rate) for r in range(m)]
    assert got.tolist() == want


@settings(max_examples=200)
@given(data=st.data())
def test_next_plays_reg2_meets_kkt_conditions(data):
    """Each row of weights is the projection of anchor + rate * cum onto the
    simplex by the KKT conditions: weights >= 0 summing to 1, one shift
    theta with w = v - theta on the support, and v <= theta off it.  Few
    utility levels make ties at the support's boundary common."""
    m = data.draw(st.integers(1, 6), label="rows")
    n = data.draw(st.integers(1, 8), label="strategies")
    rate = data.draw(st.floats(1e-3, 300.0), label="rate")
    levels = data.draw(st.integers(1, 1 << 16), label="levels")
    cum = np.array(data.draw(st.lists(
        st.lists(st.integers(0, levels), min_size=n, max_size=n),
        min_size=m, max_size=m,
    ), label="cum_units")) * (64.0 / levels)
    anchors = data.draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m), label="anchors"
    )
    w = next_plays(cum, np.array(anchors), rate, 2)
    assert w.shape == (m, n)
    for r in range(m):
        v = [rate * c + (1.0 if j == anchors[r] else 0.0) for j, c in enumerate(cum[r])]
        tol = 4 * n * np.finfo(float).eps * max(1.0, max(abs(x) for x in v))
        assert (w[r] >= 0).all()
        assert abs(math.fsum(w[r]) - 1.0) <= n * tol
        support = [j for j in range(n) if w[r, j] > 0]
        theta = [v[j] - w[r, j] for j in support]
        assert support and max(theta) - min(theta) <= tol
        assert all(v[j] <= min(theta) + tol for j in range(n) if j not in support)
