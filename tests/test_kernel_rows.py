"""Self-play without payoff tables.

The event engine and its convergence detector read one side's kernel rows,
computed once per opponent played (``dynamics._KernelRows``).  The dense
tables of ``game.payoff_matrices`` stay the oracle: every stored row must
equal the table's column (P) or row (R) bit for bit, and the detector must
decide as it did when it read the tables.  The in-place ``_leave_offset`` is
checked against the expression it replaced.  At the CLI, a reg=1 ``run`` or
``sweep`` builds no table, so a three-round sweep whose tables would need
20 GB runs in a child capped at 2 GiB.
"""

import csv
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bargainlab.cli import main
from bargainlab.dynamics import (
    _KernelRows,
    _as_pure,
    _detect_batch,
    _leave_offset,
    _self_play_stepwise,
)
from bargainlab.ftrl import LearnerConfig, MixedStrategy, handicapped
from bargainlab.game import (
    PAYOFF_TOL,
    GameConfig,
    Strategy,
    _agreements,
    _entries_matrix,
    payoff_matrices,
    strategy_index,
)

MAX_GRID = {1: 9, 2: 6, 3: 3}

games = st.integers(1, 3).flatmap(
    lambda rounds: st.builds(
        GameConfig,
        st.just(rounds),
        st.integers(1, MAX_GRID[rounds]),
        st.sampled_from([1.0, 0.9, 0.83, 0.5]),
    )
)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


# ---------------------------------------------------------------------------
# the row store is the table
# ---------------------------------------------------------------------------


@settings(max_examples=60)
@given(game=games, data=st.data())
def test_rows_are_the_table_bit_for_bit(game, data):
    """Rows asked for in several calls, with repeats, equal the table; rows
    stored by earlier calls survive the store's growth unchanged."""
    n = game.strategy_count
    U_P, U_R = payoff_matrices(game)
    tables = {"P": U_P.T, "R": U_R}
    stores = {owner: _KernelRows(game, owner) for owner in tables}
    calls = data.draw(st.lists(
        st.lists(st.integers(0, n - 1), max_size=12), min_size=1, max_size=5,
    ))
    seen = set()
    for call in calls:
        opponents = np.array(call, dtype=np.int64)
        seen.update(call)
        everyone = np.array(sorted(seen), dtype=np.int64)
        for owner, store in stores.items():
            table = tables[owner]
            assert (bits(store.of(opponents)) == bits(table[opponents])).all()
            assert store.count == len(seen)
            assert (bits(store.of(everyone)) == bits(table[everyone])).all()
            best = store.best()[store.slots(everyone)]
            assert (bits(best) == bits(table[everyone].max(axis=1))).all()


def _table_detect(game, profiles):
    """The detector's decisions read from the dense tables, as it read them
    before the row store: (converged_at, ne_value, ne_round, payoff_P,
    payoff_R)."""
    B, T, _ = profiles.shape
    U_P, U_R = payoff_matrices(game)
    last = profiles[:, -1, :]
    i, j = last[:, 0].astype(np.int64), last[:, 1].astype(np.int64)
    mixed = (i < 0) | (j < 0)
    changed = (profiles != last[:, None, :]).any(axis=2)
    rev_first = np.argmax(changed[:, ::-1], axis=1)
    t_prime = np.where(changed.any(axis=1), T - rev_first + 1, 1)
    pays_P, pays_R = U_P[i, j], U_R[i, j]
    is_ne = (pays_P >= U_P.max(axis=0)[j] - PAYOFF_TOL) & (
        pays_R >= U_R.max(axis=1)[i] - PAYOFF_TOL
    )
    settled = is_ne & ~mixed & ((t_prime < T) | (T == 1))
    em = _entries_matrix(game)
    rounds, offer = _agreements(em[i], em[j])
    return (
        np.where(settled, t_prime, -1),
        np.where(settled & (rounds > 0), offer / game.grid, np.nan),
        np.where(settled, rounds, 0),
        np.where(mixed, np.nan, pays_P),
        np.where(mixed, np.nan, pays_R),
    )


def assert_detects_as_tables(game, profiles):
    got = _detect_batch(game, profiles)
    want = _table_detect(game, profiles)
    assert (got.converged_at == want[0]).all()
    assert (bits(got.ne_value) == bits(want[1])).all()
    assert (got.ne_round == want[2]).all()
    assert (bits(got.payoff_P) == bits(want[3])).all()
    assert (bits(got.payoff_R) == bits(want[4])).all()
    return got


@settings(max_examples=60)
@given(game=games, data=st.data())
def test_detector_decides_as_the_tables(game, data):
    """Random index logs, -1 (a mixture) included in any position."""
    n = game.strategy_count
    B, T = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
    profiles = data.draw(hnp.arrays(
        np.int32, (B, T, 2), elements=st.integers(-1, n - 1),
    ))
    assert_detects_as_tables(game, profiles)


def test_stepwise_log_ending_mixed_detects_as_the_tables():
    """The stepwise route's log of a reg=2 pair that ends on a mixture: the
    detector builds its own rows on demand and reads -1 as no play."""
    game = GameConfig(rounds=1, grid=8, delta=0.9)

    def learner(owner, initial, anchor):
        return LearnerConfig(
            owner=owner, reg=2, rate=5.0, horizon=15,
            anchor=Strategy((anchor,), 8), initial=Strategy((initial,), 8),
        )

    profiles = _self_play_stepwise(game, learner("P", 6, 5), learner("R", 4, 7))
    assert isinstance(profiles[-1][0], MixedStrategy)
    log = np.array([[
        [-1 if s is None else strategy_index(game, s) for s in map(_as_pure, pair)]
        for pair in profiles
    ]], dtype=np.int32)
    assert (log[0, -1] == -1).any()
    got = assert_detects_as_tables(game, log)
    assert got.converged_at[0] == -1
    assert np.isnan(got.ne_value[0]) and got.ne_round[0] == 0
    assert np.isnan(got.payoff_P[0]) and np.isnan(got.payoff_R[0])


# ---------------------------------------------------------------------------
# _leave_offset computes in place what it computed before
# ---------------------------------------------------------------------------


def _leave_offset_oracle(obj, fb, cur):
    """The expression ``_leave_offset`` evaluated before it computed in
    place, copied verbatim."""
    rows, tol = np.arange(cur.size), PAYOFF_TOL
    lead = obj[rows, cur][:, None] - obj
    gain = fb - fb[rows, cur][:, None]  # per-round erosion of that lead
    above = np.arange(obj.shape[1]) > cur[:, None]
    margin = lead - np.where(above, tol, -tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = margin / gain
    x = np.where(above, np.ceil(q), np.floor(q) + 1.0)
    x = np.where(gain > 0, x, np.inf)
    x[(margin < 0) | (above & (margin == 0))] = 0.0
    return x.min(axis=1)


SCALES = [1e-300, 1e-12, 1.0, 1e12, 1e300]
# exact ties at +-PAYOFF_TOL from a zero entry, and equal entries (zero gains)
TIES = [0.0, PAYOFF_TOL, -PAYOFF_TOL, 2 * PAYOFF_TOL, -2 * PAYOFF_TOL]


def entries(scale):
    return st.one_of(
        st.sampled_from(TIES),
        st.integers(-3, 3).map(lambda k: k * scale),
        st.floats(-1.0, 1.0).map(lambda v: v * scale),
    )


@settings(max_examples=300)
@given(data=st.data())
def test_leave_offset_in_place_equals_the_expression_it_replaced(data):
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 8))
    obj_scale = data.draw(st.sampled_from(SCALES))
    fb_scale = data.draw(st.sampled_from(SCALES))
    obj = data.draw(hnp.arrays(np.float64, (m, n), elements=entries(obj_scale)))
    fb = data.draw(hnp.arrays(np.float64, (m, n), elements=entries(fb_scale)))
    cur = data.draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    fb_before = fb.copy()
    with np.errstate(over="ignore"):  # quotients of extreme scales reach inf
        want = _leave_offset_oracle(obj, fb, cur)
        got = _leave_offset(obj.copy(), fb, cur)
    assert (bits(got) == bits(want)).all()
    assert (bits(fb) == bits(fb_before)).all()


def test_leave_offset_at_every_exact_tie():
    """Each lead at or next to +-PAYOFF_TOL, against zero, negative and
    positive gains, on an index above and one below the current play."""
    leads = [0.0, PAYOFF_TOL, -PAYOFF_TOL, 2 * PAYOFF_TOL, -2 * PAYOFF_TOL]
    gains = [0.0, -1.0, 1.0, PAYOFF_TOL, 2 * PAYOFF_TOL, 5e-324]
    cases = list(itertools.product(leads, gains, leads, gains))
    obj = np.zeros((len(cases), 3))
    fb = np.zeros((len(cases), 3))
    for r, (lead_below, gain_below, lead_above, gain_above) in enumerate(cases):
        obj[r] = -lead_below, 0.0, -lead_above
        fb[r] = gain_below, 0.0, gain_above
    cur = np.ones(len(cases), dtype=np.int64)
    with np.errstate(over="ignore"):
        want = _leave_offset_oracle(obj, fb, cur)
        got = _leave_offset(obj.copy(), fb, cur)
    assert (bits(got) == bits(want)).all()


def test_leave_offset_on_handicapped_objectives():
    """The engine's inputs: handicapped cumulative rows of a real game, with
    the anchor and every index above and below the current play."""
    game = GameConfig(rounds=2, grid=4, delta=0.9)
    U_P, _ = payoff_matrices(game)
    n = game.strategy_count
    rng = np.random.default_rng(3)
    opponents = rng.integers(0, n, size=(40, 3))
    cum = U_P.T[opponents].sum(axis=1)
    fb = U_P.T[rng.integers(0, n, size=40)]
    cur, anchor = rng.integers(0, n, size=40), rng.integers(0, n, size=40)
    for rate in (3.0, 40.0, float("inf")):
        want = _leave_offset_oracle(handicapped(cum, anchor, rate), fb, cur)
        got = _leave_offset(handicapped(cum, anchor, rate), fb, cur)
        assert (bits(got) == bits(want)).all()


# ---------------------------------------------------------------------------
# the CLI's reg=1 paths build no table
# ---------------------------------------------------------------------------

LEARNING = [
    "--rounds", "2", "--delta", "0.87", "--grid", "5", "--rate", "25",
    "--reg", "1", "--horizon", "60",
    "--alpha-p", "0.2,0.6", "--alpha-r", "0.8,0.4",
]


def test_reg1_run_and_sweep_build_no_payoff_table(tmp_path):
    payoff_matrices.cache_clear()
    sweep = ["sweep", *LEARNING, "--wp-values", "0.4,1", "--wr-values", "0,0.6",
             "--jobs", "1", "--out", str(tmp_path / "cells.csv")]
    run = ["run", *LEARNING, "--wp", "1,0.2", "--wr", "0.4,0",
           "--out", str(tmp_path / "run.json")]
    assert main(sweep) in (0, 3)
    assert main(run) in (0, 3)
    assert payoff_matrices.cache_info().misses == 0
    with open(tmp_path / "cells.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 16


def test_three_round_sweep_whose_tables_need_20_gb_runs_under_2_gib(
    tmp_path, capped_cli
):
    """N = 33**3 = 35,937 strategies: dense tables would need 20 GB, and an
    engine that built them fails at once under the cap."""
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"cells-{jobs}.csv"
        done = capped_cli([
            "sweep", "--rounds", "3", "--delta", "0.9", "--grid", "32",
            "--rate", "80", "--reg", "1", "--horizon", "300",
            "--wp-values", "0.25,0.75", "--wr-values", "0.25,0.75",
            "--alpha-p", "0.5,0.5,0.5", "--alpha-r", "0.5,0.5,0.5",
            "--jobs", jobs, "--out", str(out),
        ], cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 1 + 64
