"""End-to-end acceptance criteria, one test per criterion.

Each test exercises a full pipeline at its stated tolerance and prints one
summary line with the measured numbers (shown for failing tests, and for all
tests under ``pytest -rA``).

Criteria 2 and 4 check the asymmetric 15/16 settlement of two-round reg=1
self-play from starts where the responder opens at (15/16, 1/16).  Those
starts fail ``theorem5_preconditions`` (a_p1 = 2/16 is not above
w_r1 = 15/16), so no stated guarantee bounds when they settle.  The reg=1
rule subtracts the same ``2/rate`` handicap from every non-anchor strategy,
so between two strategy switches the proposer's choice between two
non-anchor plays is decided by their cumulative utilities alone: the switch
comes when its cumulative lead, divided by the per-step erosion of that
lead, runs out.  On these starts that lands after step 300 (between t'=367
and t'=799).  Both tests therefore assert the settlement time against
``_exact_self_play``, an integer replay of the learning rule that shares no
code with the event-driven engine, at horizons long enough for every such
run to settle.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from bargainlab.dynamics import (
    batch_self_play,
    classify_g1,
    external_regret,
    make_adversary,
    self_play,
    theorem5_preconditions,
)
from bargainlab.ftrl import (
    LearnerConfig,
    make_learner,
    project_rows_to_simplex,
    step,
)
from bargainlab.game import (
    GameConfig,
    Strategy,
    all_strategies,
    feedback_vector,
    is_pure_ne,
    play,
    strategy_index,
)
from bargainlab.spe import (
    MarketParams,
    MultiMarketParams,
    construct_certificate,
    expected_match_payoffs,
    multi_constraint_rhs,
    multi_discriminatory,
    multi_feasible,
    one_shot_deviation_scan,
    payoff_gaps,
    prop2_check,
    sample_feasible_instance,
    w_bounds,
    w1_lower_bound,
)

G1 = GameConfig(rounds=1, grid=8, delta=0.9)
G2 = GameConfig(rounds=2, grid=16, delta=0.9)


def _report(criterion: int, ok: bool, detail: str) -> str:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def _indices(game: GameConfig, cells) -> np.ndarray:
    return np.array(
        [strategy_index(game, Strategy(c, game.grid)) for c in cells],
        dtype=np.int64,
    )


def _exact_self_play(
    game: GameConfig,
    rate: float,
    horizon: int,
    initial_P: np.ndarray,
    initial_R: np.ndarray,
    anchor_P: np.ndarray,
    anchor_R: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Reg=1 self-play replayed one step at a time in exact integers.

    An oracle for ``batch_self_play`` that shares no code with it.  The
    payoff tables are rebuilt here from the game's rules.  Every payoff
    ``delta**(k-1) * share`` and the handicap ``2/rate`` are scaled by one
    common denominator, with delta read as the decimal it is written as
    (``Fraction(str(delta))``), so every cumulative objective is an exact
    integer.  Each step both learners select the largest flat index among
    the exact maxima of their handicapped objective, with no tolerance.

    Returns the (B, T, 2) profiles and, per cell, the settlement time t':
    the 1-based step after the last change of joint play (1 when play never
    changes), or -1 unless the final profile is an exact pure equilibrium
    held for more than the final step.

    The late switches of criteria 2 and 4 are exact ties at delta = 9/10.
    In reference run B the proposer's (8/16, 1/16) leads (15/16, 1) by
    419/160 after step 7 and the lead erodes by 1/160 per step, so the two
    tie after 419 more steps and the larger index takes over at t'=427.
    Taken at its binary float value, delta makes that quotient
    419 + 9.3e-14, and an exact comparison would switch one step later
    (t'=428).  The engine reaches 427 because its 1e-9 tie band covers the
    float error.
    """
    D, rounds = game.grid, game.rounds
    delta = Fraction(str(game.delta))
    handicap = Fraction(2) / Fraction(rate)
    weights = [delta**k / D for k in range(rounds)]
    scale = math.lcm(*(w.denominator for w in weights), handicap.denominator)
    pen = int(handicap * scale)

    # flat strategy order is lexicographic in the round entries
    entries = np.array(
        list(product(range(D + 1), repeat=rounds)), dtype=np.int64
    )
    n = len(entries)
    U_P = np.zeros((n, n), dtype=np.int64)
    U_R = np.zeros((n, n), dtype=np.int64)
    open_ = np.ones((n, n), dtype=bool)
    for k in range(rounds):
        coef = int(weights[k] * scale)
        own = entries[:, k]
        if k % 2 == 0:  # P offers its entry, R accepts at or above its own
            offer = np.broadcast_to(own[:, None], (n, n))
            deal = open_ & (own[:, None] >= own[None, :])
            U_P[deal] = coef * (D - offer[deal])
            U_R[deal] = coef * offer[deal]
        else:  # R offers its entry, P accepts at or above its own
            offer = np.broadcast_to(own[None, :], (n, n))
            deal = open_ & (own[None, :] >= own[:, None])
            U_R[deal] = coef * (D - offer[deal])
            U_P[deal] = coef * offer[deal]
        open_ &= ~deal

    B = len(initial_P)
    rows = np.arange(B)

    def select(cum: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        obj = cum - pen
        obj[rows, anchor] += pen
        return n - 1 - np.argmax(obj[:, ::-1], axis=1)

    cur_P, cur_R = np.array(initial_P), np.array(initial_R)
    cum_P = np.zeros((B, n), dtype=np.int64)
    cum_R = np.zeros((B, n), dtype=np.int64)
    profiles = np.empty((B, horizon, 2), dtype=np.int64)
    for t in range(horizon):
        profiles[:, t, 0], profiles[:, t, 1] = cur_P, cur_R
        cum_P += U_P[:, cur_R].T
        cum_R += U_R[cur_P, :]
        cur_P, cur_R = select(cum_P, anchor_P), select(cum_R, anchor_R)

    switched = (profiles[:, 1:] != profiles[:, :-1]).any(axis=2)
    # 0-based step at which the final joint play begins
    final_start = np.where(
        switched.any(axis=1),
        horizon - 1 - np.argmax(switched[:, ::-1], axis=1),
        0,
    )
    i, j = profiles[:, -1, 0], profiles[:, -1, 1]
    is_ne = (U_P[i, j] == U_P[:, j].max(axis=0)) & (
        U_R[i, j] == U_R[i, :].max(axis=1)
    )
    settled = is_ne & (final_start < horizon - 1)
    return profiles, np.where(settled, final_start + 1, -1)


def test_criterion_1_one_round_exhaustive_replay():
    """All 2401 interior 4-tuples at D=8, M=20 settle exactly as classified.

    Zero tolerance: the settled share must equal min(w_r1, w_p1, alpha_r)
    on the nose and the settling time must equal the classifier's predicted
    t' for every tuple.
    """
    interior = [i / 8 for i in range(1, 8)]
    tuples = [
        (wp, wr, ap, ar)
        for wp in interior for wr in interior
        for ap in interior for ar in interior
    ]
    result = batch_self_play(
        G1, 20.0, 60,
        _indices(G1, [(int(t[0] * 8),) for t in tuples]),
        _indices(G1, [(int(t[1] * 8),) for t in tuples]),
        _indices(G1, [(int(t[2] * 8),) for t in tuples]),
        _indices(G1, [(int(t[3] * 8),) for t in tuples]),
    )
    mismatches = []
    for k, (wp, wr, ap, ar) in enumerate(tuples):
        predicted = classify_g1(G1, wp, wr, ap, ar, 20.0)
        expected_value = min(wr, wp, ar)
        if not (
            result.converged_at[k] == predicted.predicted_t_prime
            and result.ne_value[k] == float(predicted.predicted_value)
            and result.ne_value[k] == expected_value
        ):
            mismatches.append(tuples[k])
    detail = (
        f"{len(tuples) - len(mismatches)}/{len(tuples)} interior tuples "
        f"match the classifier exactly (time and value, zero tolerance)"
    )
    line = _report(1, not mismatches, detail)
    assert not mismatches, line


def test_criterion_2_reference_runs_at_stated_horizon():
    """Two documented reference runs at delta=0.9, D=16, M=40.

    Run A (responder starts at (1/16, 1)) settles at value 1/16 within
    T=300.  Run B (responder starts at (15/16, 1/16), the second entry being
    the nearest grid point to 1/(16*0.9) — the only rounding under which a
    15/16 settlement is an equilibrium at all) settles at value 15/16, at
    the step the exact oracle predicts.

    Run B fails ``theorem5_preconditions``, and its settlement time follows
    from the lead-over-erosion argument: from t=8 play sits on the dwell
    profile ((8/16, 1/16), (15/16, 1/16)).  At the end of t=7 the proposer's
    (8/16, 1/16) leads (15/16, 1) by 6*7/16 - 1/160 = 419/160.  Against the
    responder's (15/16, 1/16), (8/16, 1/16) pays delta/16 and (15/16, 1)
    pays 1/16, so the lead shrinks by 1/160 per step and reaches exactly 0
    after 419 steps; the larger-index tie rule then picks (15/16, 1), at
    t'=8+419=427.  So at T=300 run B is unconverged and still on the dwell
    profile, and at T=500 it settles at the oracle's t'.
    """
    def reference_run(wr_entries, horizon):
        proposer = LearnerConfig(
            owner="P", reg=1, rate=40.0, anchor=Strategy((2, 6), 16),
            initial=Strategy((8, 8), 16), horizon=horizon,
        )
        responder = LearnerConfig(
            owner="R", reg=1, rate=40.0, anchor=Strategy((9, 14), 16),
            initial=Strategy(wr_entries, 16), horizon=horizon,
        )
        return self_play(G2, proposer, responder)

    run_a = reference_run((1, 16), 300)
    assert run_a.converged_at is not None and run_a.ne_value == 1 / 16, (
        f"run A: expected settlement at 1/16, got {run_a.ne_value!r} "
        f"(t'={run_a.converged_at!r})"
    )

    assert not theorem5_preconditions(
        G2, Strategy((8, 8), 16), Strategy((15, 1), 16),
        Strategy((2, 6), 16), Strategy((9, 14), 16),
    ), "run B unexpectedly meets the sufficient conditions"
    run_b_cells = [(8, 8), (15, 1), (2, 6), (9, 14)]
    _, oracle_t = _exact_self_play(
        G2, 40.0, 500, *(_indices(G2, [c]) for c in run_b_cells)
    )
    t_switch = int(oracle_t[0])
    run_b = reference_run((15, 1), 300)
    run_b_long = reference_run((15, 1), 500)
    dwell = (Strategy((8, 1), 16), Strategy((15, 1), 16))
    ok = (
        run_b.converged_at is None
        and run_b.profiles[-1] == dwell
        and t_switch > 300
        and run_b_long.converged_at == t_switch
        and run_b_long.ne_value == 15 / 16
    )
    detail = (
        f"run A settles at 1/16 (t'={run_a.converged_at}); run B at T=300 "
        f"{'is' if run_b.converged_at is None else 'is not'} unconverged on "
        f"{tuple(s.entries for s in run_b.profiles[-1])}, at T=500 settles "
        f"at value {run_b_long.ne_value} with t'={run_b_long.converged_at} "
        f"(exact oracle: switch at t'={t_switch})"
    )
    line = _report(2, ok, detail)
    assert ok, line


def test_criterion_3_precondition_samples_all_converge():
    """500 sampled initial conditions passing the sufficient-condition
    check (delta=0.9, D=16 > 1/(1-delta), M=40) all settle within T=300;
    the required failure count is exactly 0."""
    rng = np.random.default_rng(5)
    found = []
    while len(found) < 500:
        row = rng.integers(1, 16, size=8)
        wp = Strategy((int(row[0]), int(row[1])), 16)
        wr = Strategy((int(row[2]), int(row[3])), 16)
        ap = Strategy((int(row[4]), int(row[5])), 16)
        ar = Strategy((int(row[6]), int(row[7])), 16)
        if theorem5_preconditions(G2, wp, wr, ap, ar):
            found.append((wp, wr, ap, ar))
    result = batch_self_play(
        G2, 40.0, 300,
        np.array([strategy_index(G2, f[0]) for f in found]),
        np.array([strategy_index(G2, f[1]) for f in found]),
        np.array([strategy_index(G2, f[2]) for f in found]),
        np.array([strategy_index(G2, f[3]) for f in found]),
    )
    failures = int((~result.converged).sum())
    detail = (
        f"{500 - failures}/500 qualifying samples settle within T=300 "
        f"(latest at t'={int(result.converged_at.max())})"
    )
    line = _report(3, failures == 0, detail)
    assert failures == 0, line


def test_criterion_4_initials_sweep_contrast_and_full_convergence():
    """Full 64x64 sweep (M=40, D=16, anchors (2/16, 6/16) and (6/16, 14/16),
    both initial grids the odd multiples of 1/16).

    Two claims: (a) at T=300, among proposer starts with round-1 offer
    <= 3/16, the mean proposer payoff with round-2 threshold >= 13/16
    exceeds the mean with threshold <= 3/16 by at least 0.1; (b) every cell
    settles on a pure equilibrium at T=1000, and when is exact:

    * for the 64 cells whose responder starts at (15/16, 1/16) the engine's
      profiles equal the exact oracle's;
    * the cells unconverged at T=300 are exactly those for which the oracle
      predicts t' >= 300, and they settle at value 15/16;
    * every other cell settles within T=300.

    The late cells are the lead-over-erosion mechanism of reference run B in
    criterion 2: the proposer dwells on (x/16, 1/16) against (15/16, 1/16)
    until its cumulative lead over (15/16, 1) runs out, which takes
    between 367 and 799 steps depending on the start; T=1000 lies above the
    oracle's largest predicted t'.
    """
    odd = range(1, 16, 2)
    cells = [(a, b) for a in odd for b in odd]
    pairs = [(p, r) for p in cells for r in cells]
    initial_p = _indices(G2, [p for p, _ in pairs])
    initial_r = _indices(G2, [r for _, r in pairs])
    anchor_p = np.full(len(pairs), strategy_index(G2, Strategy((2, 6), 16)))
    anchor_r = np.full(len(pairs), strategy_index(G2, Strategy((6, 14), 16)))
    result = batch_self_play(
        G2, 40.0, 300, initial_p, initial_r, anchor_p, anchor_r
    )

    payoff = result.payoff_P.reshape(len(cells), len(cells))
    mean_by_proposer = payoff.mean(axis=1)
    low_offer = [k for k, c in enumerate(cells) if c[0] <= 3]
    high_threshold = [k for k in low_offer if cells[k][1] >= 13]
    low_threshold = [k for k in low_offer if cells[k][1] <= 3]
    contrast = (
        float(mean_by_proposer[high_threshold].mean())
        - float(mean_by_proposer[low_threshold].mean())
    )
    assert contrast >= 0.1, (
        f"payoff contrast between high- and low-threshold proposer starts "
        f"is {contrast:.4f}, below the required 0.1"
    )

    long_horizon = 1000
    settled = batch_self_play(
        G2, 40.0, long_horizon, initial_p, initial_r, anchor_p, anchor_r
    )
    aggressive = np.flatnonzero([r == (15, 1) for _, r in pairs])
    oracle_profiles, oracle_t = _exact_self_play(
        G2, 40.0, long_horizon, initial_p[aggressive], initial_r[aggressive],
        anchor_p[aggressive], anchor_r[aggressive],
    )
    late = aggressive[oracle_t >= 300]
    unconverged = np.flatnonzero(~result.converged)
    ok = (
        bool(settled.converged.all())
        and bool((oracle_t >= 0).all())
        and np.array_equal(settled.profiles[aggressive], oracle_profiles)
        and np.array_equal(unconverged, late)
        and bool((settled.ne_value[late] == 15 / 16).all())
    )
    late_t = oracle_t[oracle_t >= 300]
    detail = (
        f"payoff contrast {contrast:.3f} >= 0.1 at T=300; "
        f"{int(settled.converged.sum())}/{len(pairs)} cells settle at "
        f"T={long_horizon}; {unconverged.size}/{len(pairs)} cells do not "
        f"settle within T=300 — {late.size} predicted by the exact oracle, "
        f"all with responder start (15, 1), settling at value "
        f"{sorted(set(settled.ne_value[late].tolist()))} between "
        f"t'={int(late_t.min()) if late_t.size else None} and "
        f"t'={int(late_t.max()) if late_t.size else None}"
    )
    line = _report(4, ok, detail)
    assert ok, line


def test_criterion_5_certificate_pipeline_1000_samples():
    """1000 sampled feasible market targets: certificate construction
    succeeds, the stationarity check passes, the one-shot deviation scan
    (scan_grid=200, tol 1e-9) is empty, and simulated expected payoffs
    equal (p*w1+(1-p)*w2, 1-w1, 1-w2) within 1e-9."""
    rng = np.random.default_rng(17)
    failures = 0
    worst = 0.0
    for _ in range(1000):
        params, target = sample_feasible_instance(rng)
        cert = construct_certificate(params, target)
        stationary = prop2_check(cert)
        deviations = one_shot_deviation_scan(cert, scan_grid=200)
        w_f, w_c1, w_c2 = expected_match_payoffs(cert)
        expected = (
            params.p * target.w1 + (1 - params.p) * target.w2,
            1 - target.w1,
            1 - target.w2,
        )
        error = max(
            abs(w_f - expected[0]),
            abs(w_c1 - expected[1]),
            abs(w_c2 - expected[2]),
        )
        worst = max(worst, error)
        if not stationary or deviations or error > 1e-9:
            failures += 1
    detail = (
        f"{1000 - failures}/1000 sampled targets verify end to end "
        f"(worst payoff error {worst:.2e})"
    )
    line = _report(5, failures == 0, detail)
    assert failures == 0, line


def test_criterion_6_gap_formulas_on_parameter_grid():
    """On a 10x10x10 grid over (delta, tau <= delta^2/(1+delta), p), the
    boundary construction reproduces the closed-form payoff gaps
    (delta-tau)/(1-tau*p) and (delta-tau)/(1-tau) within 1e-12; the worked
    instance delta=0.9, tau=0.4, p=0.5 yields 0.625 and 0.8333..."""
    worst = 0.0
    for delta in np.linspace(0.05, 0.95, 10):
        cap = delta * delta / (1.0 + delta)
        for tau in np.linspace(0.0, cap, 10):
            for p in np.linspace(0.0, 1.0, 10):
                params = MarketParams(delta=float(delta), tau=float(tau),
                                      p=float(p))
                low, high = w_bounds(params)
                by_boundary = (
                    high - w1_lower_bound(params, high),  # candidate side
                    high - low,                           # firm side
                )
                closed_form = (
                    (delta - tau) / (1.0 - tau * p),
                    (delta - tau) / (1.0 - tau),
                )
                gaps = payoff_gaps(params)
                worst = max(
                    worst,
                    abs(by_boundary[0] - closed_form[0]),
                    abs(by_boundary[1] - closed_form[1]),
                    abs(gaps.candidate_gap - closed_form[0]),
                    abs(gaps.firm_gap - closed_form[1]),
                )
    worked = payoff_gaps(MarketParams(delta=0.9, tau=0.4, p=0.5))
    ok = (
        worst <= 1e-12
        and abs(worked.candidate_gap - 0.625) <= 1e-12
        and abs(worked.firm_gap - 5 / 6) <= 1e-12
    )
    detail = (
        f"1000 parameter points: boundary construction matches the closed "
        f"forms (worst error {worst:.2e}); worked instance gives "
        f"({worked.candidate_gap}, {worked.firm_gap})"
    )
    line = _report(6, ok, detail)
    assert ok, line


def test_criterion_7_market_matrix_bounds_10k():
    """10^4 random m-firm x n-candidate markets in the opt-out regime
    (shapes 2..4, matrix entries uniform inside (L, G)): the per-pair
    constraint RHS values satisfy L < lower < 1/2 < upper <= G, and every
    discriminatory construction passes the feasibility check."""
    rng = np.random.default_rng(77)
    failures = 0
    for _ in range(10_000):
        m, n = (int(v) for v in rng.integers(2, 5, size=2))
        delta = float(rng.uniform(0.35, 0.98))
        tau = float(rng.uniform(0.02, 0.98) * delta * delta / (1 + delta))
        low, high = w_bounds(MarketParams(delta=delta, tau=tau, p=0.5))
        p_vec = rng.uniform(0.1, 1.0, size=m)
        q_vec = rng.uniform(0.1, 1.0, size=n)
        market = MultiMarketParams(
            delta=delta, tau=tau,
            p_vec=tuple(p_vec / p_vec.sum()),
            q_vec=tuple(q_vec / q_vec.sum()),
            W=tuple(
                tuple(rng.uniform(low, high) for _ in range(n))
                for _ in range(m)
            ),
        )
        upper, lower = multi_constraint_rhs(market)
        target = int(rng.integers(0, n)) if rng.random() < 0.5 else None
        discriminatory = multi_discriminatory(
            m, n, delta=delta, tau=tau, target_candidate=target
        )
        if not (
            (upper > 0.5).all()
            and (upper <= high + 1e-12).all()
            and (lower < 0.5).all()
            and (lower > low).all()
            and multi_feasible(discriminatory)
        ):
            failures += 1
    detail = f"{10_000 - failures}/10000 sampled markets satisfy the bounds"
    line = _report(7, failures == 0, detail)
    assert failures == 0, line


def test_criterion_8_l2_normalized_regret_stays_bounded():
    """Quadratic-regularizer learner vs a fixed cycling adversary at
    D=T, M=1/sqrt(T): for T in {100, 400, 1600} the continuous-benchmark
    regret divided by sqrt(T) is positive and consecutive ratios are
    <= 1.25."""
    normalized = []
    for horizon in (100, 400, 1600):
        grid = horizon
        game = GameConfig(rounds=1, grid=grid, delta=0.9)
        config = LearnerConfig(
            owner="P", reg=2, rate=1.0 / math.sqrt(horizon),
            anchor=Strategy((grid // 2,), grid),
            initial=Strategy((grid // 2,), grid),
            horizon=horizon,
        )
        state = make_learner(game, config)
        cycle = [
            Strategy((int(0.3 * grid),), grid),
            Strategy((int(0.6 * grid),), grid),
        ]
        played, values = [], []
        for t in range(horizon):
            played.append(state.current)
            opponent = cycle[t % 2]
            values.append((opponent.entries[0] / grid,))
            step(state, opponent)
        adversary = make_adversary(game, values)
        result = external_regret(game, "P", played, adversary)
        normalized.append(result.regret_vs_continuous / math.sqrt(horizon))
    ratios = [normalized[i + 1] / normalized[i] for i in range(2)]
    ok = all(v > 0 for v in normalized) and all(r <= 1.25 for r in ratios)
    detail = (
        f"normalized regret {[round(v, 4) for v in normalized]} "
        f"(consecutive ratios {[round(r, 3) for r in ratios]})"
    )
    line = _report(8, ok, detail)
    assert ok, line


def test_criterion_9_unit_oracles():
    """Three foundational oracles: simplex-projection KKT conditions on
    1000 random vectors (tol 1e-9); counterfactual feedback vectors against
    direct play; exhaustive equilibrium detection at D <= 8, n <= 2 against
    a brute-force best-response oracle."""
    rng = np.random.default_rng(3)
    kkt_failures = 0
    for _ in range(1000):
        dim = int(rng.integers(1, 41))
        scale = float(rng.choice([0.1, 1.0, 10.0]))
        v = rng.normal(0.0, scale, size=dim)
        w = project_rows_to_simplex(v[None, :])[0]
        if w.min() < -1e-9 or abs(float(w.sum()) - 1.0) > 1e-9:
            kkt_failures += 1
            continue
        active = w > 1e-12
        if active.any():
            shifts = v[active] - w[active]
            if float(shifts.max() - shifts.min()) > 1e-9:
                kkt_failures += 1
                continue
            threshold = float(shifts.mean())
            if (v[~active] > threshold + 1e-9).any():
                kkt_failures += 1
    assert kkt_failures == 0, f"{kkt_failures} KKT failures of 1000"

    feedback_failures = 0
    for config in (
        GameConfig(rounds=1, grid=5, delta=0.9),
        GameConfig(rounds=2, grid=4, delta=0.7),
        GameConfig(rounds=3, grid=3, delta=0.8),
    ):
        strategies = all_strategies(config)
        for owner in ("P", "R"):
            for _ in range(10):
                opponent = strategies[int(rng.integers(len(strategies)))]
                vector = feedback_vector(config, owner, opponent)
                for s in strategies:
                    direct = (
                        play(config, s, opponent).payoff_P
                        if owner == "P"
                        else play(config, opponent, s).payoff_R
                    )
                    if abs(vector[s] - direct) > 1e-12:
                        feedback_failures += 1
    assert feedback_failures == 0, (
        f"{feedback_failures} feedback-vector entries disagree with play()"
    )

    ne_mismatches = 0
    profiles_checked = 0
    for rounds, grid, delta in ((1, 8, 0.9), (2, 4, 0.6), (2, 8, 0.9)):
        config = GameConfig(rounds=rounds, grid=grid, delta=delta)
        strategies = all_strategies(config)
        count = len(strategies)
        payoff_p = np.empty((count, count))
        payoff_r = np.empty((count, count))
        for i, sp in enumerate(strategies):
            for j, sr in enumerate(strategies):
                outcome = play(config, sp, sr)
                payoff_p[i, j] = outcome.payoff_P
                payoff_r[i, j] = outcome.payoff_R
        best_p = payoff_p.max(axis=0)
        best_r = payoff_r.max(axis=1)
        for i in range(count):
            for j in range(count):
                brute = (
                    payoff_p[i, j] >= best_p[j] - 1e-9
                    and payoff_r[i, j] >= best_r[i] - 1e-9
                )
                if is_pure_ne(config, strategies[i], strategies[j]) != brute:
                    ne_mismatches += 1
                profiles_checked += 1
    ok = ne_mismatches == 0
    detail = (
        f"simplex KKT 1000/1000; feedback vectors consistent; equilibrium "
        f"detector agrees with brute force on {profiles_checked} profiles"
    )
    line = _report(9, ok, detail)
    assert ok, line
