"""Self-play dynamics, convergence prediction, and external regret.

Two learners (first mover "P", second mover "R") repeatedly play the grid
bargaining game, each updating with the anchor-regularized leader rule on the
full counterfactual feedback of the round.  This module provides:

* replay of those dynamics, one pair at a time with the stepwise learners,
  and for batches of initial conditions with an event-driven engine that
  jumps from one strategy switch to the next in closed form;
* convergence detection: the smallest time from which the joint profile is
  constant through the horizon *and* is a pure equilibrium;
* a closed-form predictor for the one-round game, computed in exact rational
  arithmetic, giving the settlement value min{w_r1, w_p1, alpha_r} and the
  exact settlement time;
* sufficient-condition checks under which two-round pure self-play is
  guaranteed to settle on a pure equilibrium;
* external-regret accounting against scripted adversaries whose values are
  constrained to spaced bins, measured against both the best grid strategy
  and the best strategy from a finite continuous candidate set, and a
  schedule engine that plays one learner over an adversary's whole
  schedule from value-play kernel rows, without payoff tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from bargainlab.ftrl import (
    LearnerConfig,
    Play,
    _check_rate,
    _scored_values,
    handicapped,
    make_learner,
    next_plays,
    step,
)
from bargainlab.game import (
    PAYOFF_TOL,
    GameConfig,
    Strategy,
    _KernelRows,
    _agreements,
    _check_owner,
    _entries_matrix,
    is_pure_ne,
    payoff_matrices,
    play as play_game,
    snap_share,
    strategy_from_index,
    strategy_index,
    value_play_utilities,
)

# ---------------------------------------------------------------------------
# batched self-play
# ---------------------------------------------------------------------------


@dataclass
class BatchResult:
    """Vectorized self-play outcomes for a batch of initial-condition pairs.

    profiles[b, t] holds the flat strategy indices (P, R) played at round t+1,
    -1 for a genuine mixture.
    converged_at[b] is the 1-based smallest time from which the profile is
    constant through the horizon, when the final profile is a pure
    equilibrium and that constancy covers more than just the final step;
    otherwise -1.  ne_value[b] is the accepted share of that equilibrium
    (NaN when not converged or when the equilibrium reaches no agreement).
    payoff_P / payoff_R are the payoffs of the final profile regardless of
    convergence (NaN when it is mixed).
    """

    game: GameConfig
    profiles: np.ndarray  # (B, T, 2) int32
    converged_at: np.ndarray  # (B,) int32, -1 when not converged
    ne_value: np.ndarray  # (B,) float64, NaN when unavailable
    ne_round: np.ndarray  # (B,) int32, 0 when no agreement / not converged
    payoff_P: np.ndarray  # (B,) float64
    payoff_R: np.ndarray  # (B,) float64

    @property
    def converged(self) -> np.ndarray:
        return self.converged_at >= 0

    def outcomes(self) -> list[tuple]:
        """Per cell, (converged, converged_at, ne_round, ne_value, payoff_P,
        payoff_R) as Python values: -1, 0 and NaN read as None, except that
        NaN payoffs (a mixed final play) stay NaN."""
        return [
            (t >= 0, t if t >= 0 else None, k or None,
             None if math.isnan(v) else v, p, r)
            for t, k, v, p, r in zip(
                self.converged_at.tolist(), self.ne_round.tolist(),
                self.ne_value.tolist(), self.payoff_P.tolist(), self.payoff_R.tolist(),
            )
        ]


#: Byte budget of one (rows x strategies) float64 array: the cells the event
#: engine plays together, or the rounds a schedule plays together.  Working
#: memory grows neither with the batch nor with the horizon.
_BLOCK_BYTES = 1 << 19


def _block_rows(width: int) -> int:
    """Rows per block of (rows x width) float64 arrays."""
    return max(1, _BLOCK_BYTES // (8 * width))


def batch_self_play(
    game: GameConfig,
    rate: float | tuple[float, float],
    horizon: int,
    initial_P: np.ndarray,
    initial_R: np.ndarray,
    anchor_P: np.ndarray,
    anchor_R: np.ndarray,
) -> BatchResult:
    """Run pure-play (reg=1) self-play for many initial conditions at once.

    All four strategy arguments are arrays of flat strategy indices with a
    common length B.  ``rate`` is one rate for both learners or a
    ``(rate_P, rate_R)`` pair.  The selection rule is :func:`ftrl.next_plays`
    with ``reg=1`` at each learner's own rate: the largest index whose
    handicapped cumulative utility is within ``PAYOFF_TOL`` of the maximum.

    The engine is event-driven.  While both plays stay fixed, every
    objective grows along a straight line, so the first step at which
    either learner's selection can leave its current play is a closed-form
    minimum over the N strategies (floor/ceil with the ``PAYOFF_TOL`` margin,
    so exact ties landing on a step resolve as the rule resolves them).
    Each cell jumps to that step in one move and selects again.  A jump
    never passes a step at which the rule would switch; it may stop short,
    which costs one more event that re-selects the same play.  Cost
    per cell is O((switches + 1) * N), independent of the horizon.  No
    payoff table is built: each side's feedback rows are computed once per
    opponent played and kept for the whole call (:class:`_KernelRows`).  The
    cumulative sums are formed as ``count * feedback`` rather than one
    addition per step, so they match the stepwise learner up to float
    rounding, far inside ``PAYOFF_TOL``.
    """
    iP = np.asarray(initial_P, dtype=np.int64)
    iR = np.asarray(initial_R, dtype=np.int64)
    aP = np.asarray(anchor_P, dtype=np.int64)
    aR = np.asarray(anchor_R, dtype=np.int64)
    if not (iP.shape == iR.shape == aP.shape == aR.shape) or iP.ndim != 1:
        raise ValueError("index arrays must share one common length")
    n = game.strategy_count
    for arr in (iP, iR, aP, aR):
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("strategy index out of range")
    if not isinstance(horizon, int) or horizon < 1:
        raise ValueError("horizon must be a positive integer")
    rate_P, rate_R = rate if isinstance(rate, tuple) else (rate, rate)
    for r in (rate_P, rate_R):
        _check_rate(r)

    B = iP.shape[0]
    rows_P, rows_R = _KernelRows(game, "P"), _KernelRows(game, "R")
    block = _block_rows(n)
    profiles = np.empty((B, horizon, 2), dtype=np.int32)
    for lo in range(0, B, block):
        part = slice(lo, lo + block)
        profiles[part] = _play_block(
            rows_P, rows_R, rate_P, rate_R, horizon,
            iP[part], iR[part], aP[part], aR[part],
        )
    return _detect_batch(game, profiles, (rows_P, rows_R))


def _play_block(
    rows_P: _KernelRows,
    rows_R: _KernelRows,
    rate_P: float,
    rate_R: float,
    T: int,
    cur_P: np.ndarray,
    cur_R: np.ndarray,
    anc_P: np.ndarray,
    anc_R: np.ndarray,
) -> np.ndarray:
    """Dense (cells, T, 2) profiles of one block, played event by event.

    An event is a round at which a cell's joint play is (re)selected; it is
    logged as (cell, start round, P, R) and expanded once at the end.
    """
    m, n = cur_P.size, rows_P.slot.size
    cells = np.arange(m)
    t = np.zeros(m, dtype=np.int64)
    cum_P = np.zeros((m, n))
    cum_R = np.zeros((m, n))
    log = [(cells, t, cur_P, cur_R)]
    while cells.size:
        # the round at t is played: both learners observe it
        fb_P = rows_P.of(cur_R)
        fb_R = rows_R.of(cur_P)
        cum_P += fb_P
        cum_R += fb_R
        left = T - 1 - t
        jump = np.minimum(
            np.minimum(
                _leave_offset(handicapped(cum_P, anc_P, rate_P), fb_P, cur_P),
                _leave_offset(handicapped(cum_R, anc_R, rate_R), fb_R, cur_R),
            ),
            left,
        ).astype(np.int64)
        go = jump < left
        cells, t, jump = cells[go], t[go], jump[go]
        anc_P, anc_R = anc_P[go], anc_R[go]
        # the same plays repeat for `jump` more rounds, then both select
        cum_P = cum_P[go] + jump[:, None] * fb_P[go]
        cum_R = cum_R[go] + jump[:, None] * fb_R[go]
        t = t + jump + 1
        cur_P = next_plays(cum_P, anc_P, rate_P, 1)
        cur_R = next_plays(cum_R, anc_R, rate_R, 1)
        log.append((cells, t, cur_P, cur_R))

    cell, start, play_P, play_R = (np.concatenate(col) for col in zip(*log))
    order = np.lexsort((start, cell))
    cell, start = cell[order], start[order]
    end = np.append(start[1:], T)
    end[np.flatnonzero(cell[1:] != cell[:-1])] = T
    plays = np.stack([play_P[order], play_R[order]], axis=1).astype(np.int32)
    return np.repeat(plays, end - start, axis=0).reshape(m, T, 2)


def _leave_offset(obj: np.ndarray, fb: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Smallest x >= 0 at which ``obj + x * fb`` may stop selecting ``cur``.

    Per row, ``cur`` stays selected while it leads every larger index by
    more than ``tol = PAYOFF_TOL`` and trails no smaller index by more than
    ``tol``; these pairwise conditions imply the selection rule, so the offset
    returned is never later than the rule's first switch.  np.inf when no
    strategy ever catches up.  ``obj`` is overwritten: callers pass the fresh
    array :func:`ftrl.handicapped` returns.
    """
    rows, tol = np.arange(cur.size), PAYOFF_TOL
    above = np.arange(obj.shape[1]) > cur[:, None]
    below = ~above
    # an index above takes over once lead - x*gain <= tol, one below once
    # lead - x*gain < -tol; margin is the lead less that bound
    margin = np.subtract(obj[rows, cur][:, None], obj, out=obj)
    np.subtract(margin, tol, out=margin, where=above)
    np.add(margin, tol, out=margin, where=below)
    gain = fb - fb[rows, cur][:, None]  # per-round erosion of that lead
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.divide(margin, gain)
    np.ceil(x, out=x, where=above)
    np.floor(x, out=x, where=below)
    np.add(x, 1.0, out=x, where=below)
    x[~(gain > 0)] = np.inf
    x[(margin < 0) | (above & (margin == 0))] = 0.0
    return x.min(axis=1)


def _detect_batch(
    game: GameConfig,
    profiles: np.ndarray,
    rows: tuple[_KernelRows, _KernelRows] | None = None,
) -> BatchResult:
    """Convergence detection and final-profile bookkeeping for a batch.

    Payoffs and best responses are read from the kernel rows of the final
    plays, ``rows`` (P's, R's) when the engine already holds them.  -1 in a
    profile marks a genuine mixture.  A cell ending on one is not converged
    and gets NaN payoffs; its rows are read at index 0 and ignored.
    """
    B, T, _ = profiles.shape
    rows_P, rows_R = rows or (_KernelRows(game, "P"), _KernelRows(game, "R"))
    last = profiles[:, -1, :]
    mixed = (last < 0).any(axis=1)
    i, j = np.where(last < 0, 0, last).astype(np.int64).T

    changed = (profiles != last[:, None, :]).any(axis=2)  # (B, T)
    rev_first = np.argmax(changed[:, ::-1], axis=1)
    any_change = changed.any(axis=1)
    t_prime = np.where(any_change, T - rev_first + 1, 1).astype(np.int32)

    slot_P, slot_R = rows_P.slots(j), rows_R.slots(i)
    pays_P = rows_P.rows[slot_P, i]
    pays_R = rows_R.rows[slot_R, j]
    is_ne = (pays_P >= rows_P.best()[slot_P] - PAYOFF_TOL) & (
        pays_R >= rows_R.best()[slot_R] - PAYOFF_TOL
    )
    settled = is_ne & ~mixed & ((t_prime < T) | (T == 1))

    converged_at = np.where(settled, t_prime, -1).astype(np.int32)
    em = _entries_matrix(game)
    rounds, offer = _agreements(em[i], em[j])
    value = np.where(settled & (rounds > 0), offer / game.grid, np.nan)
    ne_round = np.where(settled, rounds, 0).astype(np.int32)
    return BatchResult(
        game=game,
        profiles=profiles,
        converged_at=converged_at,
        ne_value=value,
        ne_round=ne_round,
        payoff_P=np.where(mixed, np.nan, pays_P),
        payoff_R=np.where(mixed, np.nan, pays_R),
    )


# ---------------------------------------------------------------------------
# single-pair self-play
# ---------------------------------------------------------------------------


@dataclass
class TrajectoryRecord:
    """One self-play run: the joint plays of both agents plus convergence data.

    profiles[t] is the joint play of round t+1 (pure strategies under reg=1,
    mixed under reg=2).  converged_at is the smallest 1-based time from which
    the joint profile is constant through the horizon and is a pure
    equilibrium — a window covering only the final step does not count; None
    when that never happens.  ne_value is the accepted share of that
    equilibrium (None when not converged or when the equilibrium reaches no
    agreement).  payoff_P / payoff_R are the payoffs of the final profile.
    """

    game: GameConfig
    proposer_config: LearnerConfig
    responder_config: LearnerConfig
    profiles: list[tuple[Play, Play]]
    converged_at: int | None
    ne_profile: tuple[Strategy, Strategy] | None
    ne_value: float | None
    ne_round: int | None
    payoff_P: float
    payoff_R: float

    @property
    def horizon(self) -> int:
        return len(self.profiles)


def _as_pure(play_: Play) -> Strategy | None:
    """The pure strategy a play amounts to, or None for a genuine mixture."""
    if isinstance(play_, Strategy):
        return play_
    w = play_.weights
    k = int(np.argmax(w))
    if w[k] >= 1.0 - PAYOFF_TOL:
        return strategy_from_index(play_.cfg, k)
    return None


def detect_convergence(
    game: GameConfig,
    record: Union["TrajectoryRecord", Sequence[tuple[Play, Play]]],
) -> tuple[int, tuple[Strategy, Strategy], float | None] | None:
    """Smallest 1-based t from which play is a constant pure equilibrium.

    Tests use this play-by-play version as the reference for the batch
    detector, which :func:`self_play` and the engine run.

    ``record`` may be a TrajectoryRecord or a raw sequence of joint plays.
    The joint profile must be (numerically) pure and identical from t through
    the end of the run, that profile must be a pure equilibrium of the stage
    game, and the constant window must cover more than just the final step
    (a run that merely ends on an equilibrium it just arrived at does not
    count).  Returns (t, profile, accepted share) — the share is None for an
    equilibrium reaching no agreement — or None.
    """
    profiles = record.profiles if isinstance(record, TrajectoryRecord) else record
    if len(profiles) == 0:
        return None
    pure = [(_as_pure(p), _as_pure(r)) for p, r in profiles]
    last = pure[-1]
    if last[0] is None or last[1] is None:
        return None
    if not is_pure_ne(game, last[0], last[1]):
        return None
    t = len(pure)
    while t >= 2 and pure[t - 2] == last:
        t -= 1
    if t == len(pure) and len(pure) >= 2:
        return None
    value = play_game(game, last[0], last[1]).responder_share
    return t, last, value


def self_play(
    game: GameConfig,
    proposer_config: LearnerConfig,
    responder_config: LearnerConfig,
) -> TrajectoryRecord:
    """Run two learners against each other for their common horizon.

    Each step both agents observe the opponent's play of that step and update
    simultaneously.  Both configs must agree on the horizon.  Pure-play pairs
    (reg=1 on both sides, at each learner's own rate) go through the
    event-driven batch engine; a pair with a reg=2 learner runs the stepwise
    learners directly.
    Either way the recorded profiles are what each learner actually played,
    and convergence is decided by the batch detector on their indices.
    """
    pc, rc = proposer_config, responder_config
    if pc.owner != "P" or rc.owner != "R":
        raise ValueError("configs must be for owners 'P' and 'R' respectively")
    if pc.horizon != rc.horizon:
        raise ValueError("both learners must share one horizon")

    pure_play = pc.reg == rc.reg == 1
    if pure_play:
        starts = (pc.initial, rc.initial, pc.anchor, rc.anchor)
        batch = batch_self_play(
            game, (pc.rate, rc.rate), pc.horizon,
            *(np.array([strategy_index(game, s)]) for s in starts),
        )
        log = batch.profiles[0]
        pure = {k: strategy_from_index(game, k) for k in np.unique(log).tolist()}
        profiles = [(pure[p], pure[r]) for p, r in log.tolist()]
    else:
        profiles = _self_play_stepwise(game, pc, rc)
        log = [
            [-1 if s is None else strategy_index(game, s) for s in map(_as_pure, pair)]
            for pair in profiles
        ]
        batch = _detect_batch(game, np.array([log], dtype=np.int32))

    _, t, ne_round, ne_value, *payoffs = batch.outcomes()[0]
    if not pure_play:
        # weights a few ulps off one-hot pay a few ulps off the table entry
        payoffs = _joint_payoffs(game, *profiles[-1])
    return TrajectoryRecord(
        game, pc, rc, profiles,
        converged_at=t,
        ne_profile=None if t is None else tuple(
            strategy_from_index(game, k) for k in batch.profiles[0, -1].tolist()
        ),
        ne_value=ne_value, ne_round=ne_round,
        payoff_P=payoffs[0], payoff_R=payoffs[1],
    )


def _self_play_stepwise(
    game: GameConfig, pc: LearnerConfig, rc: LearnerConfig
) -> list[tuple[Play, Play]]:
    sp = make_learner(game, pc)
    sr = make_learner(game, rc)
    profiles: list[tuple[Play, Play]] = []
    for _ in range(pc.horizon):
        cp, cr = sp.current, sr.current
        profiles.append((cp, cr))
        step(sp, cr)
        step(sr, cp)
    return profiles


def _joint_payoffs(game: GameConfig, p: Play, r: Play) -> tuple[float, float]:
    U_P, U_R = payoff_matrices(game)
    wp = _weights_of(game, p)
    wr = _weights_of(game, r)
    return float(wp @ U_P @ wr), float(wp @ U_R @ wr)


def _weights_of(game: GameConfig, play_: Play) -> np.ndarray:
    if isinstance(play_, Strategy):
        w = np.zeros(game.strategy_count)
        w[strategy_index(game, play_)] = 1.0
        return w
    return play_.weights


# ---------------------------------------------------------------------------
# closed-form settlement prediction for the one-round game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class G1Classification:
    """Predicted fate of one-round pure self-play, in exact rationals.

    p_min is the settlement share; p_max the competing share the first mover
    may dwell on.  case is "C1" (settlement without a dwell phase, no later
    than t=3) or "C2" (the first mover dwells on p_max and switches at
    predicted_t_prime).  t_prime_bound is the exact real switching threshold
    in case C2 (None in C1); predicted_t_prime = floor(t_prime_bound) + 1
    there.
    """

    p_min: Fraction
    p_max: Fraction
    case: str
    predicted_t_prime: int
    predicted_value: Fraction
    t_prime_bound: Fraction | None = None


def classify_g1(
    game: GameConfig,
    w_p1,
    w_r1,
    alpha_p,
    alpha_r,
    rate: float,
) -> G1Classification:
    """Predict where and when one-round pure self-play settles.

    Requires a one-round game, interior grid values (strictly between 0 and
    1), and a learning rate above twice the grid denominator.  Derivation,
    with m = min(alpha_r, w_p1), p_min = min(m, w_r1), p_max = max(m, w_r1):

    * round 1 plays (w_p1, w_r1); round 2 plays (w_r1, m): the responder's
      maximizers are the thresholds at or below the observed offer, with the
      anchor winning ties when it qualifies, the largest otherwise.
    * If p_min == p_max play is constant from t=2 (from t=1 when the two
      initials coincide), and the constant profile is an equilibrium.
    * Otherwise the responder sits at p_min from t=2 on while the first
      mover weighs offering p_max (accepted since round 1, cumulative
      (t-1)(1-p_max)) against offering p_min (accepted since round 2,
      cumulative (t-2)(1-p_min)), each handicapped by 2/rate unless it is
      the anchor; ties resolve to the larger offer.  The first mover leaves
      p_max at the first t where the p_min objective strictly beats the
      p_max objective, i.e. t > t_base + eps*[alpha_p = p_max] -
      eps*[alpha_p = p_min] with t_base = (2(1-p_min)-(1-p_max)) /
      (p_max-p_min) and eps = 2/(rate*(p_max-p_min)); settlement at
      floor(bound)+1.
    * When 1-p_min > 2(1-p_max) the dwell phase never starts and
      settlement lands at t=3, as it does when the anchor equals p_min and
      1-p_min = 2(1-p_max) exactly.

    All arithmetic is exact (Fraction), so the floor is never subject to
    rounding noise.  The settled share is always p_min = min{w_r1, w_p1,
    alpha_r}.
    """
    if game.rounds != 1:
        raise ValueError("classification applies to the one-round game only")
    if not rate > 2 * game.grid:
        raise ValueError(
            f"rate must exceed twice the grid denominator ({2 * game.grid})"
        )
    D = game.grid
    shares = []
    for name, v in (("w_p1", w_p1), ("w_r1", w_r1), ("alpha_p", alpha_p),
                    ("alpha_r", alpha_r)):
        num, exact = snap_share(float(v), D)
        if not exact:
            raise ValueError(f"{name}={v} is not a grid value (denominator {D})")
        if not 0 < num < D:
            raise ValueError(f"{name}={v} must lie strictly between 0 and 1")
        shares.append(Fraction(num, D))
    w_p, w_r, a_p, a_r = shares

    m = min(a_r, w_p)
    p_min = min(m, w_r)
    p_max = max(m, w_r)

    if p_min == p_max:
        t = 1 if w_p == w_r else 2
        return G1Classification(p_min, p_max, "C1", t, p_min)

    dwell_skipped = (1 - p_min) > 2 * (1 - p_max)
    anchor_low_boundary = (a_p == p_min) and ((1 - p_min) == 2 * (1 - p_max))
    if dwell_skipped or anchor_low_boundary:
        return G1Classification(p_min, p_max, "C1", 3, p_min)

    t_base = (2 * (1 - p_min) - (1 - p_max)) / (p_max - p_min)
    eps = Fraction(2) / (Fraction(rate) * (p_max - p_min))
    if a_p == p_max:
        bound = t_base + eps
    elif a_p == p_min:
        bound = t_base - eps
    else:
        bound = t_base
    t_pred = math.floor(bound) + 1
    return G1Classification(p_min, p_max, "C2", t_pred, p_min, bound)


# ---------------------------------------------------------------------------
# sufficient conditions for two-round settlement
# ---------------------------------------------------------------------------


def theorem5_preconditions(
    game: GameConfig,
    initial_P: Strategy,
    initial_R: Strategy,
    anchor_P: Strategy,
    anchor_R: Strategy,
) -> bool:
    """Sufficient conditions for two-round self-play to settle on a pure NE.

    All comparisons are exact: the discount factor is read as the decimal
    it is written as (``Fraction(str(delta))``, so 0.9 is 9/10, as the exact
    oracles and the engine's tie band treat it) and compared in rational
    arithmetic.  Conditions:

    * grid fine enough that 1/D < 1 - delta;
    * the responder's opening pair prefers its round-1 deal to waiting:
      1 - w_r1 >= delta * w_r2;
    * the first mover prefers its own round-1 deal to paying its round-2
      threshold's complement: w_p1 > delta * (1 - w_p2);
    * each agent's round-1 anchor lies strictly above the opponent's
      round-1 initial: a_p1 > w_r1 and a_r1 > w_p1.
    """
    if game.rounds != 2:
        raise ValueError("preconditions are defined for the two-round game only")
    D = game.grid
    for s in (initial_P, initial_R, anchor_P, anchor_R):
        if s.denom != D or len(s.entries) != 2:
            raise ValueError("strategies must be two-round strategies on the game grid")
    delta = Fraction(str(game.delta))
    if Fraction(1, D) >= 1 - delta:
        return False
    w_p1, w_p2 = (Fraction(e, D) for e in initial_P.entries)
    w_r1, w_r2 = (Fraction(e, D) for e in initial_R.entries)
    a_p1 = Fraction(anchor_P.entries[0], D)
    a_r1 = Fraction(anchor_R.entries[0], D)
    return (
        1 - w_r1 >= delta * w_r2
        and w_p1 > delta * (1 - w_p2)
        and a_p1 > w_r1
        and a_r1 > w_p1
    )


# ---------------------------------------------------------------------------
# scripted adversaries and external regret
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversarySchedule:
    """A scripted opponent whose per-round values come from spaced bins.

    bins[k] lists the values the adversary may use in game round k+1, each
    pair at least 1/D apart; plays is the full schedule, one n-tuple of
    values per repetition of the game.
    """

    game: GameConfig
    bins: tuple[tuple[float, ...], ...]
    plays: tuple[tuple[float, ...], ...]


def make_adversary(
    game: GameConfig,
    plays: Sequence[Sequence[float]],
    bins: Sequence[Sequence[float]] | None = None,
) -> AdversarySchedule:
    """Validate and build an adversary schedule.

    When ``bins`` is omitted it is inferred as the distinct values used per
    round.  Every value must lie in [0, 1], every play must use bin values,
    and within each round's bin distinct values must be at least 1/D apart
    (up to a 1e-12 slack).
    """
    n, spacing = game.rounds, 1.0 / game.grid
    plays_t = tuple(tuple(map(float, p)) for p in plays)
    if len(plays_t) == 0:
        raise ValueError("adversary schedule needs at least one play")
    distinct = dict.fromkeys(plays_t)  # each play once, in schedule order
    for p in distinct:
        if len(p) != n:
            raise ValueError(f"each play needs {n} round values, got {p}")
        for v in p:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"adversary value {v} outside [0, 1]")
    if bins is None:
        bins_t = tuple(tuple(sorted({p[k] for p in distinct})) for k in range(n))
    else:
        if len(bins) != n:
            raise ValueError(f"need one bin list per round ({n})")
        bins_t = tuple(tuple(sorted(float(v) for v in b)) for b in bins)
        for k, b in enumerate(bins_t):
            for v in b:
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"bin value {v} outside [0, 1]")
            used = {p[k] for p in distinct}
            if not used <= {*b}:
                raise ValueError(
                    f"round {k + 1} plays use values outside the declared bin"
                )
    for k, b in enumerate(bins_t):
        for lo, hi in zip(b, b[1:]):
            if hi - lo < spacing - 1e-12:
                raise ValueError(
                    f"round {k + 1} bin values {lo} and {hi} are closer than "
                    f"the required spacing {spacing}"
                )
    return AdversarySchedule(game=game, bins=bins_t, plays=plays_t)


#: Byte budget of the kernel rows a schedule keeps, most recently used first:
#: a schedule whose distinct plays fit computes each play's row once.
_ROW_CACHE_BYTES = 1 << 25


def _schedule_rows(
    game: GameConfig,
    owner: str,
    plays: Sequence[Sequence[float]],
    own: np.ndarray | None = None,
) -> Iterator[tuple[list[np.ndarray], list[int]]]:
    """The rounds' :func:`value_play_utilities` rows against their plays,
    in consecutive blocks of at most ``_BLOCK_BYTES`` per (rounds x width)
    array: per block, the rows of its distinct plays and each round's
    index into them.

    Rows are kept for reuse up to ``_ROW_CACHE_BYTES`` (at least one row),
    the least recently used dropped first.  The rows yielded are shared: do
    not write to them.
    """
    width = game.strategy_count if own is None else own.shape[0]
    capacity = max(1, _ROW_CACHE_BYTES // (8 * width))
    block = _block_rows(width)
    cache: dict = {}
    for lo in range(0, len(plays), block):
        chunk = plays[lo:lo + block]
        slots = {play: slot for slot, play in enumerate(dict.fromkeys(chunk))}
        rows = []
        for play in slots:
            row = cache.pop(play, None)
            if row is None:
                row = value_play_utilities(game, owner, play, own)
                if len(cache) == capacity:
                    del cache[next(iter(cache))]
            cache[play] = row
            rows.append(row)
        yield rows, list(map(slots.__getitem__, chunk))


def _schedule_blocks(
    game: GameConfig,
    owner: str,
    plays: Sequence[Sequence[float]],
    own: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Each block of :func:`_schedule_rows` as one (rounds x width) array of
    its rounds' rows.  The array is free to write to, and its memory is
    reused for the next block."""
    buffer = None
    for rows, order in _schedule_rows(game, owner, plays, own):
        if buffer is None:  # the first block is the longest
            buffer = np.empty((len(order), rows[0].shape[0]))
        # mode="clip" lets take write to ``out`` unbuffered; order is in range
        yield np.take(np.stack(rows), order, axis=0, out=buffer[:len(order)], mode="clip")


def _sum_rounds(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``total`` plus each row of the block in turn, with the bits of adding
    them one at a time (a reduction over the leading axis adds in order);
    overwrites ``rows[0]``."""
    rows[0] += total
    return np.add.reduce(rows, axis=0)


def _candidate_utilities(
    game: GameConfig,
    owner: str,
    candidates: np.ndarray,
    adversary_plays: Sequence[Sequence[float]],
) -> np.ndarray:
    """Cumulative utility of each real-valued candidate over the schedule,
    added up in schedule order."""
    total = np.zeros(candidates.shape[0])
    for rows in _schedule_blocks(game, owner, adversary_plays, candidates):
        total = _sum_rounds(total, rows)
    return total


class RegretResult(NamedTuple):
    """External regret vs the best fixed grid / continuous-candidate strategy."""

    regret_vs_grid: float
    regret_vs_continuous: float


def external_regret(
    game: GameConfig,
    owner: str,
    played: Sequence[Play],
    adversary: AdversarySchedule,
) -> RegretResult:
    """Cumulative shortfall of the played sequence against two hindsight bars.

    ``owner`` names the role the played sequence occupied ("P" moves first).
    The grid bar is the best fixed own grid strategy.  The continuous bar is
    the best fixed strategy whose round-k value ranges over the grid plus the
    adversary's round-k bin values and their 1/D-shifted neighbors — against
    a bin-spaced adversary that finite set contains a maximizer of the
    continuous problem, because utilities are piecewise monotone between
    consecutive adversary values.  The continuous bar can only exceed the
    grid bar.
    """
    _check_owner(owner)
    if adversary.game != game:
        raise ValueError("adversary was built for a different game")
    if len(played) != len(adversary.plays):
        raise ValueError(
            f"played {len(played)} rounds but the schedule has {len(adversary.plays)}"
        )
    block = _block_rows(game.strategy_count)
    weights = (
        np.array([_weights_of(game, p) for p in played[lo:lo + block]])
        for lo in range(0, len(played), block)
    )
    return _regret(game, owner, adversary, weights)


def schedule_regret(
    game: GameConfig, config: LearnerConfig, adversary: AdversarySchedule
) -> RegretResult:
    """External regret of one learner played over an adversary's schedule.

    At any round count the result equals, bit for bit, stepping ``ftrl.step``
    once per play of ``adversary.plays`` from :func:`ftrl.make_learner` and
    passing the strategies played to :func:`external_regret`.  The learner's
    feedback does not depend on its own play, so its cumulative feedback is
    a running sum of kernel rows, and each round's play a function of that
    sum alone.  Rounds are played in blocks of at most ``_BLOCK_BYTES`` per
    (rounds x strategies) array, kernel rows are kept for reuse up to
    ``_ROW_CACHE_BYTES``, and no payoff table is built: array memory grows
    neither with the horizon nor with the number of distinct plays.

    Each block's plays come from one call of ``ftrl.next_plays``, so a
    reg=2 block is projected from the top entries of its rows (see
    ``ftrl.project_rows_to_simplex``).  The regret is accounted a block at
    a time too: one stacked matrix product gives each round's earned
    payoff with the bits of ``float(w @ u)``, added to the total in round
    order, and a reduction over the block's rows adds them to the grid
    bar's running sum in round order.
    """
    if adversary.game != game:
        raise ValueError("adversary was built for a different game")
    if config.horizon != len(adversary.plays):
        raise ValueError(
            f"learner horizon {config.horizon} but the schedule has "
            f"{len(adversary.plays)} plays"
        )
    make_learner(game, config)  # checks the anchor and initial play
    return _regret(
        game, config.owner, adversary,
        _learner_weights(game, config, adversary.plays),
    )


def _learner_weights(
    game: GameConfig,
    config: LearnerConfig,
    plays: Sequence[tuple[float, ...]],
) -> Iterator[np.ndarray]:
    """The learner's weights in each round of the schedule, one (rounds x
    strategies) array per block of :func:`_schedule_rows`.

    Round 1 plays ``config.initial``; round t + 1 plays the update rule of
    ``ftrl.step`` applied to the feedback summed over rounds 1..t, where a
    play on the grid is fed back at its grid values, as ``ftrl.step``
    scores it.
    """
    scored = {play: _scored_values(game, play) for play in set(plays)}
    anchor = strategy_index(game, config.anchor)
    cum = np.zeros(game.strategy_count)
    buffer = np.empty((min(len(plays), _block_rows(len(cum))), len(cum)))
    fed = [scored[play] for play in plays]
    for index, (rows, order) in enumerate(_schedule_rows(game, config.owner, fed)):
        # sums[r]: cum plus the feedback of the block's rounds before round r
        sums = buffer[:len(order)]
        sums[0] = cum
        for r in range(1, len(sums)):
            np.add(sums[r - 1], rows[order[r - 1]], out=sums[r])
        cum = sums[-1] + rows[order[-1]]
        weights = next_plays(sums, anchor, config.rate, config.reg)
        if config.reg == 1:  # pure indices -> one-hot weight rows
            pick, weights = weights, np.zeros_like(sums)
            weights[np.arange(len(sums)), pick] = 1.0
        if index == 0:
            weights[0] = _weights_of(game, config.initial)
        yield weights


def _regret(
    game: GameConfig,
    owner: str,
    adversary: AdversarySchedule,
    weights: Iterable[np.ndarray],
) -> RegretResult:
    """Both regret bars of own weights against the schedule, given as one
    (rounds x strategies) array per block of :func:`_schedule_rows`."""
    cum_grid = np.zeros(game.strategy_count)
    earned = 0.0
    for w, u in zip(weights, _schedule_blocks(game, owner, adversary.plays)):
        # one dot product per round, with the bits of float(w[r] @ u[r]),
        # added to ``earned`` in round order
        for value in np.matmul(w[:, None, :], u[:, :, None]).ravel().tolist():
            earned += value
        cum_grid = _sum_rounds(cum_grid, u)
    regret_grid = float(cum_grid.max() - earned)

    per_round_candidates = []
    shift = 1.0 / game.grid
    for k in range(game.rounds):
        vals = set(float(x) for x in game.grid_values)
        for b in adversary.bins[k]:
            for v in (b - shift, b, b + shift):
                if 0.0 <= v <= 1.0:
                    vals.add(v)
        per_round_candidates.append(sorted(vals))
    candidates = np.array(list(product(*per_round_candidates)))
    cont = _candidate_utilities(game, owner, candidates, adversary.plays)
    regret_cont = float(cont.max() - earned)
    return RegretResult(regret_grid, regret_cont)
