"""Follow-the-regularized-leader over the pure-strategy grid.

Both update rules maximize cumulative counterfactual utility minus a
regularizer that penalizes distance from a fixed pure "anchor" strategy,
with learning rate ``rate`` scaling how far play may drift from the anchor:

* ``reg=1``: penalty is the L1 distance divided by the rate.  On the simplex
  with a pure anchor the penalized objective is linear, so maximizers are
  pure: every non-anchor pure strategy is handicapped by ``2 / rate``.  Ties
  go to the anchor when it is among the maximizers (its handicap is zero),
  otherwise to the lexicographically largest tied strategy (largest flat
  index).  The resulting play is always a single pure strategy.
* ``reg=2``: penalty is half the squared euclidean distance divided by the
  rate; the maximizer is the euclidean projection of
  ``anchor + rate * cumulative_utility`` onto the simplex, a mixed strategy.

Feedback is full-information: after each round the learner observes the
utility every one of its pure strategies would have earned against the
opponent's actual play, and accumulates that vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from bargainlab.game import (
    PAYOFF_TOL,
    GameConfig,
    Strategy,
    _KernelRows,
    _check_strategy,
    payoff_matrices,
    snap_share,
    strategy_from_index,
    strategy_index,
    value_play_utilities,
)


#: Spacing of float64 values near 1.
_EPS = float(np.finfo(np.float64).eps)


class HorizonExceededError(RuntimeError):
    """Raised when a learner is stepped beyond its configured horizon."""


def project_rows_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of a 2-D array onto the simplex.

    With u a row sorted descending and css its shifted cumulative sums
    (cumsum(u) - 1), the active-set size is the largest j with
    u_j * j > css_j (the last j when none passes), and every coordinate is
    pulled down by theta = css_j / j and clipped at zero.

    Several rows at once are projected from their k largest entries only
    (partitioned out, then sorted), k one more than the most entries any
    row holds within 1 of its maximum: theta >= max - 1, so the support
    lies there.  On those k the test runs as on the whole sorted row, so it
    picks the same j from the same floats.  A row keeps that j only under a
    certificate that no later j can pass: f(j) = css_j - j * u_j never
    decreases in j, and rounding moves the test by at most
    eps * d**2 * (max|v| + 1) (max over the array), so some j passing among
    the k and a computed f(k) above twice that bound rule every later j
    out.  Every other row, and a lone row, is sorted whole.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"expected a 2-D array of rows, got shape {v.shape}")
    if v.shape[1] == 0:
        raise ValueError("cannot project an empty vector")
    w = theta = None
    if len(v) > 1:  # a lone row's one sort costs less than the selection
        w = v.copy()  # scratch for the selection, then the output
        theta = _selected_thresholds(v, w)
    if theta is None:
        theta = _thresholds(_descending(v))[0]
    w = np.subtract(v, theta[:, None], out=w)
    return np.maximum(w, 0.0, out=w)


def _selected_thresholds(v: np.ndarray, scratch: np.ndarray) -> np.ndarray | None:
    """Each row's theta from its k largest entries, or from the whole row
    where the certificate of :func:`project_rows_to_simplex` fails; None
    when no row has a top shorter than d to select, or ``v`` holds a value
    that is not finite.  Scrambles ``scratch``, a copy of ``v``."""
    d = v.shape[1]
    top = v.max(axis=1)
    bound = max(top.max(), -v.min())
    within = (v >= (top - 1.0)[:, None]).sum(axis=1, dtype=np.int32)
    # a row with at most one entry below max - 1 would need k = d
    k = int(within.max(where=within < d - 1, initial=0)) + 1
    if k == 1 or not math.isfinite(bound):
        return None
    scratch.partition(d - k, axis=1)
    u = _descending(scratch[:, d - k:])
    theta, css, passes = _thresholds(u)
    slack = css[:, -1] - u[:, -1] * k
    sure = passes.any(axis=1) & (slack > 2 * _EPS * d * d * (bound + 1))
    if not sure.all():
        theta[~sure] = _thresholds(_descending(v[~sure]))[0]
    return theta


def _descending(v: np.ndarray) -> np.ndarray:
    """Each row sorted descending (a view of an ascending sort)."""
    return np.sort(v, axis=1)[:, ::-1]


def _thresholds(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's theta from its entries ``u`` sorted descending, with the
    shifted cumulative sums and the test of :func:`project_rows_to_simplex`."""
    css = np.cumsum(u, axis=1)
    css -= 1.0
    passes = u * np.arange(1, u.shape[1] + 1) > css
    rho = u.shape[1] - 1 - np.argmax(passes[:, ::-1], axis=1)
    theta = css[np.arange(u.shape[0]), rho] / (rho + 1.0)
    return theta, css, passes


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex:
    the one-row case of :func:`project_rows_to_simplex`."""
    v = np.asarray(v, dtype=np.float64).ravel()
    return project_rows_to_simplex(v[None, :])[0]


@dataclass(frozen=True)
class MixedStrategy:
    """A distribution over the pure-strategy grid of one agent."""

    cfg: GameConfig
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.cfg.strategy_count,):
            raise ValueError(
                f"weights must have length {self.cfg.strategy_count}, got {w.shape}"
            )
        self.check_weights(w)
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @staticmethod
    def check_weights(w: np.ndarray) -> None:
        """Raise ValueError unless every row of ``w`` is a distribution up to
        rounding: finite weights >= -1e-12 and a sum within 1e-9 of 1.  A
        NaN or infinite weight makes its row's sum fail the last test."""
        if w.min() < -1e-12:
            raise ValueError("mixed strategy weights must be nonnegative")
        if not np.abs(w.sum(axis=-1) - 1.0).max() <= 1e-9:
            what = "sum to 1" if np.isfinite(w).all() else "be finite"
            raise ValueError(f"mixed strategy weights must {what}")

    def support(self) -> list[tuple[Strategy, float]]:
        return [
            (strategy_from_index(self.cfg, int(i)), float(self.weights[i]))
            for i in np.flatnonzero(self.weights > 1e-12)
        ]


Play = Union[Strategy, MixedStrategy]


@dataclass(frozen=True)
class LearnerConfig:
    """Configuration of one learner.

    owner:   "P" (moves first in odd rounds) or "R".
    reg:     1 for the pure-play rule, 2 for the euclidean rule.
    rate:    learning rate (> 0); larger values weaken the anchor pull.
    anchor:  pure strategy the regularizer is centered on.
    initial: pure strategy played in the first round.
    horizon: number of rounds the learner may be stepped.
    """

    owner: str
    reg: int
    rate: float
    anchor: Strategy
    initial: Strategy
    horizon: int

    def __post_init__(self) -> None:
        if self.owner not in ("P", "R"):
            raise ValueError(f"owner must be 'P' or 'R', got {self.owner!r}")
        if self.reg not in (1, 2):
            raise ValueError(f"reg must be 1 or 2, got {self.reg!r}")
        _check_rate(self.rate)
        if not np.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate!r}")
        if not isinstance(self.horizon, int) or self.horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon!r}")

    def rate_warning_for(self, game: GameConfig) -> str | None:
        """Non-None when the pure-play rule's tie-breaking guarantees are off.

        With ``reg=1`` the anchor handicap ``2 / rate`` must stay below the
        smallest utility gap the grid can produce (1 / D), i.e. rate > 2D;
        otherwise the anchor can override genuine utility differences.
        """
        if self.reg == 1 and self.rate <= 2 * game.grid:
            return (
                f"rate {self.rate} <= 2 * grid {game.grid}: anchor handicap "
                f"{2 / self.rate:.4g} is not below the grid's utility "
                f"resolution; pure-play convergence guarantees need rate > "
                f"{2 * game.grid}"
            )
        return None


@dataclass
class LearnerState:
    """Mutable run state of one learner; ``rows`` holds its feedback rows
    against the pure opponents seen so far."""

    game: GameConfig
    config: LearnerConfig
    cumulative: np.ndarray
    current: Play
    rows: _KernelRows
    steps: int = 0


def make_learner(game: GameConfig, config: LearnerConfig) -> LearnerState:
    """Validate config against the game and build the initial state."""
    _check_strategy(game, config.anchor, "anchor")
    _check_strategy(game, config.initial, "initial")
    return LearnerState(
        game=game,
        config=config,
        cumulative=np.zeros(game.strategy_count),
        current=config.initial,
        rows=_KernelRows(game, config.owner),
    )


def _scored_values(game: GameConfig, values: tuple[float, ...]) -> tuple[float, ...]:
    """The shares a play is scored at: its grid values when every share is on
    the grid (per :func:`snap_share`), else the play itself."""
    snapped = [snap_share(v, game.grid) for v in values]
    if not all(exact for _, exact in snapped):
        return values
    return tuple(e / game.grid for e, _ in snapped)


def _feedback(
    state: LearnerState, opponent_play: Play | tuple[float, ...]
) -> np.ndarray:
    game, owner = state.game, state.config.owner
    if isinstance(opponent_play, Strategy):
        return state.rows.of(np.array([strategy_index(game, opponent_play)]))[0]
    if isinstance(opponent_play, tuple):
        values = opponent_play
        if len(values) != game.rounds or not all(0 <= v <= 1 for v in values):
            raise ValueError(f"need {game.rounds} shares in [0, 1], got {values!r}")
        return value_play_utilities(game, owner, _scored_values(game, values))
    if isinstance(opponent_play, MixedStrategy):
        U_P, U_R = payoff_matrices(game)
        w = opponent_play.weights
        return U_P @ w if owner == "P" else U_R.T @ w
    raise TypeError(f"opponent play must be Strategy or MixedStrategy, got {opponent_play!r}")


def _check_rate(rate: float) -> None:
    """Raise ValueError unless ``rate`` is positive and its anchor handicap
    ``2 / rate`` is finite (an infinite rate has handicap 0)."""
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate!r}")
    if not math.isfinite(2.0 / float(rate)):
        raise ValueError(
            f"rate {rate!r} is too small: its anchor handicap 2 / rate overflows"
        )


def handicapped(cum: np.ndarray, anchor: np.ndarray | int, rate: float) -> np.ndarray:
    """Rows of cumulative utility less ``2 / rate`` on every play but the
    row's anchor (one flat index per row, or one for all rows)."""
    obj = cum - 2.0 / rate
    obj[np.arange(obj.shape[0]), anchor] += 2.0 / rate
    return obj


def next_plays(
    cum: np.ndarray, anchor: np.ndarray | int, rate: float, reg: int
) -> np.ndarray:
    """Each row's next play under the module docstring's update rules.

    ``reg=1``: the pure play, the largest index whose :func:`handicapped`
    utility is within ``PAYOFF_TOL`` of the row maximum.  ``reg=2``: the
    weights, anchor + rate * cum projected onto the simplex and checked.
    """
    if reg == 1:
        obj = handicapped(cum, anchor, rate)
        ties = obj >= obj.max(axis=1, keepdims=True) - PAYOFF_TOL
        return obj.shape[1] - 1 - np.argmax(ties[:, ::-1], axis=1)
    v = rate * cum
    v[np.arange(v.shape[0]), anchor] += 1.0
    weights = project_rows_to_simplex(v)
    try:
        MixedStrategy.check_weights(weights)
    except ValueError as exc:
        raise ValueError(f"rate {rate!r} is too large for reg=2: {exc}") from None
    return weights


def _next_play(state: LearnerState, reg: int) -> np.ndarray:
    if state.steps < 1:
        raise RuntimeError("update rule needs at least one round of feedback")
    anchor = strategy_index(state.game, state.config.anchor)
    return next_plays(state.cumulative[None], anchor, state.config.rate, reg)[0]


def l1_objective(state: LearnerState) -> np.ndarray:
    """Cumulative utility minus the anchor handicap, per pure strategy."""
    anchor = strategy_index(state.game, state.config.anchor)
    return handicapped(state.cumulative[None], anchor, state.config.rate)[0]


def l1_update(state: LearnerState) -> Strategy:
    """Pure maximizer of the handicapped cumulative utility (:func:`next_plays`)."""
    return strategy_from_index(state.game, int(_next_play(state, 1)))


def l2_update(state: LearnerState) -> MixedStrategy:
    """Projection of anchor + rate * cumulative utility onto the simplex."""
    return MixedStrategy(state.game, _next_play(state, 2))


def step(
    state: LearnerState, opponent_play: Play | tuple[float, ...]
) -> LearnerState:
    """Consume one round of opponent play and advance the learner.

    The strategy the learner used this round is ``state.current`` *before*
    the call; afterwards ``state.current`` holds next round's play.  Feedback
    is the full counterfactual utility vector, so it does not depend on the
    learner's own play.  ``opponent_play`` is a pure or mixed play, or a
    tuple of real shares, one per round: a tuple on the grid (per
    :func:`snap_share`) counts as that pure strategy, any other is scored by
    :func:`value_play_utilities`.
    """
    if state.steps >= state.config.horizon:
        raise HorizonExceededError(
            f"learner horizon {state.config.horizon} exhausted"
        )
    state.cumulative = state.cumulative + _feedback(state, opponent_play)
    state.steps += 1
    state.current = l1_update(state) if state.config.reg == 1 else l2_update(state)
    return state
