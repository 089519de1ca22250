"""Finite-horizon alternating-offers bargaining on a share grid.

Two agents split a unit pie over at most ``rounds`` rounds.  The first mover
("P") proposes in odd rounds, the second mover ("R") in even rounds.  A pure
strategy fixes, for every round, a single grid share: the proposer's entry for
a round is the share it offers to that round's responder, the responder's
entry is its acceptance threshold.  An offer is accepted exactly when it is
greater than or equal to the threshold (weak inequality).  Agreement in round
``k`` on responder share ``y`` pays the responder ``delta**(k-1) * y`` and the
proposer ``delta**(k-1) * (1-y)``; round 1 is undiscounted.  If no round ends
in agreement both payoffs are zero.

Shares live on the uniform grid {0, 1/D, ..., 1} and are stored as integer
numerators, so strategy identity and grid membership are exact; floats only
appear in payoffs.

The rules are written once, as a broadcast kernel priced with the scalar
powers ``continuous_play`` uses; the payoff tables, the value-play rows and
every read against one pure opponent are built on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

Owner = Literal["P", "R"]

#: Tolerance of every payoff comparison (ties, best responses, equilibrium
#: checks).  Strategy and grid comparisons are always exact integer compares.
PAYOFF_TOL = 1e-9


@dataclass(frozen=True)
class GameConfig:
    """Parameters of the bargaining game.

    rounds: number of alternating-offer rounds (>= 1).
    grid:   grid denominator D; shares are multiples of 1/D.
    delta:  per-round discount factor in (0, 1].
    """

    rounds: int
    grid: int
    delta: float

    def __post_init__(self) -> None:
        if not isinstance(self.rounds, int) or self.rounds < 1:
            raise ValueError(f"rounds must be a positive integer, got {self.rounds!r}")
        if not isinstance(self.grid, int) or self.grid < 1:
            raise ValueError(f"grid must be a positive integer, got {self.grid!r}")
        if not (0.0 < float(self.delta) <= 1.0):
            raise ValueError(f"delta must lie in (0, 1], got {self.delta!r}")

    @property
    def strategy_count(self) -> int:
        """Number of pure strategies per agent: (D+1) ** rounds."""
        return (self.grid + 1) ** self.rounds

    @property
    def grid_values(self) -> np.ndarray:
        """The D+1 share values as floats."""
        return np.arange(self.grid + 1) / self.grid


def snap_share(share: float, grid: int) -> tuple[int, bool]:
    """Nearest grid numerator of ``share`` and whether the share is on the grid.

    The numerator is ``floor(share * grid + 1/2)`` (ties round up), clamped to
    [0, grid].  A share within 1e-9 of that grid point counts as on the grid.
    """
    scaled = share * grid
    nearest = min(max(math.floor(scaled + 0.5), 0), grid)
    return int(nearest), abs(scaled - nearest) <= 1e-9 * max(1.0, grid)


@dataclass(frozen=True)
class Strategy:
    """A pure strategy: one grid share per round, stored as integer numerators.

    ``entries[k]`` is the numerator of the round-(k+1) share over denominator
    ``denom``; it is an offer in rounds this agent proposes and an acceptance
    threshold in rounds it responds.
    """

    entries: tuple[int, ...]
    denom: int

    def __post_init__(self) -> None:
        if not isinstance(self.denom, int) or self.denom < 1:
            raise ValueError(f"denom must be a positive integer, got {self.denom!r}")
        if len(self.entries) == 0:
            raise ValueError("a strategy needs at least one round entry")
        for e in self.entries:
            if not isinstance(e, (int, np.integer)):
                raise TypeError(f"grid entries must be integers, got {e!r}")
            if not 0 <= int(e) <= self.denom:
                raise ValueError(
                    f"entry {e} outside grid range [0, {self.denom}]"
                )
        # normalize numpy integers so hashing/equality never depends on dtype
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(e / self.denom for e in self.entries)

    @property
    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(e, self.denom) for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Outcome:
    """Result of one play of the game.

    agreement_round is None when every round ended in rejection, in which
    case both payoffs are zero and responder_share is None.  offer_index is
    the grid numerator of the accepted share (None for off-grid play).
    """

    agreement_round: int | None
    responder_share: float | None
    payoff_P: float
    payoff_R: float
    offer_index: int | None = None


def _check_strategy(cfg: GameConfig, s: Strategy, name: str) -> None:
    if s.denom != cfg.grid:
        raise ValueError(
            f"{name} uses grid denominator {s.denom}, game uses {cfg.grid}"
        )
    if len(s.entries) != cfg.rounds:
        raise ValueError(
            f"{name} has {len(s.entries)} round entries, game has {cfg.rounds} rounds"
        )


def play(cfg: GameConfig, proposer: Strategy, responder: Strategy) -> Outcome:
    """Play pure strategies against each other and return the outcome.

    ``proposer`` moves first (odd rounds), ``responder`` moves second (even
    rounds).  This is :func:`continuous_play` at the strategies' grid values,
    plus the accepted offer's grid numerator.
    """
    _check_strategy(cfg, proposer, "proposer strategy")
    _check_strategy(cfg, responder, "responder strategy")
    out = continuous_play(cfg.rounds, cfg.delta, proposer.values, responder.values)
    k = out.agreement_round
    if k is None:
        return out
    return replace(out, offer_index=(proposer if k % 2 else responder).entries[k - 1])


def continuous_play(
    rounds: int,
    delta: float,
    proposer_values: tuple[float, ...],
    responder_values: tuple[float, ...],
) -> Outcome:
    """Play real-valued (not grid-restricted) strategies.

    Entries are arbitrary shares in [0, 1].  This is the one round-by-round
    reference of the rules: :func:`play` is this at grid values, and the
    rules kernel behind every vectorized path is checked against it.
    """
    if len(proposer_values) != rounds or len(responder_values) != rounds:
        raise ValueError("strategy length must equal the number of rounds")
    for k in range(1, rounds + 1):
        p_moves_first = k % 2 == 1
        offer = proposer_values[k - 1] if p_moves_first else responder_values[k - 1]
        threshold = responder_values[k - 1] if p_moves_first else proposer_values[k - 1]
        if not (0.0 <= offer <= 1.0) or not (0.0 <= threshold <= 1.0):
            raise ValueError("shares must lie in [0, 1]")
        if offer >= threshold:
            disc = delta ** (k - 1)
            resp_pay = disc * offer
            prop_pay = disc * (1.0 - offer)
            if p_moves_first:
                return Outcome(k, offer, prop_pay, resp_pay, None)
            return Outcome(k, offer, resp_pay, prop_pay, None)
    return Outcome(None, None, 0.0, 0.0, None)


def value_play_utilities(
    cfg: GameConfig,
    owner: Owner,
    opponent: Sequence[float] | np.ndarray,
    own: np.ndarray | None = None,
) -> np.ndarray:
    """Utility of each own strategy against real-valued opponent plays.

    ``own`` is an (n, rounds) array of real shares, one strategy per row; by
    default it is every grid strategy in flat-index order.  ``opponent``
    holds one share per round, giving one (n,) kernel row, or is a (k,
    rounds) stack of plays, giving (k, n) rows.  The same rules and floats as
    :func:`continuous_play`, and at grid values as :func:`play`.
    """
    if own is None:
        own = _entries_matrix(cfg) / cfg.grid
    opponent = np.asarray(opponent, dtype=np.float64)[..., None, :]
    if owner == "P":
        return _price(cfg, *_agreements(own, opponent))[0]
    return _price(cfg, *_agreements(opponent, own))[1]


# ---------------------------------------------------------------------------
# strategy enumeration
# ---------------------------------------------------------------------------


def strategy_index(cfg: GameConfig, s: Strategy) -> int:
    """Flat index of a strategy; flat order == lexicographic entry order."""
    _check_strategy(cfg, s, "strategy")
    idx = 0
    for e in s.entries:
        idx = idx * (cfg.grid + 1) + e
    return idx


def strategy_from_index(cfg: GameConfig, index: int) -> Strategy:
    """Inverse of :func:`strategy_index`."""
    if not 0 <= index < cfg.strategy_count:
        raise ValueError(f"strategy index {index} out of range")
    base = cfg.grid + 1
    entries = []
    for _ in range(cfg.rounds):
        entries.append(index % base)
        index //= base
    return Strategy(tuple(reversed(entries)), cfg.grid)


@functools.lru_cache(maxsize=64)
def _entries_matrix(cfg: GameConfig) -> np.ndarray:
    """(strategy_count, rounds) integer matrix of all pure strategies."""
    base = cfg.grid + 1
    n = cfg.strategy_count
    out = np.empty((n, cfg.rounds), dtype=np.int64)
    idx = np.arange(n)
    for k in range(cfg.rounds - 1, -1, -1):
        out[:, k] = idx % base
        idx //= base
    return out


def all_strategies(cfg: GameConfig) -> list[Strategy]:
    """All pure strategies in flat-index (lexicographic) order."""
    em = _entries_matrix(cfg)
    return [Strategy(tuple(int(e) for e in row), cfg.grid) for row in em]


# ---------------------------------------------------------------------------
# the rules kernel and the tables built on it
# ---------------------------------------------------------------------------


def _agreements(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Agreement round (0 = never) and accepted offer (0 when none) of every
    pairing of first- and second-mover entries: integer numerators or real
    shares, one per round along the last axis, leading axes broadcast.  The
    first mover proposes in odd rounds; an offer at least the responder's
    threshold is accepted."""
    shape = np.broadcast_shapes(first.shape[:-1], second.shape[:-1])
    agree = np.zeros(shape, dtype=np.int32)
    offer = np.zeros(shape, dtype=np.result_type(first, second))
    for k in reversed(range(first.shape[-1])):  # an earlier deal overwrites
        proposer, responder = (first, second) if k % 2 == 0 else (second, first)
        deal = proposer[..., k] >= responder[..., k]
        np.copyto(agree, k + 1, where=deal)
        np.copyto(offer, proposer[..., k], where=deal)
    return agree, offer


def _price(
    cfg: GameConfig, agree: np.ndarray, share: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-mover payoffs of agreements in rounds ``agree`` on
    responder shares ``share``: round k pays the responder ``disc * share``
    and the proposer ``disc * (1 - share)`` with ``disc`` the Python scalar
    ``cfg.delta ** (k - 1)``, as in :func:`continuous_play` (numpy's array
    power is not correctly rounded for exponents >= 2); round 0 pays
    nothing."""
    first_proposed = (agree & 1) == 1  # odd rounds
    first, second = 1.0 - share, 1.0 - share
    np.copyto(first, share, where=~first_proposed)
    np.copyto(second, share, where=first_proposed)
    disc = [0.0] + [cfg.delta ** (k - 1) for k in range(1, cfg.rounds + 1)]
    disc = np.array(disc)[agree]
    first *= disc
    second *= disc
    return first, second


def _outcome_tables(cfg: GameConfig) -> tuple[np.ndarray, np.ndarray]:
    """Agreement round (0 = never) and accepted-offer numerator of first mover
    strategy i against second mover strategy j at [i, j] (:func:`strategy_index`)."""
    em = _entries_matrix(cfg)
    return _agreements(em[:, None], em[None])


@functools.lru_cache(maxsize=64)
def payoff_matrices(cfg: GameConfig) -> tuple[np.ndarray, np.ndarray]:
    """Full payoff tables (U_P, U_R), each indexed [first mover, second mover]:
    :func:`_price` of :func:`_outcome_tables`.  Only plays against mixed
    strategies read them; a pure opponent costs one kernel row."""
    agree, offer = _outcome_tables(cfg)
    offer = offer / cfg.grid  # shares; the numerators are freed before pricing
    U_P, U_R = _price(cfg, agree, offer)
    U_P.setflags(write=False)
    U_R.setflags(write=False)
    return U_P, U_R


class _KernelRows:
    """One side's payoff rows against the opponent strategies played.

    ``rows[slot[j]]`` is the owner's payoff of every own strategy against
    opponent index ``j``: column j of ``U_P`` for "P", row j of ``U_R`` for
    "R", bit for bit, as :func:`payoff_matrices` prices them.  A row is
    computed by :func:`value_play_utilities` the first time its opponent is
    looked up, and ``slot[j]`` is -1 until then, so memory grows with the
    opponents played rather than with the square of the strategy count.
    """

    def __init__(self, game: GameConfig, owner: Owner) -> None:
        self.game, self.owner = game, owner
        self.slot = np.full(game.strategy_count, -1, dtype=np.int64)
        self.rows = np.empty((0, game.strategy_count))
        self.count = 0

    def slots(self, opponents: np.ndarray) -> np.ndarray:
        """The slots of ``opponents``, computing the rows not stored yet."""
        new = np.unique(opponents[self.slot[opponents] < 0])
        if new.size:
            plays = _entries_matrix(self.game)[new] / self.game.grid
            pays = value_play_utilities(self.game, self.owner, plays)
            end = self.count + new.size
            if end > len(self.rows):
                grown = np.empty((max(end, 2 * len(self.rows)), self.slot.size))
                grown[:self.count] = self.rows[:self.count]
                self.rows = grown
            self.rows[self.count:end] = pays
            self.slot[new] = np.arange(self.count, end)
            self.count = end
        return self.slot[opponents]

    def of(self, opponents: np.ndarray) -> np.ndarray:
        """(len(opponents), N) rows: the owner's feedback against each."""
        slots = self.slots(opponents)  # may replace self.rows
        return self.rows[slots]

    def best(self) -> np.ndarray:
        """The owner's best payoff against each stored opponent, by slot."""
        return self.rows[:self.count].max(axis=1)


@dataclass(frozen=True)
class FeedbackVector:
    """Counterfactual utilities of every own pure strategy vs a fixed opponent."""

    cfg: GameConfig
    owner: Owner
    values: np.ndarray

    def __getitem__(self, s: Strategy) -> float:
        return float(self.values[strategy_index(self.cfg, s)])

    def as_dict(self) -> dict[Strategy, float]:
        return {
            s: float(v) for s, v in zip(all_strategies(self.cfg), self.values)
        }


def _check_owner(owner: str) -> None:
    if owner not in ("P", "R"):
        raise ValueError(f"owner must be 'P' or 'R', got {owner!r}")


def feedback_vector(cfg: GameConfig, owner: Owner, opponent: Strategy) -> FeedbackVector:
    """Utility of each of owner's pure strategies against ``opponent``: one
    kernel row (:func:`value_play_utilities` at its grid values)."""
    _check_owner(owner)
    _check_strategy(cfg, opponent, "opponent strategy")
    vals = value_play_utilities(cfg, owner, opponent.values)
    vals.setflags(write=False)
    return FeedbackVector(cfg, owner, vals)


# ---------------------------------------------------------------------------
# best responses and pure equilibria
# ---------------------------------------------------------------------------


def best_responses(cfg: GameConfig, owner: Owner, opponent: Strategy) -> list[Strategy]:
    """All own strategies within PAYOFF_TOL of the best payoff vs ``opponent``."""
    fb = feedback_vector(cfg, owner, opponent)
    best = fb.values.max()
    idxs = np.flatnonzero(fb.values >= best - PAYOFF_TOL)
    return [strategy_from_index(cfg, int(i)) for i in idxs]


def is_pure_ne(cfg: GameConfig, proposer: Strategy, responder: Strategy) -> bool:
    """True when neither agent can gain more than PAYOFF_TOL by a unilateral move."""
    _check_strategy(cfg, proposer, "proposer strategy")
    _check_strategy(cfg, responder, "responder strategy")
    against_R = feedback_vector(cfg, "P", responder)
    against_P = feedback_vector(cfg, "R", proposer)
    return bool(against_R[proposer] >= against_R.values.max() - PAYOFF_TOL
                and against_P[responder] >= against_P.values.max() - PAYOFF_TOL)


def equilibrium_value(
    cfg: GameConfig, proposer: Strategy, responder: Strategy
) -> float | None:
    """Accepted share (the agreement round's responder share) of a pure equilibrium.

    Raises ValueError when the profile is not a pure equilibrium.  Returns
    None for equilibria in which no round reaches agreement.
    """
    if not is_pure_ne(cfg, proposer, responder):
        raise ValueError("profile is not a pure equilibrium")
    return play(cfg, proposer, responder).responder_share
