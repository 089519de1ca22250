"""Stationary-equilibrium toolbox for the matching market around the game.

A unit mass of firms repeatedly matches with two types of candidates.  Each
match plays an alternating-offers split of a unit surplus; either side may
instead walk away after a rejection and re-enter the pool, which is worth a
fraction ``tau`` of the player's steady-state expected match payoff.  The
module answers four questions:

* which long-run payoff targets ``(w1, w2)`` for the firm are supportable
  (:func:`theorem1_feasible`, and :func:`feasible_payoffs` over arrays),
* how to exhibit supporting strategies as an explicit certificate of
  per-pairing splits and outside options (:func:`construct_certificate`),
* whether a certificate is self-consistent (:func:`prop2_check`) and immune
  to every one-shot deviation from its two-state automaton strategies
  (:func:`one_shot_deviation_scan`, :func:`simulate_automata`),
* how far apart equally-productive players' payoffs can be pushed, both in
  the two-type market (:func:`payoff_gaps`) and in the general m-firm,
  n-type market (:func:`multi_feasible`, :func:`multi_discriminatory`).

Automaton strategies have two states per match.  In the base state the
proposer keeps its certified share ``z`` and the responder accepts anything
at least as good as the complement; in the threat state the proposer offers
exactly the responder's reservation value ``u/delta``.  Any deviation —
including any rejection — switches the match to the threat state; after a
rejection the proposer walks away if (and only if) the rejected offer was
good enough that the rejection itself was the deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BOUNDARY_TOL",
    "SCAN_TOL",
    "Deviation",
    "EquilibriumCertificate",
    "FeasibilityError",
    "GapResult",
    "MarketParams",
    "MatchOutcome",
    "MultiMarketParams",
    "PayoffTarget",
    "construct_certificate",
    "expected_match_payoffs",
    "feasibility_violations",
    "feasible_payoffs",
    "multi_constraint_rhs",
    "multi_discriminatory",
    "multi_feasible",
    "one_shot_deviation_scan",
    "payoff_gaps",
    "prop2_check",
    "sample_feasible_instance",
    "simulate_automata",
    "theorem1_feasible",
    "w_bounds",
    "w1_lower_bound",
    "w2_lower_bound",
]

#: Slack allowed on weak feasibility/consistency inequalities.
BOUNDARY_TOL = 1e-12

#: Minimum payoff improvement that counts as a profitable deviation.
SCAN_TOL = 1e-9


class FeasibilityError(ValueError):
    """Raised when a requested payoff target is not supportable."""


def _require_unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _require_tau(tau: float) -> None:
    """At tau = 1 opting out costs nothing, and every bound divides by 1 - tau."""
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must lie in [0, 1), got {tau}")


@dataclass(frozen=True)
class MarketParams:
    """Market primitives: per-round discount ``delta``, opt-out haircut
    ``tau`` (an opting-out player keeps ``tau`` times its steady-state match
    value, in [0, 1)), and the probability ``p`` that a firm's next match is
    with a type-1 candidate."""

    delta: float
    tau: float
    p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        _require_tau(self.tau)
        _require_unit_interval("p", self.p)

    @property
    def in_theorem1_regime(self) -> bool:
        """Whether opting out is cheap enough for the folk-theorem-style
        feasibility characterization to apply: tau <= delta^2/(1+delta), up
        to BOUNDARY_TOL like every other weak feasibility inequality."""
        bound = self.delta * self.delta / (1.0 + self.delta)
        return self.tau <= bound + BOUNDARY_TOL


@dataclass(frozen=True)
class PayoffTarget:
    """Firm's target expected match payoff against each candidate type."""

    w1: float
    w2: float

    def __post_init__(self) -> None:
        _require_unit_interval("w1", self.w1)
        _require_unit_interval("w2", self.w2)


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------


def w_bounds(mp: MarketParams) -> Tuple[float, float]:
    """Universal lower and upper bounds (L, G) on any supportable per-type
    firm share: L = (1-delta)/(2(1-tau)), G = (1+delta-2 tau)/(2(1-tau))."""
    denom = 2.0 * (1.0 - mp.tau)
    return (1.0 - mp.delta) / denom, (1.0 + mp.delta - 2.0 * mp.tau) / denom


def w1_lower_bound(mp: MarketParams, w2: float) -> float:
    """Least supportable w1 given the other type's share w2."""
    return (1.0 - mp.delta + 2.0 * mp.tau * (1.0 - mp.p) * w2) / (
        2.0 * (1.0 - mp.tau * mp.p)
    )


def w2_lower_bound(mp: MarketParams, w1: float) -> float:
    """Least supportable w2 given the other type's share w1."""
    return (1.0 - mp.delta + 2.0 * mp.tau * mp.p * w1) / (
        2.0 * (1.0 - mp.tau * (1.0 - mp.p))
    )


def _support_conditions(mp: MarketParams, w1, w2) -> Dict[str, object]:
    """Each support condition's name -> whether the target (w1, w2) violates
    it by more than BOUNDARY_TOL; w1 and w2 are floats or arrays."""
    _, G = w_bounds(mp)
    return {
        "tau-regime": not mp.in_theorem1_regime,
        "w1-upper": w1 > G + BOUNDARY_TOL,
        "w2-upper": w2 > G + BOUNDARY_TOL,
        "w1-lower": w1 < w1_lower_bound(mp, w2) - BOUNDARY_TOL,
        "w2-lower": w2 < w2_lower_bound(mp, w1) - BOUNDARY_TOL,
    }


def feasibility_violations(mp: MarketParams, target: PayoffTarget) -> List[str]:
    """Names of the support conditions the target violates by more than
    BOUNDARY_TOL (empty == feasible).

    Possible entries: ``tau-regime``, ``w1-upper``, ``w2-upper``,
    ``w1-lower``, ``w2-lower``.
    """
    conditions = _support_conditions(mp, target.w1, target.w2)
    return [name for name, violated in conditions.items() if violated]


def theorem1_feasible(mp: MarketParams, target: PayoffTarget) -> bool:
    """Whether the payoff target is supportable in a stationary equilibrium."""
    return not feasibility_violations(mp, target)


def feasible_payoffs(mp: MarketParams, w1: np.ndarray, w2: np.ndarray) -> Tuple:
    """Per target of the arrays (w1, w2): whether it is supportable, and the
    (W_f, W_c1, W_c2) its certificate would carry, NaN where it is not."""
    conditions = _support_conditions(mp, w1, w2).values()
    feasible = ~np.logical_or.reduce(np.broadcast_arrays(*conditions))
    W = (np.where(feasible, x, np.nan) for x in _match_payoffs(mp, w1, w2))
    return (feasible, *W)


def sample_feasible_instance(
    rng: np.random.Generator,
) -> Tuple[MarketParams, PayoffTarget]:
    """Draw market parameters in the supportable regime together with a
    target strictly inside the feasible payoff region."""
    while True:
        delta = rng.uniform(0.5, 0.97)
        tau = rng.uniform(0.02, 0.95) * delta * delta / (1.0 + delta)
        p = rng.uniform(0.05, 0.95)
        mp = MarketParams(delta=delta, tau=tau, p=p)
        L, G = w_bounds(mp)
        w1 = rng.uniform(L, G)
        # w2 must exceed its own lower bound and keep w1 above the bound it
        # induces; invert the latter for an upper limit on w2
        lo = max(L, w2_lower_bound(mp, w1))
        hi = min(
            G,
            (2.0 * w1 * (1.0 - mp.tau * mp.p) - (1.0 - mp.delta))
            / (2.0 * mp.tau * (1.0 - mp.p)),
        )
        width = hi - lo
        if width < 1e-3:
            continue
        w2 = rng.uniform(lo + 1e-3 * width, hi - 1e-3 * width)
        target = PayoffTarget(w1=w1, w2=w2)
        if theorem1_feasible(mp, target):
            return mp, target


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Explicit stationary-equilibrium data: steady-state expected match
    payoffs ``W``, outside options ``u = tau * W``, and per-pairing proposer
    shares ``z`` (``z_fck``: firm's kept share when proposing to type k;
    ``z_ckf``: type k's kept share when proposing to the firm)."""

    params: MarketParams
    u_f: float
    u_c1: float
    u_c2: float
    z_fc1: float
    z_fc2: float
    z_c1f: float
    z_c2f: float
    W_f: float
    W_c1: float
    W_c2: float


def _match_payoffs(mp: MarketParams, w1, w2) -> Tuple:
    """Steady-state match payoffs (W_f, W_c1, W_c2) at firm shares (w1, w2)."""
    return mp.p * w1 + (1.0 - mp.p) * w2, 1.0 - w1, 1.0 - w2


def _z_interval(
    delta: float, w: float, u_own: float, u_other: float
) -> Tuple[float, float]:
    """Admissible range for the firm-side share z against one candidate type,
    before picking a point: the proposer must not gain by triggering the
    punishment, the responder must prefer accepting to walking away, and the
    mirrored share 1 + z - 2w must satisfy the same conditions."""
    lo = max(1.0 - delta + u_own, 2.0 * w - delta + u_other)
    hi = min(1.0 - u_other, 2.0 * w - u_own)
    return lo, hi


def construct_certificate(
    mp: MarketParams, target: PayoffTarget, z_rule: str = "midpoint"
) -> EquilibriumCertificate:
    """Build an equilibrium certificate supporting the target.

    ``z_rule`` selects the point inside each admissible share interval:
    ``"midpoint"`` (default), ``"lower"``, or ``"upper"``.

    Raises :class:`FeasibilityError` naming the violated condition when the
    target is not supportable.
    """
    if z_rule not in ("midpoint", "lower", "upper"):
        raise ValueError(f"unknown z_rule {z_rule!r}")
    violations = feasibility_violations(mp, target)
    if violations:
        raise FeasibilityError(f"target infeasible: {', '.join(violations)}")
    W_f, W_c1, W_c2 = _match_payoffs(mp, target.w1, target.w2)
    u_f, u_c1, u_c2 = mp.tau * W_f, mp.tau * W_c1, mp.tau * W_c2
    shares = {}
    for k, w, u_c in ((1, target.w1, u_c1), (2, target.w2, u_c2)):
        lo, hi = _z_interval(mp.delta, w, u_f, u_c)
        if lo > hi + BOUNDARY_TOL:
            raise FeasibilityError(
                f"empty share interval for pairing {k}: [{lo}, {hi}]"
            )
        hi = max(hi, lo)
        if z_rule == "lower":
            z_f = lo
        elif z_rule == "upper":
            z_f = hi
        else:
            z_f = 0.5 * (lo + hi)
        shares[k] = (z_f, 1.0 + z_f - 2.0 * w)
    return EquilibriumCertificate(
        params=mp,
        u_f=u_f,
        u_c1=u_c1,
        u_c2=u_c2,
        z_fc1=shares[1][0],
        z_fc2=shares[2][0],
        z_c1f=shares[1][1],
        z_c2f=shares[2][1],
        W_f=W_f,
        W_c1=W_c1,
        W_c2=W_c2,
    )


def prop2_check(
    cert: EquilibriumCertificate, mp: Optional[MarketParams] = None
) -> bool:
    """Verify the algebraic stationary-equilibrium conditions directly.

    True iff for every pairing the proposer shares lie in their admissible
    ranges, the outside options satisfy the mutual-threat inequalities
    ``u_i <= delta^2 - delta u_j``, and the stationarity equations
    ``u = tau * W`` hold with ``W`` recomputed from the shares, all within
    BOUNDARY_TOL.
    """
    if mp is None:
        mp = cert.params
    delta, tau, tol = mp.delta, mp.tau, BOUNDARY_TOL
    pairs = (
        (cert.z_fc1, cert.z_c1f, cert.u_c1),
        (cert.z_fc2, cert.z_c2f, cert.u_c2),
    )
    for z_f, z_c, u_c in pairs:
        if not (1.0 - delta + cert.u_f - tol <= z_f <= 1.0 - u_c + tol):
            return False
        if not (1.0 - delta + u_c - tol <= z_c <= 1.0 - cert.u_f + tol):
            return False
        if cert.u_f > delta * delta - delta * u_c + tol:
            return False
        if u_c > delta * delta - delta * cert.u_f + tol:
            return False
    w1 = 0.5 * cert.z_fc1 + 0.5 * (1.0 - cert.z_c1f)
    w2 = 0.5 * cert.z_fc2 + 0.5 * (1.0 - cert.z_c2f)
    for u, W_field, W_implied in zip(
        (cert.u_f, cert.u_c1, cert.u_c2),
        (cert.W_f, cert.W_c1, cert.W_c2),
        _match_payoffs(mp, w1, w2),
    ):
        if abs(W_field - W_implied) > tol:
            return False
        if abs(u - tau * W_implied) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# payoff gaps
# ---------------------------------------------------------------------------


class GapResult(NamedTuple):
    """Largest supportable payoff spreads between equally-productive players."""

    candidate_gap: float
    firm_gap: float


def payoff_gaps(mp: MarketParams) -> GapResult:
    """Maximal spread between the two candidate types' shares and between the
    extreme supportable firm shares."""
    return GapResult(
        candidate_gap=(mp.delta - mp.tau) / (1.0 - mp.tau * mp.p),
        firm_gap=(mp.delta - mp.tau) / (1.0 - mp.tau),
    )


# ---------------------------------------------------------------------------
# automaton simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchOutcome:
    """Result of playing out one match on the equilibrium path."""

    agreement_round: int
    firm_share: float
    candidate_share: float
    first_proposer: str
    pairing: int


def _pair_data(
    cert: EquilibriumCertificate, pairing: int
) -> Tuple[float, float, float, float]:
    """(z firm-proposing, z candidate-proposing, u_firm, u_candidate)."""
    if pairing == 1:
        return cert.z_fc1, cert.z_c1f, cert.u_f, cert.u_c1
    if pairing == 2:
        return cert.z_fc2, cert.z_c2f, cert.u_f, cert.u_c2
    raise ValueError(f"pairing must be 1 or 2, got {pairing!r}")


def simulate_automata(
    cert: EquilibriumCertificate,
    pairing: int,
    first_proposer: str,
) -> MatchOutcome:
    """Play one firm/candidate match with both sides following their
    automaton strategies, and return the realized split.

    The base-state offer is exactly the responder's threshold, so the match
    always agrees in round 1 on the proposer's certified share."""
    z_f, z_c, _, _ = _pair_data(cert, pairing)
    if first_proposer not in ("firm", "candidate"):
        raise ValueError(
            f"first_proposer must be 'firm' or 'candidate', got {first_proposer!r}"
        )
    firm = z_f if first_proposer == "firm" else 1.0 - z_c
    return MatchOutcome(
        agreement_round=1,
        firm_share=firm,
        candidate_share=1.0 - firm,
        first_proposer=first_proposer,
        pairing=pairing,
    )


def expected_match_payoffs(
    cert: EquilibriumCertificate,
) -> Tuple[float, float, float]:
    """Steady-state expected match payoffs (firm, type 1, type 2): the
    closed-form round-1 splits of :func:`simulate_automata`, with a fair
    coin over who proposes first."""
    w = {}
    candidate = {}
    for pairing in (1, 2):
        a = simulate_automata(cert, pairing, "firm")
        b = simulate_automata(cert, pairing, "candidate")
        w[pairing] = 0.5 * (a.firm_share + b.firm_share)
        candidate[pairing] = 0.5 * (a.candidate_share + b.candidate_share)
    W_f, _, _ = _match_payoffs(cert.params, w[1], w[2])
    return W_f, candidate[1], candidate[2]


# ---------------------------------------------------------------------------
# one-shot deviation scan
# ---------------------------------------------------------------------------


class Deviation(NamedTuple):
    """One profitable single-decision deviation from the automaton profile."""

    pairing: int
    state: str  # "base" | "threat"
    proposer: str  # whose proposal round the decision sits in
    agent: str  # who deviates
    node: str  # "proposal" | "response" | "optout"
    action: str  # the deviating move
    offer: float  # offer on the table at the node (nan for opt-out nodes)
    prescribed_value: float
    deviation_value: float
    gain: float


def _scan_offers(cert: EquilibriumCertificate, scan_grid: int) -> np.ndarray:
    delta = cert.params.delta
    breakpoints = [
        cert.u_f,
        cert.u_c1,
        cert.u_c2,
        cert.u_f / delta,
        cert.u_c1 / delta,
        cert.u_c2 / delta,
        cert.z_fc1,
        cert.z_fc2,
        cert.z_c1f,
        cert.z_c2f,
        1.0 - cert.z_fc1,
        1.0 - cert.z_fc2,
        1.0 - cert.z_c1f,
        1.0 - cert.z_c2f,
        1.0 - delta + cert.u_f,
        1.0 - delta + cert.u_c1,
        1.0 - delta + cert.u_c2,
        delta - cert.u_f,
        delta - cert.u_c1,
        delta - cert.u_c2,
    ]
    grid = np.concatenate(
        [np.linspace(0.0, 1.0, scan_grid + 1), np.clip(breakpoints, 0.0, 1.0)]
    )
    return np.unique(grid)


def one_shot_deviation_scan(
    cert: EquilibriumCertificate,
    mp: Optional[MarketParams] = None,
    scan_grid: int = 200,
) -> List[Deviation]:
    """Scan every decision node of the automaton profile for a profitable
    one-shot deviation (play continuing per the automata afterwards).

    Nodes covered, for each pairing, proposer role, and state: the proposer's
    offer (over a value grid of ``scan_grid + 1`` points plus all thresholds
    and reservation values), the responder's accept/reject choice at each such
    offer, and the responder's walk-away after rejecting a sub-threshold
    offer (every other walk-away flag is payoff-neutral).  Returns every
    deviation improving the deviator's payoff by more than SCAN_TOL; an empty
    list certifies the one-shot-deviation property at the scanned resolution.
    """
    if mp is None:
        mp = cert.params
    delta, tol = mp.delta, SCAN_TOL
    offers = _scan_offers(cert, scan_grid)
    deviations: List[Deviation] = []

    def found(node_of, agent, node, action, offer, prescribed, value) -> None:
        """Record one deviation at ``node_of`` = (pairing, state, proposer)."""
        deviations.append(Deviation(
            *node_of, agent, node, action, float(offer), float(prescribed),
            float(value), float(value - prescribed),
        ))

    for pairing in (1, 2):
        z_f, z_c, u_f, u_c = _pair_data(cert, pairing)
        for proposer in ("firm", "candidate"):
            responder = "candidate" if proposer == "firm" else "firm"
            z_keep = z_f if proposer == "firm" else z_c
            u_P = u_f if proposer == "firm" else u_c
            u_R = u_c if proposer == "firm" else u_f
            for state in ("base", "threat"):
                here = (pairing, state, proposer)
                if state == "base":
                    threshold = 1.0 - z_keep
                    onpath_P = z_keep
                else:
                    threshold = u_R / delta
                    onpath_P = 1.0 - u_R / delta
                # value to the responder of rejecting a sub-threshold offer:
                # the proposer stays, the match enters the threat state, and
                # the responder proposes next round
                reject_low = delta - u_P
                accepted = offers >= threshold

                # proposer deviates in its offer
                dev_value = np.where(accepted, 1.0 - offers, u_P)
                for i in np.nonzero(dev_value > onpath_P + tol)[0]:
                    found(here, proposer, "proposal", "propose", offers[i], onpath_P,
                          dev_value[i])

                # responder flips its accept/reject choice; rejecting an
                # acceptable offer makes the proposer walk away (the
                # rejection was the deviation), so it is worth u_R
                prescribed = np.where(accepted, offers, reject_low)
                flipped = np.where(accepted, u_R, offers)
                for i in np.nonzero(flipped > prescribed + tol)[0]:
                    action = "reject" if accepted[i] else "accept"
                    found(here, responder, "response", action, offers[i],
                          prescribed[i], flipped[i])

                # walk-away flips after a rejection.  The proposer's flag is
                # payoff-neutral either way (walking away yields u_P, staying
                # leaves it responding in the threat state, worth
                # delta * u_P / delta), and so is the responder's after an
                # acceptable offer; its only live flip is to walk away after
                # rejecting a lowball instead of proposing in the threat state.
                if threshold > 0.0 and u_R > reject_low + tol:
                    found(here, responder, "optout", "opt-out", math.nan, reject_low, u_R)
    return deviations


# ---------------------------------------------------------------------------
# m firms, n candidate types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiMarketParams:
    """General market with m firm roles and n candidate types.

    ``p_vec[i]``: probability a candidate's next match is with firm i.
    ``q_vec[j]``: probability a firm's next match is with a type-j candidate.
    ``W[i][j]``: firm i's target expected match payoff against type j.
    """

    delta: float
    tau: float
    p_vec: Tuple[float, ...]
    q_vec: Tuple[float, ...]
    W: Tuple[Tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        _require_tau(self.tau)
        object.__setattr__(self, "p_vec", tuple(float(x) for x in self.p_vec))
        object.__setattr__(self, "q_vec", tuple(float(x) for x in self.q_vec))
        object.__setattr__(
            self, "W", tuple(tuple(float(x) for x in row) for row in self.W)
        )
        for name, vec in (("p_vec", self.p_vec), ("q_vec", self.q_vec)):
            if not vec:
                raise ValueError(f"{name} must be non-empty")
            if any(x < 0.0 for x in vec):
                raise ValueError(f"{name} entries must be non-negative")
            if abs(math.fsum(vec) - 1.0) > BOUNDARY_TOL:
                raise ValueError(f"{name} must sum to 1, got {math.fsum(vec)}")
        if len(self.W) != len(self.p_vec):
            raise ValueError(
                f"W has {len(self.W)} rows, expected {len(self.p_vec)}"
            )
        for row in self.W:
            if len(row) != len(self.q_vec):
                raise ValueError(
                    f"W row length {len(row)} != {len(self.q_vec)} types"
                )
            for x in row:
                _require_unit_interval("W entry", x)

    @property
    def m(self) -> int:
        return len(self.p_vec)

    @property
    def n(self) -> int:
        return len(self.q_vec)


def multi_constraint_rhs(
    mmp: MultiMarketParams,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-entry (upper, lower) support bounds for the payoff matrix.

    Entry (i, j) of the upper bound caps w_ij given the rest of column j
    (candidate j's trade-off across firms); the lower bound floors w_ij given
    the rest of row i (firm i's trade-off across types).
    """
    W = np.asarray(mmp.W, dtype=np.float64)
    p = np.asarray(mmp.p_vec, dtype=np.float64)
    q = np.asarray(mmp.q_vec, dtype=np.float64)
    delta, tau = mmp.delta, mmp.tau
    col = p @ (1.0 - W)  # col[j] = sum_i p_i (1 - w_ij)
    others_col = col[None, :] - p[:, None] * (1.0 - W)
    upper = (1.0 + delta - 2.0 * tau * p[:, None] - 2.0 * tau * others_col) / (
        2.0 * (1.0 - tau * p[:, None])
    )
    row = W @ q  # row[i] = sum_j q_j w_ij
    others_row = row[:, None] - q[None, :] * W
    lower = (1.0 - delta + 2.0 * tau * others_row) / (
        2.0 * (1.0 - tau * q[None, :])
    )
    return upper, lower


def multi_feasible(mmp: MultiMarketParams) -> bool:
    """Whether the full payoff matrix satisfies every support bound, up to
    BOUNDARY_TOL."""
    W = np.asarray(mmp.W, dtype=np.float64)
    upper, lower = multi_constraint_rhs(mmp)
    return bool(
        (W <= upper + BOUNDARY_TOL).all() and (W >= lower - BOUNDARY_TOL).all()
    )


def multi_discriminatory(
    m: int,
    n: int,
    delta: float,
    tau: float,
    target_candidate: Optional[int] = None,
    p_vec: Optional[Sequence[float]] = None,
    q_vec: Optional[Sequence[float]] = None,
) -> MultiMarketParams:
    """Construct a supportable payoff matrix that discriminates by identity.

    With ``target_candidate`` given, every firm extracts an above-half share
    from that type while all other types keep above-half payoffs; without
    it, every firm extracts an above-half share from every type.  Matching
    probabilities default to uniform.  Raises when the shape is degenerate,
    the opt-out regime fails, or the target index is out of range.
    """
    if m < 1 or n < 1:
        raise ValueError(f"market shape must be at least 1x1, got {m}x{n}")
    market = MarketParams(delta=delta, tau=tau, p=0.5)
    if not market.in_theorem1_regime:
        raise ValueError(
            f"tau={tau} exceeds the supportable regime bound for delta={delta}"
        )
    if target_candidate is not None and not 0 <= target_candidate < n:
        raise ValueError(
            f"target_candidate must lie in [0, {n}), got {target_candidate}"
        )
    if p_vec is None:
        p_vec = tuple(1.0 / m for _ in range(m))
    if q_vec is None:
        q_vec = tuple(1.0 / n for _ in range(n))
    L, G = w_bounds(market)
    g = 0.5 * (0.5 + G)  # above-half entry, strictly below G
    if target_candidate is None:
        W = tuple(tuple(g for _ in range(n)) for _ in range(m))
    else:
        # Pick the non-target value v midway between 1/2 and the largest
        # lower support bound when non-target entries sit at 1/2; the bound
        # increases in those entries, so lowering them to v keeps it valid.
        probe_rows = tuple(
            tuple(g if j == target_candidate else 0.5 for j in range(n))
            for _ in range(m)
        )
        probe = MultiMarketParams(
            delta=delta, tau=tau, p_vec=tuple(p_vec), q_vec=tuple(q_vec), W=probe_rows
        )
        _, lower = multi_constraint_rhs(probe)
        mask = np.ones(n, dtype=bool)
        mask[target_candidate] = False
        l_star = float(lower[:, mask].max()) if mask.any() else 0.0
        v = 0.5 * (l_star + 0.5)
        W = tuple(
            tuple(g if j == target_candidate else v for j in range(n))
            for _ in range(m)
        )
    mmp = MultiMarketParams(
        delta=delta, tau=tau, p_vec=tuple(p_vec), q_vec=tuple(q_vec), W=W
    )
    if not multi_feasible(mmp):  # pragma: no cover - construction guarantee
        raise RuntimeError("constructed matrix unexpectedly infeasible")
    return mmp
