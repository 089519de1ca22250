"""Tests for the stationary-equilibrium toolbox.

The worked instance used throughout: discount 0.9, opt-out cost 0.4, match
probability 0.5, with the firm's target shares at their exact boundary values
w1 = 7/24 (lower bound) and w2 = 11/12 (upper bound).  All certificate
numbers below are hand-derived from those fractions:

    u_f = 0.4 * (0.5*7/24 + 0.5*11/12) = 29/120
    u_c1 = 0.4 * 17/24 = 17/60,  u_c2 = 0.4 * 1/12 = 1/30
    z_fc1 interval collapses at 41/120, z_c1f = 91/120
    z_fc2 interval collapses at 29/30,  z_c2f = 2/15
"""

import dataclasses
import hashlib
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bargainlab.spe import (
    _scan_offers,
    BOUNDARY_TOL,
    Deviation,
    EquilibriumCertificate,
    FeasibilityError,
    MarketParams,
    MatchOutcome,
    MultiMarketParams,
    PayoffTarget,
    construct_certificate,
    expected_match_payoffs,
    feasibility_violations,
    feasible_payoffs,
    multi_constraint_rhs,
    multi_discriminatory,
    multi_feasible,
    one_shot_deviation_scan,
    payoff_gaps,
    prop2_check,
    sample_feasible_instance,
    simulate_automata,
    theorem1_feasible,
    w_bounds,
    w1_lower_bound,
    w2_lower_bound,
)

MP = MarketParams(delta=0.9, tau=0.4, p=0.5)
TGT = PayoffTarget(w1=7 / 24, w2=11 / 12)


# ---------------------------------------------------------------------------
# parameter types
# ---------------------------------------------------------------------------


class TestParams:
    def test_market_params_validation(self):
        with pytest.raises(ValueError):
            MarketParams(delta=0.0, tau=0.4, p=0.5)
        with pytest.raises(ValueError):
            MarketParams(delta=1.0, tau=0.4, p=0.5)
        with pytest.raises(ValueError):
            MarketParams(delta=0.9, tau=-0.1, p=0.5)
        with pytest.raises(ValueError):
            MarketParams(delta=0.9, tau=0.4, p=1.5)

    def test_regime_flag(self):
        assert MP.in_theorem1_regime
        assert not MarketParams(delta=0.9, tau=0.45, p=0.5).in_theorem1_regime
        # the boundary itself belongs to the regime
        assert MarketParams(delta=0.9, tau=0.81 / 1.9, p=0.5).in_theorem1_regime

    def test_payoff_target_validation(self):
        with pytest.raises(ValueError):
            PayoffTarget(w1=-0.1, w2=0.5)
        with pytest.raises(ValueError):
            PayoffTarget(w1=0.5, w2=1.1)

    def test_multi_market_validation(self):
        with pytest.raises(ValueError):
            MultiMarketParams(
                delta=0.9,
                tau=0.3,
                p_vec=(0.6, 0.3),  # does not sum to 1
                q_vec=(0.5, 0.5),
                W=((0.5, 0.5), (0.5, 0.5)),
            )
        with pytest.raises(ValueError):
            MultiMarketParams(
                delta=0.9,
                tau=0.3,
                p_vec=(0.5, 0.5),
                q_vec=(1.0,),
                W=((0.5, 0.5), (0.5, 0.5)),  # row length != len(q_vec)
            )
        with pytest.raises(ValueError):
            MultiMarketParams(
                delta=0.9,
                tau=0.3,
                p_vec=(1.0,),
                q_vec=(1.0,),
                W=((1.5,),),  # entry outside [0, 1]
            )
        mmp = MultiMarketParams(
            delta=0.9,
            tau=0.3,
            p_vec=(0.5, 0.5),
            q_vec=(0.25, 0.75),
            W=((0.5, 0.5), (0.5, 0.5)),
        )
        assert (mmp.m, mmp.n) == (2, 2)

    @pytest.mark.parametrize("fields, message", [
        ({"delta": 1.0}, "delta must lie in (0, 1), got 1.0"),
        ({"p_vec": ()}, "p_vec must be non-empty"),
        ({"q_vec": (1.5, -0.5)}, "q_vec entries must be non-negative"),
        ({"p_vec": (1.0,)}, "W has 2 rows, expected 1"),
    ])
    def test_multi_market_rejects_each_field(self, fields, message):
        good = {"delta": 0.9, "tau": 0.3, "p_vec": (0.5, 0.5),
                "q_vec": (0.25, 0.75), "W": ((0.5, 0.5), (0.5, 0.5))}
        with pytest.raises(ValueError, match=re.escape(message)):
            MultiMarketParams(**{**good, **fields})


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------


class TestTheorem1Feasible:
    def test_worked_instance_boundary_target_is_feasible(self):
        assert feasibility_violations(MP, TGT) == []
        assert theorem1_feasible(MP, TGT)

    def test_four_decimal_rounding_of_the_boundary_is_not(self):
        # rounding the exact boundary fractions to 4 decimals pushes w2 above
        # its upper bound by ~3e-5, far beyond the 1e-12 boundary tolerance
        # (the rounded w1 happens to clear its lower bound)
        rounded = PayoffTarget(w1=0.2917, w2=0.9167)
        assert feasibility_violations(MP, rounded) == ["w2-upper"]
        assert not theorem1_feasible(MP, rounded)

    def test_excessive_optout_cost_fails_regime(self):
        mp = MarketParams(delta=0.9, tau=0.5, p=0.5)
        assert "tau-regime" in feasibility_violations(mp, PayoffTarget(0.5, 0.5))
        assert not theorem1_feasible(mp, PayoffTarget(0.5, 0.5))

    def test_symmetric_upper_bound_target_is_feasible_for_any_p(self):
        for p in (0.1, 0.3, 0.5, 0.9):
            mp = MarketParams(delta=0.9, tau=0.4, p=p)
            _, G = w_bounds(mp)
            assert theorem1_feasible(mp, PayoffTarget(G, G))

    def test_target_above_upper_bound_fails(self):
        _, G = w_bounds(MP)
        assert "w1-upper" in feasibility_violations(
            MP, PayoffTarget(min(1.0, G + 1e-6), 0.5)
        )

    def test_bounds_helpers_are_mutually_consistent(self):
        # w1 at w1_lower_bound(w2) makes the pair feasible when w2 <= G
        L, G = w_bounds(MP)
        w2 = 0.8
        w1 = w1_lower_bound(MP, w2)
        assert theorem1_feasible(MP, PayoffTarget(w1, w2))
        assert w2 >= w2_lower_bound(MP, w1) - 1e-12
        assert L < 0.5 < G

    def test_sampler_yields_feasible_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mp, tgt = sample_feasible_instance(rng)
            assert theorem1_feasible(mp, tgt)
            assert mp.in_theorem1_regime


# ---------------------------------------------------------------------------
# certificate construction
# ---------------------------------------------------------------------------


class TestConstructCertificate:
    def test_worked_instance_values(self):
        cert = construct_certificate(MP, TGT)
        assert cert.u_f == pytest.approx(29 / 120, abs=1e-12)
        assert cert.u_c1 == pytest.approx(17 / 60, abs=1e-12)
        assert cert.u_c2 == pytest.approx(1 / 30, abs=1e-12)
        assert cert.z_fc1 == pytest.approx(41 / 120, abs=1e-12)
        assert cert.z_c1f == pytest.approx(91 / 120, abs=1e-12)
        assert cert.z_fc2 == pytest.approx(29 / 30, abs=1e-12)
        assert cert.z_c2f == pytest.approx(2 / 15, abs=1e-12)
        assert cert.W_f == pytest.approx(29 / 48, abs=1e-12)
        assert cert.W_c1 == pytest.approx(17 / 24, abs=1e-12)
        assert cert.W_c2 == pytest.approx(1 / 12, abs=1e-12)

    def test_split_identities(self):
        cert = construct_certificate(MP, TGT)
        for z_f, z_c, w in (
            (cert.z_fc1, cert.z_c1f, TGT.w1),
            (cert.z_fc2, cert.z_c2f, TGT.w2),
        ):
            assert z_c == pytest.approx(1 + z_f - 2 * w, abs=1e-12)
            assert 0.5 * z_f + 0.5 * (1 - z_c) == pytest.approx(w, abs=1e-12)

    def test_infeasible_target_raises_with_constraint_name(self):
        with pytest.raises(FeasibilityError, match="w2-upper"):
            construct_certificate(MP, PayoffTarget(w1=7 / 24, w2=0.95))

    def test_zero_optout_cost_zeroes_outside_options(self):
        mp = MarketParams(delta=0.9, tau=0.0, p=0.5)
        cert = construct_certificate(mp, PayoffTarget(0.94, 0.94))
        assert cert.u_f == cert.u_c1 == cert.u_c2 == 0.0
        # interval [max(1-delta, 2w-delta), min(1, 2w)] = [0.98, 1.0]
        assert cert.z_fc1 == pytest.approx(0.99, abs=1e-12)

    def test_symmetric_equal_split(self):
        mp = MarketParams(delta=0.9, tau=0.3, p=0.5)
        cert = construct_certificate(mp, PayoffTarget(0.5, 0.5))
        assert cert.W_f == pytest.approx(0.5, abs=1e-12)
        assert cert.z_fc1 == pytest.approx(cert.z_c1f, abs=1e-12)

    def test_endpoint_rules(self):
        mp = MarketParams(delta=0.9, tau=0.0, p=0.5)
        lo = construct_certificate(mp, PayoffTarget(0.5, 0.5), z_rule="lower")
        hi = construct_certificate(mp, PayoffTarget(0.5, 0.5), z_rule="upper")
        mid = construct_certificate(mp, PayoffTarget(0.5, 0.5))
        assert lo.z_fc1 == pytest.approx(0.1, abs=1e-12)
        assert hi.z_fc1 == pytest.approx(1.0, abs=1e-12)
        assert mid.z_fc1 == pytest.approx(0.55, abs=1e-12)
        for cert in (lo, hi, mid):
            assert 0.5 * cert.z_fc1 + 0.5 * (1 - cert.z_c1f) == pytest.approx(
                0.5, abs=1e-12
            )
        with pytest.raises(ValueError):
            construct_certificate(mp, PayoffTarget(0.5, 0.5), z_rule="nope")


# ---------------------------------------------------------------------------
# prop2_check
# ---------------------------------------------------------------------------


class TestProp2Check:
    def test_constructed_certificates_pass(self):
        assert prop2_check(construct_certificate(MP, TGT))
        mp0 = MarketParams(delta=0.9, tau=0.0, p=0.5)
        assert prop2_check(construct_certificate(mp0, PayoffTarget(0.5, 0.5)))

    def test_boundary_regime_still_passes(self):
        tau_star = 0.81 / 1.9
        mp = MarketParams(delta=0.9, tau=tau_star, p=0.5)
        _, G = w_bounds(mp)
        cert = construct_certificate(mp, PayoffTarget(G, G))
        assert prop2_check(cert)

    def test_perturbed_outside_option_breaks_stationarity(self):
        cert = construct_certificate(MP, TGT)
        broken = dataclasses.replace(cert, u_f=cert.u_f + 0.05)
        assert not prop2_check(broken)

    def test_out_of_range_share_fails(self):
        cert = construct_certificate(MP, TGT)
        broken = dataclasses.replace(cert, z_fc1=1 - cert.u_c1 + 0.01)
        assert not prop2_check(broken)

    def test_sampled_pipeline(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            mp, tgt = sample_feasible_instance(rng)
            cert = construct_certificate(mp, tgt)
            assert prop2_check(cert), (mp, tgt)

    @staticmethod
    def _violated(cert):
        """The Proposition 2 conditions ``cert`` violates, written out on
        their own: each pairing's share ranges and mutual threats, then W
        from the shares and u = tau * W."""
        mp, tol = cert.params, 1e-12
        d, out = mp.delta, set()
        for z_f, z_c, u_c in ((cert.z_fc1, cert.z_c1f, cert.u_c1),
                              (cert.z_fc2, cert.z_c2f, cert.u_c2)):
            if not 1 - d + cert.u_f - tol <= z_f <= 1 - u_c + tol:
                out.add("firm share")
            if not 1 - d + u_c - tol <= z_c <= 1 - cert.u_f + tol:
                out.add("candidate share")
            if cert.u_f > d * d - d * u_c + tol:
                out.add("firm threat")
            if u_c > d * d - d * cert.u_f + tol:
                out.add("candidate threat")
        w1 = (cert.z_fc1 + 1 - cert.z_c1f) / 2
        w2 = (cert.z_fc2 + 1 - cert.z_c2f) / 2
        W = (mp.p * w1 + (1 - mp.p) * w2, 1 - w1, 1 - w2)
        if max(map(abs, np.subtract((cert.W_f, cert.W_c1, cert.W_c2), W))) > tol:
            out.add("W")
        if max(map(abs, np.subtract((cert.u_f, cert.u_c1, cert.u_c2),
                                    np.multiply(mp.tau, W)))) > tol:
            out.add("u = tau W")
        return out

    @staticmethod
    def _stationary(mp, z_fc1, z_c1f, z_fc2, z_c2f):
        """Certificate fields of these shares with W computed from them and
        u = tau * W, whatever the ranges and threats say."""
        w1, w2 = (z_fc1 + 1 - z_c1f) / 2, (z_fc2 + 1 - z_c2f) / 2
        W_f, W_c1, W_c2 = mp.p * w1 + (1 - mp.p) * w2, 1 - w1, 1 - w2
        return dict(params=mp, z_fc1=z_fc1, z_c1f=z_c1f, z_fc2=z_fc2,
                    z_c2f=z_c2f, W_f=W_f, W_c1=W_c1, W_c2=W_c2, u_f=mp.tau * W_f,
                    u_c1=mp.tau * W_c1, u_c2=mp.tau * W_c2)

    def test_each_condition_alone_fails_the_check(self):
        """One perturbation per condition, each breaking that condition only
        (by at least 0.005), so every rejecting branch is reached."""
        cert = construct_certificate(MP, TGT)
        assert self._violated(cert) == set() and prop2_check(cert)
        # tau = 0.7 lies outside the theorem's regime; prop2_check does not ask
        loose = MarketParams(delta=0.8, tau=0.7, p=0.5)
        broken = {
            # both type-1 shares move together, so w1 and W stay
            "candidate share": dict(z_fc1=cert.z_fc1 + 0.01,
                                    z_c1f=cert.z_c1f + 0.01),
            "firm threat": self._stationary(loose, 0.7, 0.5, 0.75, 0.45),
            "candidate threat": self._stationary(loose, 0.5, 0.65, 0.5, 0.7),
            "W": dict(W_f=cert.W_f + 0.01),
            "u = tau W": dict(u_c2=cert.u_c2 - 0.01),
        }
        for condition, fields in broken.items():
            perturbed = dataclasses.replace(cert, **fields)
            assert self._violated(perturbed) == {condition}
            assert not prop2_check(perturbed), condition


# ---------------------------------------------------------------------------
# payoff gaps
# ---------------------------------------------------------------------------


class TestPayoffGaps:
    def test_worked_instance(self):
        gaps = payoff_gaps(MP)
        assert gaps.candidate_gap == pytest.approx(0.625, abs=1e-12)
        assert gaps.firm_gap == pytest.approx(5 / 6, abs=1e-12)

    def test_vanishing_at_tau_equals_delta(self):
        gaps = payoff_gaps(MarketParams(delta=0.7, tau=0.7, p=0.3))
        assert gaps.candidate_gap == 0.0 and gaps.firm_gap == 0.0

    def test_limit_as_one_group_vanishes(self):
        gaps = payoff_gaps(MarketParams(delta=0.9, tau=0.2, p=0.0))
        assert gaps.candidate_gap == pytest.approx(0.7, abs=1e-12)

    def test_boundary_construction_reproduces_gaps(self):
        # the gap between w2 at its upper bound and w1 at its implied lower
        # bound equals the candidate gap; G - L equals the firm gap
        for delta, tau_frac, p in product(
            (0.4, 0.6, 0.9), (0.2, 0.7, 1.0), (0.15, 0.5, 0.85)
        ):
            tau = tau_frac * delta * delta / (1 + delta)
            mp = MarketParams(delta=delta, tau=tau, p=p)
            L, G = w_bounds(mp)
            gaps = payoff_gaps(mp)
            assert G - w1_lower_bound(mp, G) == pytest.approx(
                gaps.candidate_gap, abs=1e-12
            )
            assert G - L == pytest.approx(gaps.firm_gap, abs=1e-12)


# ---------------------------------------------------------------------------
# automaton simulation
# ---------------------------------------------------------------------------


class TestSimulateAutomata:
    def test_firm_proposes_to_c1(self):
        cert = construct_certificate(MP, TGT)
        out = simulate_automata(cert, pairing=1, first_proposer="firm")
        assert out == MatchOutcome(
            agreement_round=1,
            firm_share=pytest.approx(41 / 120, abs=1e-12),
            candidate_share=pytest.approx(79 / 120, abs=1e-12),
            first_proposer="firm",
            pairing=1,
        )

    def test_candidate_proposes_and_coin_average(self):
        cert = construct_certificate(MP, TGT)
        out = simulate_automata(cert, pairing=1, first_proposer="candidate")
        assert out.agreement_round == 1
        assert out.candidate_share == pytest.approx(91 / 120, abs=1e-12)
        other = simulate_automata(cert, pairing=1, first_proposer="firm")
        avg_candidate = 0.5 * (out.candidate_share + other.candidate_share)
        assert avg_candidate == pytest.approx(1 - TGT.w1, abs=1e-12)

    def test_symmetric_zero_cost_averages_to_half(self):
        mp = MarketParams(delta=0.9, tau=0.0, p=0.5)
        cert = construct_certificate(mp, PayoffTarget(0.5, 0.5))
        a = simulate_automata(cert, pairing=2, first_proposer="firm")
        b = simulate_automata(cert, pairing=2, first_proposer="candidate")
        assert 0.5 * (a.firm_share + b.firm_share) == pytest.approx(0.5, abs=1e-12)

    def test_expected_match_payoffs_reproduce_targets(self):
        cert = construct_certificate(MP, TGT)
        W_f, W_c1, W_c2 = expected_match_payoffs(cert)
        assert W_f == pytest.approx(29 / 48, abs=1e-12)
        assert W_c1 == pytest.approx(17 / 24, abs=1e-12)
        assert W_c2 == pytest.approx(1 / 12, abs=1e-12)

    def test_pairing_validation(self):
        cert = construct_certificate(MP, TGT)
        with pytest.raises(ValueError):
            simulate_automata(cert, pairing=3, first_proposer="firm")
        with pytest.raises(ValueError):
            simulate_automata(cert, pairing=1, first_proposer="nobody")


# ---------------------------------------------------------------------------
# one-shot deviation scan
# ---------------------------------------------------------------------------


class TestOneShotDeviationScan:
    def test_worked_instance_is_clean(self):
        cert = construct_certificate(MP, TGT)
        assert one_shot_deviation_scan(cert, MP, scan_grid=200) == []

    def test_rubinstein_like_sanity(self):
        mp = MarketParams(delta=0.99, tau=0.0, p=0.5)
        cert = construct_certificate(mp, PayoffTarget(0.5, 0.5))
        assert one_shot_deviation_scan(cert, mp, scan_grid=200) == []

    def test_overgreedy_share_triggers_response_deviation(self):
        cert = construct_certificate(MP, TGT)
        broken = dataclasses.replace(
            cert, z_fc1=1 - cert.u_c1 + 0.01, z_c1f=1 + (1 - cert.u_c1 + 0.01) - 2 * TGT.w1
        )
        devs = one_shot_deviation_scan(broken, MP, scan_grid=200)
        assert devs, "raising z_fc1 above 1-u_c1 must surface a deviation"
        assert any(
            d.node == "response" and d.agent == "candidate" and d.state == "base"
            for d in devs
        )

    def test_low_share_triggers_threshold_credibility_deviation(self):
        # pushing z_fc1 below 1 - delta + u_f makes accepting a near-threshold
        # lowball better for the candidate than the punishment continuation
        cert = construct_certificate(MP, TGT)
        z_bad = 1 - MP.delta + cert.u_f - 0.02
        broken = dataclasses.replace(
            cert, z_fc1=z_bad, z_c1f=1 + z_bad - 2 * TGT.w1
        )
        devs = one_shot_deviation_scan(broken, MP, scan_grid=200)
        assert any(d.node == "response" for d in devs)

    def test_gain_fields_are_positive_and_sorted_inputs_scanned(self):
        cert = construct_certificate(MP, TGT)
        broken = dataclasses.replace(cert, z_fc2=cert.z_fc2 + 0.03,
                                     z_c2f=cert.z_c2f + 0.03)
        devs = one_shot_deviation_scan(broken, MP, scan_grid=200)
        for d in devs:
            assert d.gain > 1e-9
            assert d.deviation_value > d.prescribed_value

    def test_sampled_pipeline_is_clean(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            mp, tgt = sample_feasible_instance(rng)
            cert = construct_certificate(mp, tgt)
            assert one_shot_deviation_scan(cert, mp, scan_grid=200) == []
            W_f, W_c1, W_c2 = expected_match_payoffs(cert)
            assert W_f == pytest.approx(
                mp.p * tgt.w1 + (1 - mp.p) * tgt.w2, abs=1e-9
            )
            assert W_c1 == pytest.approx(1 - tgt.w1, abs=1e-9)
            assert W_c2 == pytest.approx(1 - tgt.w2, abs=1e-9)


# ---------------------------------------------------------------------------
# m-by-n generalization
# ---------------------------------------------------------------------------


def _uniform_mmp(delta, tau, W):
    W = tuple(tuple(row) for row in W)
    m, n = len(W), len(W[0])
    return MultiMarketParams(
        delta=delta,
        tau=tau,
        p_vec=tuple(1 / m for _ in range(m)),
        q_vec=tuple(1 / n for _ in range(n)),
        W=W,
    )


class TestMultiMarket:
    def test_all_half_matrix_is_feasible(self):
        mmp = _uniform_mmp(0.9, 0.3, [[0.5] * 3, [0.5] * 3])
        assert multi_feasible(mmp)

    def test_column_above_G_is_infeasible(self):
        # G = 13/14 for delta=0.9, tau=0.3
        mmp = _uniform_mmp(0.9, 0.3, [[0.95, 0.5, 0.5], [0.95, 0.5, 0.5]])
        assert not multi_feasible(mmp)

    def test_single_pair_constraint_rhs_equals_theorem1_bounds(self):
        mmp = MultiMarketParams(
            delta=0.9,
            tau=0.3,
            p_vec=(1.0,),
            q_vec=(1.0,),
            W=((0.5,),),
        )
        upper, lower = multi_constraint_rhs(mmp)
        L, G = w_bounds(MarketParams(delta=0.9, tau=0.3, p=1.0))
        assert upper[0, 0] == pytest.approx(G, abs=1e-12)
        assert lower[0, 0] == pytest.approx(L, abs=1e-12)

    def test_reduction_to_theorem1(self):
        """m=1, n=2 with q=(p, 1-p) agrees with the two-type feasibility test
        (the regime check is the only extra condition on that side)."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            delta = rng.uniform(0.4, 0.97)
            tau = rng.uniform(0.02, 0.95) * delta * delta / (1 + delta)
            p = rng.uniform(0.05, 0.95)
            w1, w2 = rng.uniform(0, 1, size=2)
            mp = MarketParams(delta=delta, tau=tau, p=p)
            mmp = MultiMarketParams(
                delta=delta,
                tau=tau,
                p_vec=(1.0,),
                q_vec=(p, 1 - p),
                W=((w1, w2),),
            )
            assert multi_feasible(mmp) == theorem1_feasible(
                mp, PayoffTarget(w1, w2)
            )

    def test_rhs_interval_bounds_on_random_instances(self):
        """With entries drawn inside (L, G) and the opt-out regime holding,
        the upper-constraint RHS lies in (1/2, G] and the lower in (L, 1/2)."""
        rng = np.random.default_rng(41)
        for _ in range(300):
            m, n = rng.integers(2, 5, size=2)
            delta = rng.uniform(0.35, 0.98)
            tau = rng.uniform(0.02, 0.98) * delta * delta / (1 + delta)
            L, G = w_bounds(MarketParams(delta=delta, tau=tau, p=0.5))
            p_vec = rng.uniform(0.1, 1.0, size=m)
            q_vec = rng.uniform(0.1, 1.0, size=n)
            mmp = MultiMarketParams(
                delta=delta,
                tau=tau,
                p_vec=tuple(p_vec / p_vec.sum()),
                q_vec=tuple(q_vec / q_vec.sum()),
                W=tuple(
                    tuple(rng.uniform(L, G) for _ in range(n)) for _ in range(m)
                ),
            )
            upper, lower = multi_constraint_rhs(mmp)
            assert (upper > 0.5).all() and (upper <= G + 1e-12).all()
            assert (lower < 0.5).all() and (lower > L - 1e-12).all()

    def test_discriminatory_single_target(self):
        mmp = multi_discriminatory(2, 3, delta=0.9, tau=0.3, target_candidate=0)
        assert multi_feasible(mmp)
        W = np.array(mmp.W)
        p = np.array(mmp.p_vec)
        candidate_payoffs = (p[:, None] * (1 - W)).sum(axis=0)
        assert candidate_payoffs[0] < 0.5
        assert (candidate_payoffs[1:] > 0.5).all()

    def test_discriminatory_all_firm_favoring(self):
        mmp = multi_discriminatory(1, 2, delta=0.9, tau=0.3)
        assert multi_feasible(mmp)
        W = np.array(mmp.W)
        q = np.array(mmp.q_vec)
        firm_payoff = (W * q).sum(axis=1)
        candidate_payoffs = (np.array(mmp.p_vec)[:, None] * (1 - W)).sum(axis=0)
        assert (firm_payoff > 0.5).all()
        assert (candidate_payoffs < 0.5).all()

    def test_discriminatory_validation(self):
        with pytest.raises(ValueError):
            multi_discriminatory(0, 2, delta=0.9, tau=0.3)
        with pytest.raises(ValueError):
            multi_discriminatory(2, 2, delta=0.9, tau=0.5)  # regime violated
        with pytest.raises(ValueError):
            multi_discriminatory(2, 2, delta=0.9, tau=0.3, target_candidate=5)


def test_high_outside_option_triggers_responder_walk_away():
    # an outside option u_c1 above delta - u_f makes walking away after
    # rejecting a lowball better than proposing in the threat state, for the
    # candidate facing the firm and (with u_f above delta - u_c1) vice versa
    cert = construct_certificate(MP, TGT)
    broken = dataclasses.replace(cert, u_c1=MP.delta - cert.u_f + 0.02)
    devs = one_shot_deviation_scan(broken, MP, scan_grid=200)
    walk = {(d.agent, d.state) for d in devs if d.node == "optout"}
    assert walk == {(agent, state) for agent in ("firm", "candidate")
                    for state in ("base", "threat")}
    for d in devs:
        if d.node == "optout":
            assert d.agent != d.proposer and d.pairing == 1
            assert d.action == "opt-out" and np.isnan(d.offer)


# ---------------------------------------------------------------------------
# the tau domain and the one regime decision
# ---------------------------------------------------------------------------


def test_tau_one_is_outside_the_domain():
    with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\), got 1.0"):
        MarketParams(delta=0.9, tau=1.0, p=0.5)
    with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\), got 1.0"):
        MultiMarketParams(
            delta=0.9, tau=1.0, p_vec=(1.0,), q_vec=(1.0,), W=((0.5,),)
        )


@pytest.mark.parametrize("excess, inside", [(5e-13, True), (2e-12, False)])
def test_every_regime_decision_allows_boundary_tol(excess, inside):
    tau = 0.81 / 1.9 + excess
    mp = MarketParams(delta=0.9, tau=tau, p=0.5)
    assert mp.in_theorem1_regime is inside
    assert ("tau-regime" in feasibility_violations(mp, PayoffTarget(0.5, 0.5))) is not inside
    if inside:
        assert multi_feasible(multi_discriminatory(2, 2, delta=0.9, tau=tau))
    else:
        with pytest.raises(ValueError, match="regime"):
            multi_discriminatory(2, 2, delta=0.9, tau=tau)


def test_scan_reports_the_firms_proposal_deviation():
    """A firm share z_fc1 = u_f / 2 is below the firm's outside option:
    every base-state offer below the candidate's threshold 1 - z_fc1 gets
    rejected and pays the firm u_f instead, a gain of u_f - z_fc1."""
    mp = MarketParams(delta=0.9, tau=0.4, p=0.5)
    cert = construct_certificate(mp, PayoffTarget(0.5, 0.5))
    broken = dataclasses.replace(cert, z_fc1=cert.u_f / 2)
    assert broken.u_f - broken.z_fc1 == pytest.approx(0.1, abs=1e-15)
    devs = [d for d in one_shot_deviation_scan(broken, mp) if d.node == "proposal"]
    assert devs
    for d in devs:
        assert (d.pairing, d.state, d.proposer, d.agent, d.action) == (
            1, "base", "firm", "firm", "propose"
        )
        assert d.gain == broken.u_f - broken.z_fc1
        assert d.offer < 1.0 - broken.z_fc1
    threshold = 1.0 - broken.z_fc1
    assert [d.offer for d in devs] == [
        o for o in _scan_offers(broken, 200).tolist() if o < threshold
    ]


@st.composite
def _region_markets(draw):
    """A market and a lattice resolution, with tau drawn at and around the
    regime bound delta^2/(1+delta) as well as inside and beyond it."""
    delta = draw(st.floats(min_value=0.01, max_value=0.99))
    bound = delta * delta / (1.0 + delta)
    tau = draw(st.one_of(
        st.just(0.0),
        st.just(bound),
        st.floats(min_value=bound, max_value=bound + BOUNDARY_TOL),
        st.floats(min_value=0.0, max_value=bound),
        st.floats(min_value=bound + 2 * BOUNDARY_TOL, max_value=0.99),
    ))
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return MarketParams(delta=delta, tau=tau, p=p), draw(st.integers(2, 40))


@settings(max_examples=150)
@given(case=_region_markets())
def test_array_region_matches_the_scalar_pipeline(case):
    """feasible_payoffs decides every lattice target as theorem1_feasible
    does, and carries the certificate's W fields bit for bit; every
    feasible target's certificate builds and passes prop2_check."""
    mp, resolution = case
    lattice = [i / (resolution - 1) for i in range(resolution)]
    assert (np.arange(resolution) / (resolution - 1)).tolist() == lattice
    targets = [(w1, w2) for w1 in lattice for w2 in lattice]
    w1s, w2s = np.array(targets).T
    feasible, *payoffs = feasible_payoffs(mp, w1s, w2s)
    for (w1, w2), verdict, *W in zip(
        targets, feasible.tolist(), *(x.tolist() for x in payoffs)
    ):
        target = PayoffTarget(w1, w2)
        assert verdict == theorem1_feasible(mp, target)
        if not verdict:
            assert all(np.isnan(W))
            continue
        cert = construct_certificate(mp, target)
        assert prop2_check(cert, mp)
        assert [x.hex() for x in W] == [
            x.hex() for x in (cert.W_f, cert.W_c1, cert.W_c2)
        ]


# sha256 of the repr of every scan below: it pins every Deviation field bit
# for bit
BROKEN_SCANS_SHA256 = "09987ea885d40d0e3824add5e603d5b8bd621c6b98d346906ebaffa0f92f5c46"
SHARE_FIELDS = ("u_f", "u_c1", "u_c2", "z_fc1", "z_fc2", "z_c1f", "z_c2f")


def test_deviation_scan_of_broken_certificates_matches_recorded_digest():
    """Seeded certificates, each share and outside option pushed off its
    certified value: every scan's repr hashes to the recorded digest, and
    the scans hold deviations at all three kinds of node."""
    rng = np.random.default_rng(2021)
    scans = []
    for _ in range(400):
        mp, tgt = sample_feasible_instance(rng)
        cert = construct_certificate(mp, tgt)
        broken = dataclasses.replace(cert, **{
            name: getattr(cert, name) + rng.uniform(-0.3, 0.3)
            for name in SHARE_FIELDS
        })
        scans.append(one_shot_deviation_scan(broken, mp, scan_grid=50))
    assert {d.node for scan in scans for d in scan} == {"proposal", "response", "optout"}
    digest = hashlib.sha256(repr(scans).encode()).hexdigest()
    assert digest == BROKEN_SCANS_SHA256
