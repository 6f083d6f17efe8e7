import math
from dataclasses import astuple

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import cornerwave as cw
from cornerwave.domain import wrap_angle
from cornerwave.oracle import (AnglePair, _angular_integral, _merge_circular,
                               angular_weight, blowup_limit, conclusion_table,
                               corner_density, corner_pairs,
                               edge_weight_mismatch,
                               evaluate_blowup_limit, full_ball_density,
                               snap_symmetric_root, solve_angle_pairs)
from references import (DomainError, angle_condition, chebyshev_coefficients,
                        expected_pair_count, pair_symmetric,
                        profile_gradient_sq)

BIG = cw.Rect(-4.0, -4.0, 4.0, 4.0)


def spec_11(alpha=0.0, beta=1.0, x0=-1.0, c=1.0):
    return cw.ProblemSpec(alpha, beta, cw.Type1(x0=x0), BIG, weight_constant=c)


def spec_3(alpha=1.0, beta=1.0, c=1.0, theta_star=-math.pi / 2):
    return cw.ProblemSpec(alpha, beta, cw.Type3(theta_star=theta_star), BIG,
                          weight_constant=c)


def sym_pair(alpha, beta):
    A = 2 * math.pi / (alpha + beta + 2)
    t1 = -math.pi / 2 - A / 2
    return AnglePair(theta1=t1, theta2=t1 + A)


class TestBlowupLimit:
    def test_stokes_profile(self):
        prof = blowup_limit(spec_11())
        assert prof.degree == 1.5
        assert prof.C0 == pytest.approx((2.0 / 3.0) * math.sqrt(0.5), rel=1e-14)
        assert prof.theta1 == pytest.approx(-5 * math.pi / 6)
        assert prof.theta2 == pytest.approx(-math.pi / 6)
        assert prof.prefactor == 1.0

    def test_subcase_22_profile(self):
        spec = cw.ProblemSpec(2.0, 0.0, cw.Type2(y0=1.0, theta0=0.0), BIG)
        prof = blowup_limit(spec)
        assert prof.degree == 2.0
        assert prof.theta1 == pytest.approx(-math.pi / 4)
        assert prof.theta2 == pytest.approx(math.pi / 4)
        # amplitude (2/4) * cos^{1}(pi/4) under the edge condition
        assert prof.C0 == pytest.approx(0.5 * math.sqrt(math.cos(math.pi / 4) ** 2),
                                        rel=1e-12)

    def test_type3_symmetric_pair(self):
        prof = blowup_limit(spec_3(1.0, 1.0))
        assert (prof.theta1, prof.theta2) == astuple(sym_pair(1.0, 1.0))
        assert prof.degree == 2.0
        assert prof.C0 == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-14)

    def test_type3_refuses_a_bisector_off_every_pair(self):
        with pytest.raises(cw.InvalidSpec, match="edge weights differ"):
            blowup_limit(spec_3(2.0, 1.0, theta_star=-1.0))
        # at alpha = beta = 1 every cone balances, but one about a
        # diagonal puts both edges on the axes
        with pytest.raises(cw.InvalidSpec, match="degenerate cone"):
            blowup_limit(spec_3(theta_star=-math.pi / 4))

    def test_edge_gradient_identity_all_subcases(self):
        # |grad u0|^2 on each cone edge equals the weight there (eq of the
        # free boundary); checked for all nine subcases at unit offsets
        down, up, left, right = 3 * math.pi / 2, math.pi / 2, math.pi, 0.0
        specs = [cw.ProblemSpec(1.0, 1.5, cw.Type1(x, th), BIG)
                 for x, th in [(-1, down), (1, up), (-1, up), (1, down)]]
        specs += [cw.ProblemSpec(1.5, 1.0, cw.Type2(y, th), BIG)
                  for y, th in [(-1, left), (1, right), (-1, right), (1, left)]]
        specs += [spec_3(1.0, 2.0)]
        for spec in specs:
            prof = blowup_limit(spec)
            for edge in (prof.theta1, prof.theta2):
                inside = edge + 1e-12 if edge == prof.theta1 else edge - 1e-12
                grad2 = profile_gradient_sq(prof, 1.0, inside)
                # weight at the edge point of the unit circle around X0,
                # with the non-degenerate factor frozen at X0
                if isinstance(spec.stag, cw.Type1):
                    w_lim = spec.weight_constant * abs(spec.stag.x0) ** spec.alpha \
                        * angular_weight(spec, edge)
                elif isinstance(spec.stag, cw.Type2):
                    w_lim = spec.weight_constant * abs(spec.stag.y0) ** spec.beta \
                        * angular_weight(spec, edge)
                else:
                    w_lim = spec.weight_constant * angular_weight(spec, edge)
                assert grad2 == pytest.approx(w_lim, rel=1e-10)


class TestEvaluate:
    def test_zero_at_origin(self):
        prof = blowup_limit(spec_11())
        assert evaluate_blowup_limit(prof, 0.0, 1.234) == 0.0

    def test_zero_on_edges(self):
        prof = blowup_limit(spec_11())
        for th in (prof.theta1, prof.theta2):
            assert abs(evaluate_blowup_limit(prof, 1.0, th)) <= 1e-12

    def test_max_on_bisector(self):
        prof = blowup_limit(spec_11())
        assert evaluate_blowup_limit(prof, 1.0, -math.pi / 2) \
            == pytest.approx(prof.C0, rel=1e-14)

    def test_zero_outside_cone(self):
        prof = blowup_limit(spec_11())
        assert evaluate_blowup_limit(prof, 1.0, math.pi / 2) == 0.0

    @given(r=st.floats(0.01, 2.0), th=st.floats(-math.pi, math.pi),
           lam=st.sampled_from([2.0, 0.5]))
    @settings(max_examples=120)
    def test_degree_covariance(self, r, th, lam):
        prof = blowup_limit(spec_11(beta=1.5))
        v1 = evaluate_blowup_limit(prof, lam * r, th)
        v2 = lam ** prof.degree * evaluate_blowup_limit(prof, r, th)
        assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-300)


class TestDensities:
    def test_stokes_corner_density_symbolic(self):
        # (1/3) * integral of -sin over the 120-degree cone, via sympy
        th = sympy.symbols("th")
        exact = sympy.integrate(-sympy.sin(th),
                                (th, -5 * sympy.pi / 6, -sympy.pi / 6)) / 3
        spec = spec_11()
        prof = blowup_limit(spec)
        val = corner_density(spec, prof.theta1, prof.theta2)
        assert val == pytest.approx(float(exact), abs=1e-10)
        assert val == pytest.approx(math.sqrt(3.0) / 3.0, abs=1e-10)

    def test_empty_cone(self):
        assert corner_density(spec_11(), -1.0, -1.0) == 0.0

    def test_type3_symmetric_density(self):
        # (1/4) * integral of |cos sin| over a quarter turn = 1/8, and a
        # seeded Monte Carlo cross-check
        spec = spec_3(1.0, 1.0)
        pair = sym_pair(1.0, 1.0)
        val = corner_density(spec, pair.theta1, pair.theta2)
        assert val == pytest.approx(1.0 / 8.0, abs=1e-10)
        rng = np.random.default_rng(42)
        n = 2_000_000
        xy = rng.uniform(-1, 1, size=(2, n))
        rr = np.hypot(xy[0], xy[1])
        th = np.arctan2(xy[1], xy[0])
        inside = (rr <= 1) & (th > pair.theta1) & (th < pair.theta2)
        mc = np.mean(np.abs(xy[0] * xy[1]) * inside) * 4.0
        assert val == pytest.approx(mc, abs=4 * 0.3 / math.sqrt(n))

    def test_full_ball_values(self):
        assert full_ball_density(spec_11()) == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert full_ball_density(spec_3(1.0, 1.0)) == pytest.approx(0.5, abs=1e-10)

    def test_weight_constant_linearity(self):
        assert full_ball_density(spec_11(c=2.0)) == pytest.approx(4.0 / 3.0, abs=1e-9)

    @given(a=st.floats(1.0, 3.0), b=st.floats(1.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_density_ordering(self, a, b):
        spec = spec_3(a, b)
        pair = sym_pair(a, b)
        corner = corner_density(spec, pair.theta1, pair.theta2)
        full = full_ball_density(spec)
        assert 0.0 < corner < full


Q = math.pi / 2
# (spec for the exponents, its angular weight in mpmath, intervals on
# which the weight is not identically zero): subcase 1.1 weighs (-sin)_+^beta,
# subcase 2.2 (cos)_+^alpha, type 3 |cos|^alpha |sin|^beta.  The intervals
# run inside one quarter, start, end or cross at multiples of pi/2, or
# cover the full ball.
RULE_CASES = {
    "1.1": (lambda a, b: spec_11(a, b),
            lambda a, b, t: mpmath.mpf(max(-mpmath.sin(t), 0)) ** b,
            [(-math.pi, math.pi), (-5 * math.pi / 6, -math.pi / 6),
             (-Q, -0.2), (-2.5, -Q), (-2.0, -1.0), (-math.pi, -Q)]),
    "2.2": (lambda a, b: cw.ProblemSpec(a, b, cw.Type2(y0=1.0, theta0=0.0), BIG),
            lambda a, b, t: mpmath.mpf(max(mpmath.cos(t), 0)) ** a,
            [(-math.pi, math.pi), (-math.pi / 4, math.pi / 4), (0.0, 1.2),
             (-1.0, Q), (-1.3, 1.3), (0.2, 0.9)]),
    "3": (spec_3,
          lambda a, b, t: abs(mpmath.cos(t)) ** a * abs(mpmath.sin(t)) ** b,
          [(-math.pi, math.pi), (-Q, 0.7), (-2.0, -Q), (-2.5, 0.4),
           (0.3, 1.2), (0.0, Q)]),
}


def mp_angular_integral(weight, a, b, theta1, theta2):
    """The angular integral in 30-digit mpmath, split at the exact
    multiples of pi/2 inside (theta1, theta2)."""
    with mpmath.workdps(30):
        lo, hi = mpmath.mpf(theta1), mpmath.mpf(theta2)
        ks = range(math.floor(theta1 / Q) - 1, math.ceil(theta2 / Q) + 2)
        inner = [k * mpmath.pi / 2 for k in ks if lo < k * mpmath.pi / 2 < hi]
        return float(mpmath.quad(lambda t: weight(a, b, t), [lo, *inner, hi]))


class TestAngularRule:
    """The tanh-sinh rule behind every density, against references."""

    @pytest.mark.parametrize("case", list(RULE_CASES))
    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 3.0), (1.5, 2.5),
                                      (2.5, 1.5), (3.0, 2.0)])
    def test_matches_mpmath(self, case, a, b):
        make, weight, intervals = RULE_CASES[case]
        spec = make(a, b)
        for theta1, theta2 in intervals:
            ref = mp_angular_integral(weight, a, b, theta1, theta2)
            got = _angular_integral(spec, theta1, theta2)
            assert abs(got - ref) <= 1e-14 * ref, (theta1, theta2, got, ref)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 4.0), (1.5, 2.5),
                                      (2.0, 2.0), (3.5, 6.0)])
    def test_type3_full_ball_closed_form(self, a, b):
        exact = (2.0 * math.gamma((a + 1) / 2) * math.gamma((b + 1) / 2)
                 / math.gamma((a + b) / 2 + 1))
        got = _angular_integral(spec_3(a, b), -math.pi, math.pi)
        assert got == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("theta", [-Q, 0.0, 0.7, math.pi])
    def test_empty_interval(self, theta):
        for make, _, _ in RULE_CASES.values():
            assert _angular_integral(make(2.0, 1.5), theta, theta) == 0.0

    def test_reversed_interval_refused(self):
        with pytest.raises(cw.InvalidSpec, match="theta1 <= theta2"):
            _angular_integral(spec_3(2.0, 3.0), 0.5, 0.4)


class TestAngleCondition:
    def test_balanced_at_one(self):
        assert angle_condition(1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_domain_error_at_zero(self):
        with pytest.raises(DomainError):
            angle_condition(0.0, 1.0, 1.0)

    def test_interior_value_minus_one(self):
        # s = 1/tan(A) zeroes the first factor, so the condition hits -1
        A = 2 * math.pi / 5.0
        assert angle_condition(1.0 / math.tan(A), 2.0, 1.0) \
            == pytest.approx(-1.0, abs=1e-14)


def brute_force_pairs(alpha, beta, samples=65536, merge_tol=1e-8):
    """Independent root finder: much denser sampling plus scipy brentq.

    Brackets are consecutive sample nodes, the last one closing at
    th[0] + 2 pi, and their end signs come from the scalar f that brentq
    itself evaluates.  A node where |f| is at the rounding level of the
    weight scale is taken as a root: an exact root can lie between the two
    floats nearest a node, so that neither neighbouring bracket shows a
    sign change (5 pi/8 at alpha = beta = 3)."""
    from scipy.optimize import brentq
    A = 2 * math.pi / (alpha + beta + 2)
    th = np.linspace(-math.pi, math.pi, samples, endpoint=False)
    G = np.asarray(edge_weight_mismatch(alpha, beta, th))
    scale = float(np.max(np.abs(np.cos(th)) ** alpha * np.abs(np.sin(th)) ** beta))
    if float(np.max(np.abs(G))) <= 1e-12 * scale:
        bis = [-math.pi / 2, 0.0, math.pi / 2, math.pi,
               -3 * math.pi / 4, -math.pi / 4, math.pi / 4, 3 * math.pi / 4]
        from cornerwave.domain import wrap_angle
        return sorted(wrap_angle(b - A / 2) for b in bis)
    f = lambda t: float(edge_weight_mismatch(alpha, beta, t))
    tol = 8 * np.finfo(float).eps * scale
    ends = np.append(th, th[0] + 2 * math.pi)
    G = np.append(G, G[0])
    # the vectorised G may differ from f in the last bits, which can flip a
    # sign only where |G| is at the rounding level: screen with G, decide
    # with f
    near = np.abs(G) <= 2 * tol
    screen = (G[:-1] * G[1:] <= 0) | near[:-1] | near[1:]
    roots = []
    for i in np.nonzero(screen)[0]:
        a, b = ends[i], ends[i + 1]
        fa, fb = f(a), f(b)
        if abs(fa) <= tol:
            roots.append(float(a))
        elif abs(fb) > tol and fa * fb < 0:
            roots.append(brentq(f, a, b, xtol=1e-14))
    from cornerwave.domain import wrap_angle
    from cornerwave.oracle import snap_symmetric_root
    roots = sorted(wrap_angle(snap_symmetric_root(alpha, beta, r)) for r in roots)
    merged = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > merge_tol:
            merged.append(r)
    if len(merged) > 1 and abs(merged[0] + 2 * math.pi - merged[-1]) <= merge_tol:
        merged.pop()
    return merged


def scalar_root_scan(alpha, beta):
    """The raw roots of the edge-weight mismatch found one bracket at a
    time, each bisected with scalar evaluations: the reference for the
    batched scan of ``solve_angle_pairs`` (generic case only)."""
    th = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    G = edge_weight_mismatch(alpha, beta, th)
    roots = []
    g_next = np.roll(G, -1)
    th_next = np.concatenate([th[1:], [th[0] + 2 * math.pi]])
    for i in range(len(th)):
        a, b = th[i], th_next[i]
        ga, gb = G[i], g_next[i]
        if ga == 0.0:
            roots.append(float(a))
            continue
        if ga * gb < 0.0:
            lo, hi, glo = a, b, ga
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                gm = float(edge_weight_mismatch(alpha, beta, mid))
                if gm == 0.0:
                    lo = hi = mid
                    break
                if glo * gm < 0.0:
                    hi = mid
                else:
                    lo, glo = mid, gm
            roots.append(wrap_angle(0.5 * (lo + hi)))
    roots = [snap_symmetric_root(alpha, beta, t) for t in roots]
    return _merge_circular(sorted(roots), 1e-8)


class TestAnglePairs:
    @pytest.mark.parametrize("a", [1.0, 1.5, 2.0, 2.5, 3.0])
    def test_batched_scan_matches_scalar_reference(self, a):
        # the (alpha, beta) grid of acceptance criterion 7, but alpha =
        # beta = 1, which takes the canonical pairs, not the scan.  Array
        # and scalar powers of numpy may differ by an ulp, so an unsnapped
        # root may move by a few ulps; snapped (symmetric) roots are exact
        tol = 16 * np.finfo(float).eps * math.pi
        for b in (1.0, 1.5, 2.0, 2.5, 3.0):
            if a == b == 1.0:
                continue
            ref = scalar_root_scan(a, b)
            pairs = solve_angle_pairs(a, b)
            assert len(pairs) == len(ref) == expected_pair_count(a, b)
            for p, t in zip(pairs, ref):
                symmetric = pair_symmetric(a, b, p.theta1)
                assert symmetric == pair_symmetric(a, b, t)
                if symmetric:
                    assert p.theta1 == t
                else:
                    assert abs(p.theta1 - t) <= tol

    def test_balanced_case_contains_canonical_pair(self):
        pairs = solve_angle_pairs(1.0, 1.0)
        t1s = [p.theta1 for p in pairs]
        assert any(abs(t + 3 * math.pi / 4) < 1e-12 for t in t1s)
        assert len(pairs) == 8

    def test_count_rule_2_1(self):
        # tan(2pi/5) = 3.0777 exceeds 2*sqrt(2) = 2.8284: twelve pairs
        assert math.tan(2 * math.pi / 5) > 2 * math.sqrt(2.0)
        assert expected_pair_count(2.0, 1.0) == 12
        assert len(solve_angle_pairs(2.0, 1.0)) == 12

    def test_edge_equality_invariant(self):
        for a, b in [(1.0, 1.0), (2.0, 1.0), (1.7, 2.9)]:
            A = 2 * math.pi / (a + b + 2)
            for p in solve_angle_pairs(a, b):
                w1 = abs(math.cos(p.theta1)) ** a * abs(math.sin(p.theta1)) ** b
                w2 = abs(math.cos(p.theta2)) ** a * abs(math.sin(p.theta2)) ** b
                assert abs(w1 - w2) <= 1e-10
                assert p.theta2 - p.theta1 == pytest.approx(A, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(1.5, 1.0), (2.0, 2.0), (3.0, 1.0), (2.5, 1.5)])
    def test_matches_brute_force(self, a, b):
        mine = [p.theta1 for p in solve_angle_pairs(a, b)]
        brute = brute_force_pairs(a, b)
        assert len(mine) == len(brute)
        for x, y in zip(sorted(mine), brute):
            assert x == pytest.approx(y, abs=1e-8)

    def test_root_on_sample_node(self):
        # at alpha = beta = 3 the root theta1 = 5 pi/8 falls on a sample
        # node of both finders; each must report it once, not drop or
        # double it
        target = 5 * math.pi / 8
        for t1s in ([p.theta1 for p in solve_angle_pairs(3.0, 3.0)],
                    brute_force_pairs(3.0, 3.0)):
            assert len(t1s) == 8
            assert sum(abs(t - target) <= 1e-12 for t in t1s) == 1

    def test_symmetry_tags(self):
        pairs = solve_angle_pairs(2.0, 1.0)
        sym = [p for p in pairs if pair_symmetric(2.0, 1.0, p.theta1)]
        # four pairs reflect across a coordinate axis
        assert len(sym) == 4


class TestCornerPairs:
    @pytest.mark.parametrize("alpha, beta, count", [(1.0, 1.0, 4), (2.0, 1.0, 12)])
    def test_blowup_limit_admits_each_pair(self, alpha, beta, count):
        # at alpha = beta = 1 four of the eight canonical pairs put both
        # edges on the axes, where the edge weight vanishes and no corner
        # profile exists
        pairs = corner_pairs(alpha, beta)
        assert len(pairs) == count
        for p in pairs:   # each the cone about its bisector
            prof = blowup_limit(spec_3(alpha, beta,
                                       theta_star=(p.theta1 + p.theta2) / 2))
            assert prof.theta1 == pytest.approx(p.theta1, abs=1e-14)
            assert prof.theta2 == pytest.approx(p.theta2, abs=1e-14)

    def test_scanned_pairs_with_positive_edges(self):
        # on the (alpha, beta) grid of acceptance criterion 7 a corner pair
        # is a scanned pair whose edge weight is positive
        for a in (1.0, 1.5, 2.0, 2.5, 3.0):
            for b in (1.0, 1.5, 2.0, 2.5, 3.0):
                expected = [p for p in solve_angle_pairs(a, b)
                            if abs(math.cos(p.theta1)) ** a
                            * abs(math.sin(p.theta1)) ** b > 1e-10]
                assert corner_pairs(a, b) == expected, (a, b)


class TestChebyshev:
    def test_balanced_symmetric_pair(self):
        a, b, C0, phi0 = chebyshev_coefficients(-3 * math.pi / 4, 1.0, 1.0)
        assert a == pytest.approx(0.0, abs=1e-15)
        assert abs(b) == pytest.approx(1.0 / (2 * math.sqrt(2.0)), rel=1e-14)
        assert 4 * (a * a + b * b) == pytest.approx(0.5, rel=1e-14)

    def test_edge_derivative_vanishes(self):
        theta1 = solve_angle_pairs(2.0, 1.0)[0].theta1
        k = 2.5
        a, b, _, _ = chebyshev_coefficients(theta1, 2.0, 1.0)
        A = 2 * math.pi / 5
        for ti in (theta1, theta1 + A):
            gp = -a * k * math.sin(k * ti) + b * k * math.cos(k * ti)
            # g'(theta_i) = 0 is exactly the edge condition
            assert abs(-a * math.sin(k * ti) + b * math.cos(k * ti)) <= 1e-10

    def test_two_code_paths_agree(self):
        alpha, beta = 2.0, 1.0
        pair = solve_angle_pairs(alpha, beta)[2]
        a, b, C0, phi0 = chebyshev_coefficients(pair.theta1, alpha, beta)
        prof = blowup_limit(spec_3(alpha, beta,
                                   theta_star=(pair.theta1 + pair.theta2) / 2))
        k = prof.degree
        thetas = pair.theta1 + (pair.theta2 - pair.theta1) * np.linspace(0, 1, 100)
        via_coeffs = C0 * np.cos(k * thetas + phi0)
        via_profile = np.asarray(evaluate_blowup_limit(prof, 1.0, thetas))
        assert np.max(np.abs(np.maximum(via_coeffs, 0.0) - via_profile)) <= 1e-12

    def test_invalid_pair_rejected(self):
        with pytest.raises(cw.InvalidPair):
            chebyshev_coefficients(-0.3, 2.0, 1.0)


class TestConclusionTable:
    def test_nine_rows_with_force_directions(self):
        rows = conclusion_table(1.0, 1.0)
        assert len(rows) == 9
        assert [r.subcase for r in rows] == ["1.1", "1.2", "1.3", "1.4",
                                             "2.1", "2.2", "2.3", "2.4", "3"]
        thetas = [r.theta0 for r in rows]
        assert thetas[:4] == pytest.approx(
            [3 * math.pi / 2, math.pi / 2, math.pi / 2, 3 * math.pi / 2])
        assert thetas[4:8] == pytest.approx([math.pi, 0.0, 0.0, math.pi])
        assert thetas[8] is None

    def test_openings(self):
        rows = conclusion_table(1.0, 2.0)
        for r in rows:
            if r.stag_type == 1:
                assert r.opening == pytest.approx(2 * math.pi / 4)
            elif r.stag_type == 2:
                assert r.opening == pytest.approx(2 * math.pi / 3)
            else:
                assert r.opening == pytest.approx(2 * math.pi / 5)

    def test_densities_against_mpmath(self):
        # independent high-precision quadrature of each angular integral
        rows = conclusion_table(1.0, 1.0)
        for r in rows:
            if r.stag_type == 1:
                f = lambda t: max(-mpmath.sin(t) if r.theta1 < -1 else mpmath.sin(t), 0)
                p = 1.0
            elif r.stag_type == 2:
                s = 1.0 if abs(r.theta1) < 1.6 else -1.0
                f = lambda t: max(s * mpmath.cos(t), 0)
                p = 1.0
            else:
                f = lambda t: abs(mpmath.cos(t)) * abs(mpmath.sin(t))
                p = 2.0
            ref = mpmath.quad(f, [r.theta1, 0.5 * (r.theta1 + r.theta2), r.theta2])
            ref = float(ref) / (p + 2.0)
            assert r.density == pytest.approx(ref, abs=1e-6)
