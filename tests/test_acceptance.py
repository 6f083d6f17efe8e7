"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else; the expensive solver runs
come from the session fixtures in conftest.py.
"""

import json
import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

import cornerwave as cw
from cornerwave.oracle import (blowup_limit, conclusion_table, corner_density,
                               full_ball_density, solve_angle_pairs)
from cornerwave.pipeline import parse_config, run
from references import expected_pair_count, profile_field

SQRT3_3 = math.sqrt(3.0) / 3.0


def report(criterion, text):
    print(f"\nACCEPT {criterion}: PASS  ({text})")


# -------------------------------------------------------------------- 1

def test_criterion_01_table_reproduction():
    t0 = time.monotonic()
    rows = conclusion_table(1.0, 1.0)
    assert len(rows) == 9
    worst = 0.0
    for r in rows:
        if r.stag_type == 1:
            expected_opening = 2 * math.pi / 3.0
            f = (lambda t: max(-mpmath.sin(t), 0)) if r.theta1 < -1 \
                else (lambda t: max(mpmath.sin(t), 0))
            p = 1.0
        elif r.stag_type == 2:
            expected_opening = 2 * math.pi / 3.0
            f = (lambda t: max(mpmath.cos(t), 0)) if abs(r.theta1) < 1.6 \
                else (lambda t: max(-mpmath.cos(t), 0))
            p = 1.0
        else:
            expected_opening = 2 * math.pi / 4.0
            f = lambda t: abs(mpmath.cos(t)) * abs(mpmath.sin(t))
            p = 2.0
        assert r.opening == expected_opening  # exact float identity
        ref = float(mpmath.quad(
            f, [r.theta1, 0.5 * (r.theta1 + r.theta2), r.theta2])) / (p + 2.0)
        worst = max(worst, abs(r.density - ref))
        assert abs(r.density - ref) <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report("01 table-reproduction",
           f"9 rows, worst density error {worst:.2e}, {elapsed:.2f}s")


# -------------------------------------------------------------------- 2

def test_criterion_02_stokes_corner(stokes_case):
    case = stokes_case
    assert case.wall_time <= 300.0
    est = cw.estimate_asymptotic_directions(case.result.field,
                                            center=case.sp.location, radius=0.45)
    opening_deg = math.degrees(est.opening)
    assert abs(opening_deg - 120.0) <= 3.0
    dens = cw.limit_density(case.spec, case.result.field, case.sp, 0.3)
    assert abs(dens - SQRT3_3) <= 0.05 * SQRT3_3
    verdict = cw.classify(dens, SQRT3_3, 2.0 / 3.0)
    assert verdict.verdict == "corner"
    report("02 stokes-corner",
           f"opening {opening_deg:.2f} deg, density {dens:.4f}, "
           f"corner verdict, {case.wall_time:.1f}s solve")


# -------------------------------------------------------------------- 3

def test_criterion_03_generalized_corners(beta2_case, alpha2_case, type3_case):
    openings = {}
    for name, case, target in (("beta2", beta2_case, 90.0),
                               ("alpha2", alpha2_case, 90.0),
                               ("type3", type3_case, 72.0)):
        est = cw.estimate_asymptotic_directions(case.result.field,
                                                center=case.sp.location,
                                                radius=0.45)
        deg = math.degrees(est.opening)
        assert abs(deg - target) <= 3.0, f"{name}: {deg} vs {target}"
        openings[name] = deg
    report("03 generalized-corners",
           ", ".join(f"{k} {v:.2f} deg" for k, v in openings.items()))


# -------------------------------------------------------------------- 4

def test_criterion_04_monotonicity_suite(stokes_case, blowup_case):
    radii = np.geomspace(0.05, 0.45, 32)
    # exact oracle field with a nontrivial remainder (alpha = 1)
    spec = cw.ProblemSpec(1.0, 1.0, cw.Type1(x0=-1.0),
                          cw.Rect(-2.0, -1.0, 0.0, 1.0))
    prof = blowup_limit(spec)
    grid = cw.GridSpec.from_domain(spec.domain, 513, 513)
    u0 = profile_field(prof, grid, spec.stagnation_location)
    sp = cw.stagnation_point(spec)
    wp = cw.weiss_profile(cw.radial_sweep(spec, u0, sp, radii))
    rep_exact = cw.check_monotonicity(wp, 1e-3)
    assert rep_exact.all_passed
    # also the pure gravity-type exact profile
    spec0 = stokes_case.spec
    u00 = profile_field(stokes_case.profile,
                        cw.GridSpec.from_domain(spec0.domain, 513, 513),
                        spec0.stagnation_location)
    rep_exact0 = cw.check_monotonicity(
        cw.weiss_profile(cw.radial_sweep(spec0, u00, stokes_case.sp, radii)), 1e-3)
    assert rep_exact0.all_passed
    # solver outputs at the relaxed tolerance
    worst = 0.0
    for case in (stokes_case, blowup_case):
        wps = cw.weiss_profile(cw.radial_sweep(case.spec, case.result.field, case.sp, radii))
        rep_solver = cw.check_monotonicity(wps, 5e-3)
        assert rep_solver.all_passed
        worst = max(worst, rep_solver.worst_violation,
                    rep_solver.j1_worst_violation)
    report("04 monotonicity-suite",
           f"exact worst {max(rep_exact.worst_violation, rep_exact.j1_worst_violation):.2e} "
           f"(tol 1e-3), solver worst {worst:.2e} (tol 5e-3)")


# -------------------------------------------------------------------- 5

def test_criterion_05_homogeneity_blowup(stokes_case, blowup_case):
    # convergent configuration: the alpha = 1 weight varies across the
    # window, so rescalings contract toward the homogeneous limit
    radii = list(np.geomspace(0.45, 0.2, 5))
    br = cw.blowup_analysis(blowup_case.spec, blowup_case.result.field,
                            blowup_case.sp, radii)
    d = br.successive_distance
    assert d[-2] > d[-1] and d[-3] > d[-2], d
    assert br.homogeneity_residual <= 0.1
    # the gravity-type run obeys the same residual budget
    br0 = cw.blowup_analysis(stokes_case.spec, stokes_case.result.field,
                             stokes_case.sp, [0.4, 0.3, 0.2])
    assert br0.homogeneity_residual <= 0.1
    report("05 homogeneity-blowup",
           f"distances {['%.4f' % x for x in d]} decreasing, "
           f"final residuals {br.homogeneity_residual:.3f}/{br0.homogeneity_residual:.3f}")


# -------------------------------------------------------------------- 6

def _cone_field(grid, N):
    X, Y = grid.mesh()
    rho = np.hypot(X, Y)
    th = np.arctan2(Y, X)
    d = np.mod(th + math.pi / 2 + math.pi, 2 * math.pi) - math.pi
    vals = np.where(np.abs(d) < math.pi / (2 * N), rho ** N * np.cos(N * d), 0.0)
    return cw.ScalarField(grid, np.maximum(vals, 0.0))


def _lobe_field(grid, N):
    X, Y = grid.mesh()
    rho = np.hypot(X, Y)
    th = np.arctan2(Y, X)
    vals = np.where(th < 0, rho ** N * np.abs(np.sin(N * np.where(th < 0, -th, 0.0))),
                    0.0)
    return cw.ScalarField(grid, vals)


def test_criterion_06_frequency_suite():
    spec = cw.ProblemSpec(alpha=0.0, beta=1.0, stag=cw.Type1(x0=-0.5),
                          domain=cw.Rect(-1.0, -1.0, 1.0, 1.0))
    sp = cw.StagnationPoint(location=(0.0, 0.0), kappa=-1.5, delta=0.9)
    radii = np.geomspace(0.3, 0.8, 8)
    worst_d = 0.0
    for N, n in ((1.5, 513), (2.0, 513), (3.0, 1025)):
        grid = cw.GridSpec(nx=n, ny=n, origin=(-1.0, -1.0), spacing=2.0 / (n - 1))
        fp = cw.frequency_profile(cw.radial_sweep(spec, _cone_field(grid, N), sp, radii))
        err = float(np.max(np.abs(fp.D - N)))
        assert err <= 0.02, f"N={N}: {err}"
        worst_d = max(worst_d, err)
        assert np.array_equal(fp.H, fp.D - fp.V)  # exact by construction
    # flat candidates: positivity fills the lower half plane
    worst_deficit = -math.inf
    for N in (2, 3):
        grid = cw.GridSpec(nx=513, ny=513, origin=(-1.0, -1.0), spacing=2.0 / 512)
        fp = cw.frequency_profile(cw.radial_sweep(spec, _lobe_field(grid, N), sp, radii))
        rep = cw.check_frequency_bound(fp, beta=1.0, tol=0.05)
        assert rep.passed
        worst_deficit = max(worst_deficit, rep.worst_deficit)
    report("06 frequency-suite",
           f"max |D - N| = {worst_d:.4f} (tol 0.02), "
           f"flat-candidate bound margin {-worst_deficit:.3f}")


# -------------------------------------------------------------------- 7

def test_criterion_07_angle_pairs():
    from test_oracle import brute_force_pairs
    pairs = solve_angle_pairs(1.0, 1.0)
    hit = [p for p in pairs if abs(p.theta1 + 3 * math.pi / 4) < 1e-12]
    assert hit
    p = hit[0]
    w1 = abs(math.cos(p.theta1)) * abs(math.sin(p.theta1))
    w2 = abs(math.cos(p.theta2)) * abs(math.sin(p.theta2))
    assert abs(w1 - w2) <= 1e-10
    checked = 0
    for a in (1.0, 1.5, 2.0, 2.5, 3.0):
        for b in (1.0, 1.5, 2.0, 2.5, 3.0):
            mine = sorted(q.theta1 for q in solve_angle_pairs(a, b))
            brute = brute_force_pairs(a, b)
            assert len(mine) == len(brute) == expected_pair_count(a, b), (a, b)
            for x, y in zip(mine, brute):
                assert abs(x - y) <= 1e-8, (a, b, x, y)
            checked += 1
    report("07 angle-pairs",
           f"balanced pair at -3pi/4 (residual {abs(w1 - w2):.1e}), "
           f"{checked} grid points match the dense oracle and the 8/12 rule")


# -------------------------------------------------------------------- 8

def test_criterion_08_first_variation():
    from cornerwave.energy import bump_vector_field, domain_variation_residual
    spec = cw.ProblemSpec(0.0, 1.0, cw.Type1(x0=-1.0),
                          cw.Rect(-2.0, -1.0, 0.0, 1.0))
    prof = blowup_limit(spec)
    cx = -1 + 0.5 * math.cos(-math.pi / 6)
    cy = 0.5 * math.sin(-math.pi / 6)
    vals = []
    for n in (129, 257, 513):   # spacings 1/64, 1/128, 1/256
        grid = cw.GridSpec.from_domain(spec.domain, n, n)
        u = profile_field(prof, grid, spec.stagnation_location)
        phi = bump_vector_field(grid, center=(cx, cy), radius=0.3)
        vals.append(abs(domain_variation_residual(spec, u, phi)))
        sup = phi.sup_norm
    order = math.log2(vals[0] / vals[2]) / 2.0
    assert order >= 0.8        # at least linear decay
    assert vals[2] <= 1e-2 * sup
    report("08 first-variation",
           f"residuals {['%.2e' % v for v in vals]}, order {order:.2f}, "
           f"final <= 1e-2*sup ({1e-2 * sup:.2e})")


# -------------------------------------------------------------------- 9

def test_criterion_09_classifier_trichotomy():
    n_checked = 0
    for spec in _all_subcase_specs():
        prof = blowup_limit(spec)
        corner = corner_density(spec, prof.theta1, prof.theta2)
        full = full_ball_density(spec)
        grid = cw.GridSpec.from_domain(
            cw.Rect(*_window_around(spec)), 257, 257)
        sp = cw.stagnation_point(spec)
        # oracle cone
        u_cone = profile_field(prof, grid, spec.stagnation_location)
        d_cone = cw.limit_density(spec, u_cone, sp, 0.3)
        assert cw.classify(d_cone, corner, full).verdict == "corner"
        # zero field
        u_zero = cw.ScalarField(grid, np.zeros((257, 257)))
        d_zero = cw.limit_density(spec, u_zero, sp, 0.3)
        rep_cusp = cw.classify(d_zero, corner, full)
        assert rep_cusp.verdict == "cusp"
        assert "excluded" in rep_cusp.theoretical_note
        # everywhere positive
        u_full = cw.ScalarField(grid, np.ones((257, 257)))
        d_full = cw.limit_density(spec, u_full, sp, 0.3)
        rep_flat = cw.classify(d_full, corner, full)
        assert rep_flat.verdict == "flat"
        assert "excluded" in rep_flat.theoretical_note
        n_checked += 1
    assert n_checked == 9
    report("09 classifier-trichotomy",
           f"corner/cusp/flat verdicts correct for all {n_checked} subcases, "
           "exclusion note attached")


def _all_subcase_specs():
    from cornerwave.oracle import _subcase_specs
    return _subcase_specs(1.0, 1.0)


def _window_around(spec):
    x0, y0 = spec.stagnation_location
    return (x0 - 1.0, y0 - 1.0, x0 + 1.0, y0 + 1.0)


# ------------------------------------------------------------------- 10

def test_criterion_10_determinism(tmp_path):
    # bit-exact field persistence
    rng = np.random.default_rng(7)
    g = cw.GridSpec(nx=21, ny=19, origin=(-1.0, -1.0), spacing=0.1)
    f = cw.ScalarField(g, np.abs(rng.normal(size=(19, 21))) * 1e3)
    p = tmp_path / "u.field"
    cw.save_field(f, p)
    loaded, _ = cw.load_field(p)
    assert np.array_equal(loaded.values, f.values)

    # byte-identical reports from repeated runs
    cfg_data = {
        "problem": {"alpha": 0.0, "beta": 1.0,
                    "stagnation": {"type": 1, "x0": -1.0,
                                   "theta0": 3 * math.pi / 2},
                    "domain": [-2.0, -1.0, 0.0, 1.0]},
        "grid": {"nx": 257, "ny": 257},
        "solver": {"max_iters": 2500},
        "analysis": {"blowup_radii": [0.4, 0.3, 0.22]},
        "outputs": {"directory": ""},
    }
    outs = []
    for sub in ("a", "b"):
        data = json.loads(json.dumps(cfg_data))
        data["outputs"]["directory"] = str(tmp_path / sub)
        run(parse_config(data))
        outs.append(tmp_path / sub)
    identical = []
    for name in ("solution.field", "weiss.csv", "frequency.csv",
                 "table1.csv", "solution.svg"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        identical.append(name)
    for name in ("blowup.json", "classification.json"):
        a = json.loads((outs[0] / name).read_text())
        b = json.loads((outs[1] / name).read_text())
        a["config"]["outputs"]["directory"] = b["config"]["outputs"]["directory"] = ""
        assert a == b
        identical.append(name)
    report("10 determinism-persistence",
           f"round-trip bit-exact; {len(identical)} artifacts byte-identical "
           "across repeated runs")
