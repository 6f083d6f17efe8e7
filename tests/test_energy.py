import math
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

import cornerwave as cw
import cornerwave.energy as energy_module
from cornerwave.energy import (boundary_ring, bump_vector_field,
                               domain_variation_residual, energy,
                               harmonic_extension, support_mask)
from cornerwave.oracle import angle_pair, blowup_limit, evaluate_at_points
from cornerwave.pipeline import build_boundary, parse_config
from references import (energy_raw_one_expression, five_point_2d,
                        harmonic_residual, profile_field,
                        star_hull_mask_one_shot, traced_peak)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def stokes_spec():
    return cw.ProblemSpec(alpha=0.0, beta=1.0, stag=cw.Type1(x0=-1.0),
                          domain=cw.Rect(-2.0, -1.0, 0.0, 1.0))


class TestEnergy:
    def test_package_keeps_the_submodule(self):
        # ``import cornerwave.energy as E`` reads the package attribute, so
        # it must be the module, not the function of the same name
        assert isinstance(cw.energy, types.ModuleType)
        assert cw.energy is sys.modules["cornerwave.energy"]
        assert cw.energy.energy is energy

    def test_zero_field(self):
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(spec.domain, 33, 33)
        assert energy(spec, cw.ScalarField(g, np.zeros((33, 33)))) == 0.0

    def test_plane_profile(self):
        # u = (-y)_+ on [-1,1]^2 with the (-y) weight on the lower half:
        # Dirichlet part 2, indicator part 1
        spec = cw.ProblemSpec(alpha=0.0, beta=1.0, stag=cw.Type1(x0=-0.5),
                              domain=cw.Rect(-1.0, -1.0, 1.0, 1.0))
        g = cw.GridSpec.from_domain(spec.domain, 129, 129)
        _, Y = g.mesh()
        u = cw.ScalarField(g, np.maximum(-Y, 0.0))
        assert energy(spec, u) == pytest.approx(3.0, abs=8 * g.spacing)

    def test_dirichlet_part_is_the_five_point_form(self):
        # the form the red-black sweeps relax: exact for a linear field, and
        # an odd-even (checkerboard) mode costs (2 * 0.1)^2 on every edge,
        # where central differences would not see it at interior nodes
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(cw.Rect(-1.0, -1.0, 1.0, 1.0), 17, 17)
        X, _ = g.mesh()
        no_weight = np.zeros_like(X)
        assert energy(spec, cw.ScalarField(g, X), weight=no_weight) \
            == pytest.approx(4.0, rel=1e-12)
        jj, ii = np.indices(X.shape)
        checker = 1.0 + 0.1 * (-1.0) ** (ii + jj)
        assert energy(spec, cw.ScalarField(g, checker), weight=no_weight) \
            == pytest.approx(2 * 16 ** 2 * 0.2 ** 2, rel=1e-12)

    def test_matches_oracle_quadrature_on_annulus(self):
        # corner profile on the whole square, the annulus 0 < rho < R(theta)
        # about the vertex, against an independent 1-D angular quadrature
        # with exact radial part (2.4e-4 relative apart at 513^2)
        spec = stokes_spec()
        prof = blowup_limit(spec)
        g = cw.GridSpec.from_domain(spec.domain, 513, 513)
        u = profile_field(prof, g, spec.stagnation_location)
        val = energy(spec, u)

        deg, c0 = prof.degree, prof.C0
        amp2 = (deg * c0) ** 2  # |grad u0|^2 = amp2 * rho^(2 deg - 2)

        def outer_radius(th):
            # distance from (-1, 0) to the boundary of [-2,0]x[-1,1]; the
            # rectangle sits symmetrically at unit offsets in both axes
            ct, st = abs(math.cos(th)), abs(math.sin(th))
            return min(1.0 / ct if ct > 1e-15 else math.inf,
                       1.0 / st if st > 1e-15 else math.inf)

        def integrand(th):
            R = outer_radius(th)
            dir_part = amp2 * R ** (2 * deg) / (2 * deg)
            chi_part = (-math.sin(th)) * R ** 3 / 3.0
            return dir_part + chi_part

        ref, _ = quad(integrand, prof.theta1, prof.theta2, limit=200,
                      epsabs=1e-12, epsrel=1e-12)
        assert val == pytest.approx(ref, rel=1e-3)

    # the unmasked form is the one case: energy takes no node mask
    @pytest.mark.parametrize("masked", [False])
    def test_shared_node_weights_match_per_evaluation_form(self, masked):
        # the node weights are built once per solve; the energy is the
        # float of the form that rebuilt them at every evaluation
        rng = np.random.default_rng(9)
        g = cw.GridSpec.from_domain(cw.Rect(-1.0, -1.0, 1.0, 1.0), 33, 33)
        shape = (33, 33)
        values = np.where(rng.random(shape) < 0.4, 0.0,
                          rng.normal(size=shape))
        w = rng.uniform(0.0, 3.0, shape)
        w[rng.random(shape) < 0.1] = 0.0
        qw = np.full(shape, g.spacing ** 2)
        qw[[0, -1], :] *= 0.5
        qw[:, [0, -1]] *= 0.5
        dx, dy = np.diff(values, axis=1), np.diff(values, axis=0)
        ex, ey = dx * dx, dy * dy
        ex[[0, -1], :] *= 0.5
        ey[:, [0, -1]] *= 0.5
        ref = float(np.sum(ex) + np.sum(ey)
                    + np.sum(w * (values > 0.0) * qw))
        spec = stokes_spec()
        assert energy(spec, cw.ScalarField(g, values), weight=w) == ref


class TestHarmonicResidual:
    def test_linear_field_exact_zero(self):
        g = cw.GridSpec.from_domain(cw.Rect(-1, -1, 1, 1), 65, 65)
        _, Y = g.mesh()
        u = cw.ScalarField(g, np.maximum(-Y, 0.0))
        assert harmonic_residual(u, threshold=g.spacing) == 0.0

    def test_quadratic_field(self):
        g = cw.GridSpec.from_domain(cw.Rect(-1, -1, 1, 1), 65, 65)
        X, Y = g.mesh()
        u = cw.ScalarField(g, X * X + Y * Y)
        assert harmonic_residual(u, threshold=0.0) == pytest.approx(4.0, rel=1e-9)

    def test_oracle_field_second_order_decay(self):
        spec = stokes_spec()
        prof = blowup_limit(spec)
        vals = []
        for n in (129, 257):
            g = cw.GridSpec.from_domain(spec.domain, n, n)
            u = profile_field(prof, g, spec.stagnation_location)
            vals.append(harmonic_residual(u, threshold=0.05))
        # five-point residual of the sampled harmonic cone shrinks ~4x per
        # refinement away from the free boundary
        assert vals[1] < 0.4 * vals[0]


class TestMinimize:
    def test_plane_smoke_weight_frozen(self):
        # classical configuration: weight frozen to 1, plane data; the free
        # boundary lands within two cells of y = 0
        spec = cw.ProblemSpec(alpha=0.0, beta=1.0, stag=cw.Type1(x0=-0.5),
                              domain=cw.Rect(-1.0, -1.0, 1.0, 1.0))
        g = cw.GridSpec.from_domain(spec.domain, 65, 65)
        _, Y = g.mesh()
        bd = np.maximum(-Y, 0.0)
        res = cw.minimize_energy(spec, g, bd, cw.SolverParams(),
                                 weight=np.ones_like(Y))
        assert res.converged
        pos = res.field.values > 0
        ys = g.ys()
        for j in range(g.ny):
            row_pos = pos[j].any()
            if ys[j] < -2 * g.spacing:
                assert pos[j].all()
            if ys[j] > 2 * g.spacing:
                assert not row_pos

    def test_zero_data_gives_zero(self):
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(spec.domain, 33, 33)
        res = cw.minimize_energy(spec, g, np.zeros((33, 33)), cw.SolverParams())
        assert np.all(res.field.values == 0.0)
        assert res.converged

    def test_negative_data_rejected(self):
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(spec.domain, 33, 33)
        bd = np.zeros((33, 33))
        bd[0, 5] = -1e-3
        with pytest.raises(cw.InvalidBoundary):
            cw.minimize_energy(spec, g, bd, cw.SolverParams())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("node", [(0, 5), (-1, 16)])
    def test_non_finite_data_rejected(self, monkeypatch, value, node):
        # refused before the start is built, on the fluid side and on the
        # air side alike
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(spec.domain, 33, 33)
        bd = np.zeros((33, 33))
        bd[node] = value

        def no_start(*args):
            raise AssertionError("the solve started")

        monkeypatch.setattr(energy_module, "_start", no_start)
        with pytest.raises(cw.InvalidBoundary, match="finite"):
            cw.minimize_energy(spec, g, bd, cw.SolverParams())

    BAD_WEIGHTS = [((1, 33), None, 1.0), ((33,), None, 1.0),
                   ((33, 33), (8, 16), np.nan), ((33, 33), (8, 16), -1.0)]

    @pytest.mark.parametrize("call, shape, node, value", [
        *(("minimize_energy", *case) for case in BAD_WEIGHTS),
        *(("energy", *case) for case in BAD_WEIGHTS)],
        ids=["row", "flat", "nan", "negative", "energy-row", "energy-flat",
             "energy-nan", "energy-negative"])
    def test_bad_weight_rejected(self, call, shape, node, value):
        # refused like bad boundary data: not broadcast, crashed on, or
        # solved or scored into a nan or negative energy
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(spec.domain, 33, 33)
        X, Y = g.mesh()
        bd = np.asarray(evaluate_at_points(blowup_limit(spec), X, Y,
                                           spec.stagnation_location))
        bad = np.full(shape, value)
        if node is not None:
            bad[...] = 1.0
            bad[node] = value
        with pytest.raises(cw.InvalidSpec, match="weight"):
            if call == "energy":
                energy(spec, cw.ScalarField(g, bd), weight=bad)
            else:
                cw.minimize_energy(spec, g, bd, cw.SolverParams(), weight=bad)

    def test_data_on_air_side_rejected(self):
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(spec.domain, 33, 33)
        bd = np.zeros((33, 33))
        bd[-1, 16] = 0.5  # top edge: inside the zero half-plane
        with pytest.raises(cw.InvalidBoundary):
            cw.minimize_energy(spec, g, bd, cw.SolverParams())

    def test_positivity(self, stokes_case):
        assert np.all(stokes_case.result.field.values >= 0.0)

    def test_interior_matches_profile(self, stokes_case):
        # solver field within 5e-2 of the exact corner profile away from
        # the vertex
        u0 = profile_field(stokes_case.profile, stokes_case.grid,
                           stokes_case.spec.stagnation_location)
        X, Y = stokes_case.grid.mesh()
        rho = np.hypot(X + 1.0, Y)
        diff = np.abs(stokes_case.result.field.values - u0.values)
        assert diff[rho > 0.1].max() <= 5e-2

    def test_harmonic_residual_inside_fluid(self, stokes_case):
        # interior nodes clearly inside the positivity set are discretely
        # harmonic up to the relaxation tolerance (in units of u this is
        # residual * h^2 ~ 1e-4)
        r = harmonic_residual(stokes_case.result.field, threshold=0.05)
        assert r <= 1.5

    @pytest.mark.parametrize("case", ["beta2_case", "alpha2_case"])
    def test_envelope_corners_converge(self, request, case):
        # with the zap memory cleared at every block, the envelope kept
        # these two flows in a cycle up to max_iters
        result = request.getfixturevalue(case).result
        assert result.converged
        assert result.iterations < cw.SolverParams().max_iters

    @pytest.mark.parametrize("case", ["type1-33x33", "type1-33x33-capped"])
    def test_energy_evaluated_after_the_flow_only(self, case):
        # the start and the eight cuts are scored, whatever the number of
        # flow blocks; the result is the first lowest of the nine
        kind, nx, ny, params = KERNEL_CASES[case]
        spec, grid, bd, params = kernel_case(kind, nx, ny, **params)
        result = cw.minimize_energy(spec, grid, bd, params)
        assert result.iterations >= 4 * energy_module.BLOCK_SIZE
        trims = [0.25, 0.5, 0.75, 1.0]
        assert [(c.source, c.trim) for c in result.candidates] \
            == [("start", 0.0)] + [("flow", t) for t in trims] \
            + [("start", t) for t in trims]
        energies = [c.energy for c in result.candidates]
        first_lowest = result.candidates[energies.index(min(energies))]
        assert result.winner == first_lowest
        assert result.energy == min(energies)
        assert result.energy == energy(spec, result.field)

    @pytest.mark.parametrize("case", ["type1-33x33", "type1-33x33-capped-15"])
    def test_lattice_laid_out_once_per_flow(self, monkeypatch, case):
        # one layout for the flow, whatever its number of blocks, and one
        # for each of the eight relaxations
        kind, nx, ny, params = KERNEL_CASES[case]
        spec, grid, bd, params = kernel_case(kind, nx, ny, **params)
        calls = []
        layout = energy_module._lattice

        def counting(u, mask, *consts):
            calls.append(mask.shape)
            return layout(u, mask, *consts)

        monkeypatch.setattr(energy_module, "_lattice", counting)
        result = cw.minimize_energy(spec, grid, bd, params)
        assert result.iterations > energy_module.BLOCK_SIZE
        assert len(calls) == 9

    def test_rest_test_depends_on_the_block_length(self, monkeypatch):
        # the flow rests in a cycle of period two, so its rest test fires
        # only on blocks of even length: with 11 sweeps a block it never
        # fires, and the last block, cut short at the cap, is no full
        # block, so it cannot fire there either, even length or not
        spec, grid, bd, params = kernel_case("type3", 33, 33)
        result = cw.minimize_energy(spec, grid, bd, params)
        assert (result.iterations, result.converged) == (100, True)
        monkeypatch.setattr(energy_module, "BLOCK_SIZE", 11)
        for max_iters, converged in ((220, False), (200, False)):
            params = cw.SolverParams(max_iters=max_iters)
            result = cw.minimize_energy(spec, grid, bd, params)
            assert (result.iterations, result.converged) \
                == (max_iters, converged)

    @pytest.mark.parametrize("block, rests", [
        (None, True), (9, False), (10, True), (11, False), (12, True)],
        ids=["module", "9", "10", "11", "12"])
    def test_only_an_even_block_rests(self, monkeypatch, block, rests):
        # the flow rests in a cycle of period two (``_flow``), so only a
        # block of even length compares states that agree: with an odd one
        # this flow never rests and runs to the 2000-sweep cap, with 10 or
        # 12 it rests after 100 or 108 sweeps.  The module's own block
        # length (None) must rest, so it must be even
        if block is not None:
            monkeypatch.setattr(energy_module, "BLOCK_SIZE", block)
        spec, grid, bd, _ = kernel_case("type3", 33, 33)
        result = cw.minimize_energy(spec, grid, bd,
                                    cw.SolverParams(max_iters=2000))
        assert (result.converged, result.iterations < 2000) == (rests, rests)

    def test_short_last_block_reports_no_rest(self):
        # this flow rests at 100 sweeps; a budget of 92 ends in a block of
        # 2 sweeps, over which the field changes less than the rest test's
        # tolerance, but only a full block may report rest
        spec, grid, bd, _ = kernel_case("type3", 33, 33)
        params = cw.SolverParams(max_iters=92)
        result = cw.minimize_energy(spec, grid, bd, params)
        assert (result.iterations, result.converged) == (92, False)

    @pytest.mark.parametrize("case, source", [
        ("stokes_case", "flow"), ("beta2_case", "start"),
        ("alpha2_case", "start"), ("type3_case", "start"),
        ("blowup_case", "flow")])
    def test_bundled_solves_pick_the_half_band_cut(self, request, case,
                                                   source):
        # every bundled solve returns a cut at half the band width; the
        # runner-ups score 4e-5 to 1.1e-4 (relative) above it
        result = request.getfixturevalue(case).result
        assert (result.winner.source, result.winner.trim) == (source, 0.5)
        assert len(result.candidates) == 9

    def test_comparison_principle(self):
        # scaling the data up never shrinks the positivity set
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(spec.domain, 65, 65)
        prof = blowup_limit(spec)
        u0 = profile_field(prof, g, spec.stagnation_location)
        lo = cw.minimize_energy(spec, g, u0.values, cw.SolverParams())
        hi = cw.minimize_energy(spec, g, 1.5 * u0.values, cw.SolverParams())
        pos_lo = lo.field.values > 0
        pos_hi = hi.field.values > 0
        assert not np.any(pos_lo & ~pos_hi)


def masked_sor_block(air, zaps):
    """The boolean-masked red-black kernel the strided one replaced: every
    half-sweep works on the whole array, clamps it at zero, tests it
    against the envelope, zeroes the nodes in the zap memory ``zapped``
    and re-zeroes the air half-plane.  ``zaps`` collects the size of the
    memory a block starts with and the size it ends with."""
    def sor_block(u, free, eps, pull, envelope, zapped, sweeps):
        omega = energy_module.OMEGA
        jj, ii = np.indices(u.shape)
        parity = (jj + ii) % 2 == 0
        colors = (parity & free, ~parity & free)
        if zapped is not None:
            carried = int(zapped.sum())
        for _ in range(sweeps):
            for mask in colors:
                nb = np.zeros_like(u)
                nb[1:-1, 1:-1] = (u[1:-1, 2:] + u[1:-1, :-2]
                                  + u[2:, 1:-1] + u[:-2, 1:-1])
                band = (u > 0.0) & (u < eps)
                target = 0.25 * nb - pull * band
                u[mask] = (1.0 - omega) * u[mask] + omega * target[mask]
                np.maximum(u, 0.0, out=u)
                if envelope is not None:
                    zapped |= u > envelope
                    u[zapped] = 0.0
                u[air] = 0.0
        if zapped is not None:
            zaps.append((carried, int(zapped.sum())))
    return sor_block


def masked_flow(air, zaps):
    """The flow over the masked kernel: ``_flow`` as it was before the
    lattice was laid out once per flow, every block driving
    ``masked_sor_block`` on the whole grid with a whole-grid zap memory
    and testing stationarity on a whole-grid copy."""
    sor_block = masked_sor_block(air, zaps)

    def flow(u, grid, pinned, eps, w, envelope, max_iters):
        free = ~pinned
        pull = np.divide(w, eps, out=np.zeros_like(eps), where=eps > 0)
        pull *= grid.spacing * grid.spacing / 8.0
        scale = max(float(np.max(u)), 1e-300)
        zapped = None if envelope is None else np.zeros(u.shape, dtype=bool)
        sweeps = 0
        while sweeps < max_iters:
            before = u.copy()
            block = min(energy_module.BLOCK_SIZE, max_iters - sweeps)
            sor_block(u, free, eps, pull, envelope, zapped, block)
            if sweeps == 0 and zapped is not None:
                zapped[...] = False
            sweeps += block
            if block == energy_module.BLOCK_SIZE \
                    and float(np.max(np.abs(u - before))) \
                    < energy_module.TOL_FIELD * scale:
                return sweeps, True
        return sweeps, False
    return flow


def lattice_sor_block(u, free, eps, pull, envelope, zapped, sweeps):
    """``_sor_block`` on the flow's lattice (``_flow_lattice``) with the
    arguments of ``masked_sor_block``: the zap memory of each cut is
    seeded from ``zapped`` and written back to it.  The nodes are numbered
    from 1, so the padding of a cut, laid out as 0, maps to no node."""
    layout, lattice = energy_module._flow_lattice(u, free, eps, pull,
                                                  envelope)
    index = np.arange(1, u.size + 1).reshape(u.shape)
    _, cuts = energy_module._lattice(index, free)
    real = [nodes > 0 for nodes, *_ in cuts]
    if zapped is not None:
        for (nodes, *_), on, (*_, zap) in zip(cuts, real, lattice):
            zap[on] = zapped.flat[nodes[on] - 1]
    energy_module._sor_block(lattice, sweeps)
    energy_module._unplane(u, layout)
    if zapped is not None:
        for (nodes, *_), on, (*_, zap) in zip(cuts, real, lattice):
            zapped.flat[nodes[on] - 1] = zap[on]


def masked_relax_on_support(u, pinned, sweeps):
    jj, ii = np.indices(u.shape)
    parity = (jj + ii) % 2 == 0
    support = (u > 0.0) & ~pinned
    colors = (parity & support, ~parity & support)
    for _ in range(sweeps):
        for mask in colors:
            nb = np.zeros_like(u)
            nb[1:-1, 1:-1] = (u[1:-1, 2:] + u[1:-1, :-2]
                              + u[2:, 1:-1] + u[:-2, 1:-1])
            u[mask] = 0.25 * nb[mask]


def kernel_case(kind, nx, ny, **params):
    """A spec, grid and cone-trace boundary data with the stagnation point
    inside; h = 1/16, so 33 x 33 spans two units per side."""
    h = 1.0 / 16.0
    if kind == "stokes":   # subcase 1.1: envelope on, air y >= 0
        spec = cw.ProblemSpec(0.0, 1.0, cw.Type1(x0=-1.0),
                              cw.Rect(-2.0, -1.0, -2.0 + (nx - 1) * h,
                                      -1.0 + (ny - 1) * h))
        profile = blowup_limit(spec)
    elif kind == "beta2":  # the same, beta = 2, centred on (-1, 0)
        x0, y0 = -1.0 - (nx - 1) // 2 * h, -((ny - 1) // 2) * h
        spec = cw.ProblemSpec(0.0, 2.0, cw.Type1(x0=-1.0),
                              cw.Rect(x0, y0, x0 + (nx - 1) * h,
                                      y0 + (ny - 1) * h))
        profile = blowup_limit(spec)
    elif kind == "alpha2":  # subcase 2.2: envelope on, air x <= 0
        x0, y0 = -((nx - 1) // 2) * h, 1.0 - (ny - 1) // 2 * h
        spec = cw.ProblemSpec(2.0, 0.0, cw.Type2(y0=1.0, theta0=0.0),
                              cw.Rect(x0, y0, x0 + (nx - 1) * h,
                                      y0 + (ny - 1) * h))
        profile = blowup_limit(spec)
    else:                  # type 3: no envelope, air above the seed cone
        # "type3-tilted" turns the air half-plane 0.4 rad off the grid
        # axes, which still leaves the cone on the fluid side
        theta_star = -math.pi / 2.0 + (0.4 if kind == "type3-tilted" else 0.0)
        spec = cw.ProblemSpec(2.0, 1.0, cw.Type3(theta_star=theta_star),
                              cw.Rect(-1.0, -1.0, -1.0 + (nx - 1) * h,
                                      -1.0 + (ny - 1) * h))
        profile = blowup_limit(spec, angle_pair(2.0, 1.0))
    grid = cw.GridSpec.from_domain(spec.domain, nx, ny)
    X, Y = grid.mesh()
    bd = np.asarray(evaluate_at_points(profile, X, Y, spec.stagnation_location))
    return spec, grid, bd, cw.SolverParams(**params)


KERNEL_CASES = {
    "type1-33x33": ("stokes", 33, 33, {}),
    "type1-34x31": ("stokes", 34, 31, {}),
    "type1-33x33-capped": ("stokes", 33, 33, {"max_iters": 40}),
    # a budget that is no multiple of the block size: the last block is cut
    "type1-33x33-capped-15": ("stokes", 33, 33, {"max_iters": 15}),
    "type1-34x31-no-air": ("stokes", 34, 31, {"enforce_support": False}),
    # zaps 3 nodes in block 2 and keeps them in the memory to the end;
    # dropping them between blocks changes the returned field
    "type1-beta2-49x49": ("beta2", 49, 49, {}),
    # the air is a column half-plane, so the free box is cut in columns
    # (it starts on the odd column 25); zaps like the beta = 2 case
    "type2-alpha2-49x49": ("alpha2", 49, 49, {}),
    "type3-33x33": ("type3", 33, 33, {}),
    "type3-34x31": ("type3", 34, 31, {}),
    # the only case whose free box holds pinned nodes: an air half-plane
    # at an angle to the grid crosses it, so the free masks of its cuts
    # hold pinned nodes besides the halo and padding
    "type3-tilted-33x33": ("type3-tilted", 33, 33, {}),
}


class TestStridedKernel:
    """The flow on its lattice against the masked flow it replaced: the
    same fields to the byte (signed zeros included) and the same sweep
    counts."""

    @pytest.mark.parametrize("case", list(KERNEL_CASES))
    def test_minimize_matches_masked_reference(self, monkeypatch, case):
        kind, nx, ny, params = KERNEL_CASES[case]
        spec, grid, bd, params = kernel_case(kind, nx, ny, **params)
        air = support_mask(spec, grid) if params.enforce_support \
            else np.zeros((ny, nx), dtype=bool)
        assert air.any() == params.enforce_support
        fast = cw.minimize_energy(spec, grid, bd, params)
        zaps = []
        monkeypatch.setattr(energy_module, "_flow", masked_flow(air, zaps))
        monkeypatch.setattr(energy_module, "_relax_on_support",
                            masked_relax_on_support)
        ref = cw.minimize_energy(spec, grid, bd, params)
        assert np.array_equal(fast.field.values, ref.field.values)
        assert fast.field.values.tobytes() == ref.field.values.tobytes()
        assert fast.iterations == ref.iterations <= params.max_iters
        assert fast.converged == ref.converged == ("capped" not in case)
        assert fast.energy == ref.energy
        # the envelope is on for types 1 and 2 only, and zaps nodes there
        assert bool(zaps) == (not kind.startswith("type3"))
        if zaps:
            assert max(end for _, end in zaps) > 0
            # the first block starts with an empty memory and its zaps
            # are released; later zaps are carried to the end of the flow
            assert zaps[0][0] == zaps[1][0] == 0
            assert all(start == prev_end for (start, _), (_, prev_end)
                       in zip(zaps[2:], zaps[1:]))
        if kind in ("beta2", "alpha2"):
            assert zaps[1][1] == 3 and zaps[-1][0] == 3

    def test_zap_memory_is_kept(self):
        # marked nodes stay +0.0 through a call, new zaps are added to the
        # memory, and no mark is dropped
        rng = np.random.default_rng(3)
        shape = (33, 34)
        u = rng.uniform(0.5, 1.0, shape)
        free = np.zeros(shape, dtype=bool)
        free[1:-1, 1:-1] = True
        eps = np.full(shape, 0.1)
        pull = np.full(shape, 0.01)
        envelope = np.full(shape, 1.1)
        envelope[~free] = np.inf
        marked = np.zeros(shape, dtype=bool)
        marked[5:9, 6:12] = True
        zapped = marked.copy()
        fast = u.copy()
        lattice_sor_block(fast, free, eps, pull, envelope, zapped, sweeps=5)
        assert np.all(zapped[marked]) and np.any(zapped & ~marked)
        assert fast[zapped].tobytes() == bytes(8 * int(zapped.sum()))
        # without the marks the same block regrows those nodes
        fresh = u.copy()
        lattice_sor_block(fresh, free, eps, pull, envelope,
                          np.zeros(shape, dtype=bool), sweeps=5)
        assert np.all(fresh[marked] > 0.0)

    @pytest.mark.parametrize("shape", [(33, 33), (31, 34)])
    def test_relax_matches_masked_reference(self, shape):
        rng = np.random.default_rng(7)
        u = np.maximum(rng.standard_normal(shape), 0.0)
        pinned = np.zeros(shape, dtype=bool)
        pinned[:, :3] = True
        pinned[[0, -1], :] = True
        pinned[:, -1] = True
        fast, ref = u.copy(), u.copy()
        energy_module._relax_on_support(fast, pinned, sweeps=7)
        masked_relax_on_support(ref, pinned, sweeps=7)
        assert fast.tobytes() == ref.tobytes()
        assert not np.array_equal(fast, u)


# masks of the nodes a kernel may update on a 31 x 34 grid (interior rows
# 1-29, columns 1-32), by the bounding box they span: rows j0-j1 by
# columns i0-i1, or None for no node
BOX_CASES = {
    "even-start": (2, 20, 4, 17),
    "odd-start": (3, 19, 5, 22),
    # odd widths with their halo, so laid out with no padding column; the
    # halo's first node has an even and an odd parity
    "odd-width-even-origin": (3, 18, 5, 19),
    "odd-width-odd-origin": (4, 20, 5, 21),
    "last-row-and-column": (20, 29, 25, 32),
    "single-node": (11, 11, 8, 8),
    "empty": None,
}
BOX_SHAPE = (31, 34)


def box_mask(box, rng):
    """A random mask whose bounding box is ``box``: its two corners and
    about half of the nodes between them."""
    mask = np.zeros(BOX_SHAPE, dtype=bool)
    if box is not None:
        j0, j1, i0, i1 = box
        mask[j0:j1 + 1, i0:i1 + 1] = rng.random((j1 - j0 + 1, i1 - i0 + 1)) < 0.5
        mask[j0, i0] = mask[j1, i1] = True
    return mask


class TestCroppedKernel:
    """The kernels work only around the bounding box of the nodes they may
    update, on two flat colour planes, and give the masked reference's
    bytes wherever that box lies."""

    @pytest.mark.parametrize("case", list(BOX_CASES) + ["whole-array"])
    def test_lattice_covers_the_box(self, case):
        # two cuts, red then black, each holding nodes of one colour, and
        # every masked node once with its four neighbours; the layout is
        # the box with a one-node halo, padded by at most one zero column
        # to an odd row length, and the cuts hold nothing beyond it
        if case == "whole-array":
            mask = np.zeros(BOX_SHAPE, dtype=bool)
            mask[1:-1, 1:-1] = True
            box = (1, 29, 1, 32)
        else:
            box = BOX_CASES[case]
            mask = box_mask(box, np.random.default_rng(0))
        ny, nx = BOX_SHAPE
        index = np.arange(1, ny * nx + 1).reshape(BOX_SHAPE)
        layout, cuts = energy_module._lattice(index, mask)
        assert len(cuts) == (0 if box is None else 2)
        masked, real = [], []
        for colour, (nodes, nbrs, sel) in enumerate(cuts):
            assert nodes.flags.c_contiguous and sel.flags.c_contiguous
            assert all(n.flags.c_contiguous for n in nbrs)
            masked.extend((nodes[sel] - 1).tolist())
            on = nodes[nodes > 0] - 1
            real.extend(on.tolist())
            assert np.all((on // nx + on % nx) % 2 == colour)
            for nbr, step in zip(nbrs, (1, -1, nx, -nx)):
                assert np.array_equal(nbr[sel], nodes[sel] + step)
        assert sorted(masked) == np.flatnonzero(mask).tolist()
        assert len(real) == len(set(real))
        expect = np.zeros(BOX_SHAPE, dtype=bool)
        halo = np.zeros(BOX_SHAPE, dtype=bool)
        if box is not None:
            j0, j1, i0, i1 = box
            expect[j0:j1 + 1, i0:i1 + 1] = True
            halo[j0 - 1:j1 + 2, i0 - 1:i1 + 2] = True
            # the planes, interleaved, are the rows of the box and its halo
            # at the odd row length n, then at most one zero entry
            planes, _ = layout
            m, w = j1 - j0 + 3, i1 - i0 + 3
            n = w | 1
            flat = planes.T.ravel()
            assert flat.size in (m * n, m * n + 1)
            assert np.array_equal(flat[:m * n].reshape(m, n)[:, :w],
                                  index[j0 - 1:j1 + 2, i0 - 1:i1 + 2])
            assert not flat[m * n:].any()
            assert not flat[:m * n].reshape(m, n)[:, w:].any()
        assert set(np.flatnonzero(expect)) <= set(real)
        assert set(real) <= set(np.flatnonzero(halo))
        # the layout writes back unchanged
        before = index.copy()
        energy_module._unplane(index, layout)
        assert np.array_equal(index, before)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 5), (5, 3), (5, 9),
                                       (17, 9), (13, 21), (33, 65)])
    def test_colour_cuts_on_strided_views(self, shape):
        # the multigrid's layout: the stride-2 views of an array of odd
        # flat length, no copy and no padding, plane 1 one entry shorter;
        # every interior node lies in the cut of its colour, once, with
        # its four neighbours, and no slice runs short of its cut
        m, n = shape
        index = np.arange(m * n).reshape(shape)
        planes = [index.reshape(-1)[p::2] for p in (0, 1)]
        assert planes[1].size == planes[0].size - 1
        cuts = energy_module._colour_cuts(planes, n, 0)
        assert [p for p, *_ in energy_module._colour_cuts(planes, n, 1)] \
            == [1, 0]
        inner = []
        for colour, (p, cut, nbrs) in enumerate(cuts):
            assert p == colour
            nodes = planes[p][cut]
            assert np.shares_memory(nodes, index)
            assert all(nbr.size == nodes.size for nbr in nbrs)
            for nbr, step in zip(nbrs, (1, -1, n, -n)):
                assert np.array_equal(nbr, nodes + step)
            i, j = np.divmod(nodes, n)
            assert np.all((i + j) % 2 == colour)
            assert np.all((i > 0) & (i < m - 1))
            inner.extend(nodes[(j > 0) & (j < n - 1)].tolist())
        assert sorted(inner) == index[1:-1, 1:-1].ravel().tolist()

    @pytest.mark.parametrize("envelope_on", [True, False])
    @pytest.mark.parametrize("case", list(BOX_CASES))
    def test_sor_block_matches_masked_reference(self, case, envelope_on):
        check_sor_block(case, envelope_on, scale=1.0)

    @pytest.mark.parametrize("case", list(BOX_CASES))
    def test_relax_matches_masked_reference(self, case):
        check_relax(case, scale=1.0)

    @pytest.mark.parametrize("envelope_on", [True, False])
    @pytest.mark.parametrize("case", list(BOX_CASES))
    def test_subnormal_start_matches_masked_reference(self, case,
                                                      envelope_on):
        # every value below the smallest normal float, 2.2e-308, where
        # 0.25 * x rounds: the kernels must keep the reference's order of
        # scalings.  Folding 0.25 into OMEGA and pull * 4 into pull gives
        # the same bytes on every normal start, not on this one (the
        # blowup flow reaches neighbour sums of 5e-308)
        for start in (check_sor_block(case, envelope_on, scale=SUBNORMAL),
                      check_relax(case, scale=SUBNORMAL)):
            assert 0.0 < np.max(start) < np.finfo(float).tiny

    @pytest.mark.parametrize("case", list(BOX_CASES))
    def test_every_kernel_array_starts_on_a_line(self, monkeypatch, case):
        # the flow's node cuts, constant cuts, scratch and zap memory, and
        # the sharpening's node cuts, its 0.25-weight cuts and the
        # neighbour sums it writes (into its node cuts), each at a cache
        # line, whatever the box's offset in the grid
        rng = np.random.default_rng(13)
        free = box_mask(BOX_CASES[case], rng)
        u = rng.uniform(0.0, 1.0, BOX_SHAPE)
        consts = [rng.uniform(0.1, 1.0, BOX_SHAPE) for _ in range(3)]
        _, lattice = energy_module._flow_lattice(u, free, *consts)
        assert len(lattice) == (0 if BOX_CASES[case] is None else 2)
        for node, _, _, _, *arrays, work, zap in lattice:
            for a in (node, *arrays, *work, zap):
                assert a.ctypes.data % energy_module.LINE == 0
                assert a.size == node.size and a.flags.c_contiguous
        streamed = []
        real_block = energy_module._relax_block
        real_sum = energy_module._neighbour_sum

        def block_seen(lattice, sweeps):
            for node, _, quarter, _, _ in lattice:
                assert set(np.unique(quarter)) <= {0.0, 0.25}
                streamed.extend((node, quarter))
            real_block(lattice, sweeps)

        def sum_seen(nbrs, out=None):
            streamed.append(out)
            return real_sum(nbrs, out)

        monkeypatch.setattr(energy_module, "_relax_block", block_seen)
        monkeypatch.setattr(energy_module, "_neighbour_sum", sum_seen)
        energy_module._relax_on_support(u, ~free, sweeps=2)
        assert len(streamed) == (0 if BOX_CASES[case] is None else 4 + 4)
        assert all(a.ctypes.data % energy_module.LINE == 0 for a in streamed)

    def test_sweeps_allocate_no_array(self, monkeypatch):
        # 20 sweeps of the beta = 2 flow at 257^2 hold less than one cut's
        # floats: every intermediate goes into the lattice's scratch.  What
        # is left is NumPy's cast buffer for the boolean band times the
        # float pull (8192 entries); one temporary per intermediate held
        # 344 kB
        spec = cw.ProblemSpec(alpha=0.0, beta=2.0, stag=cw.Type1(x0=-1.0),
                              domain=cw.Rect(-2.0, -1.0, 0.0, 1.0))
        grid = cw.GridSpec.from_domain(spec.domain, 257, 257)
        X, Y = grid.mesh()
        bd = np.asarray(evaluate_at_points(blowup_limit(spec), X, Y,
                                           spec.stagnation_location))
        lattices = []
        real = energy_module._flow_lattice

        def kept(*args):
            layout, lattice = real(*args)
            lattices.append(lattice)
            return layout, lattice

        monkeypatch.setattr(energy_module, "_flow_lattice", kept)
        cw.minimize_energy(spec, grid, bd, cw.SolverParams(max_iters=20))
        (lattice,) = lattices
        assert all(zap is not None for *_, zap in lattice)   # envelope on
        _, peak = traced_peak(energy_module._sor_block, lattice, 20)
        assert peak < lattice[0][0].nbytes

    def test_sharpening_sweeps_allocate_no_array(self, monkeypatch,
                                                 type3_case):
        # 60 sharpening sweeps of the type-3 winner at 257^2 hold less
        # than one cut's floats: each neighbour sum goes into its cut and
        # is scaled there.  A target allocated per update held 188 kB
        c = type3_case
        u = c.result.field.values.copy()
        pinned = boundary_ring(c.grid) | support_mask(c.spec, c.grid)
        lattices, real = [], energy_module._relax_block
        monkeypatch.setattr(energy_module, "_relax_block",
                            lambda lattice, sweeps: lattices.append(lattice))
        energy_module._relax_on_support(u, pinned, sweeps=60)
        (lattice,) = lattices
        before = [node.copy() for node, *_ in lattice]
        _, peak = traced_peak(real, lattice, 60)
        assert peak < lattice[0][0].nbytes
        assert any(not np.array_equal(node, old)
                   for (node, *_), old in zip(lattice, before))


SUBNORMAL = 1e-309   # the scale of the subnormal starts


def check_sor_block(case, envelope_on, scale):
    """``_sor_block`` against the masked reference from the caller's state
    on the box of ``case``: nonnegative, under the envelope, zero on the
    zap memory, and an infinite envelope off the free nodes; the values,
    band widths, pulls and envelope times ``scale``.  Returns the start."""
    rng = np.random.default_rng(11)
    free = box_mask(BOX_CASES[case], rng)
    u = np.maximum(rng.normal(0.3, 0.4, BOX_SHAPE), 0.0) * scale
    eps = rng.uniform(0.05, 0.3, BOX_SHAPE) * scale
    pull = rng.uniform(0.0, 0.02, BOX_SHAPE) * scale
    envelope = zapped = None
    if envelope_on:
        envelope = np.where(free, rng.uniform(0.4, 0.8, BOX_SHAPE) * scale,
                            np.inf)
        zapped = free & (rng.random(BOX_SHAPE) < 0.1)
        np.minimum(u, envelope, out=u)
        u[zapped] = 0.0
    fast, ref = u.copy(), u.copy()
    fast_zaps = None if zapped is None else zapped.copy()
    ref_zaps = None if zapped is None else zapped.copy()
    lattice_sor_block(fast, free, eps, pull, envelope, fast_zaps, sweeps=6)
    masked_sor_block(np.zeros(BOX_SHAPE, dtype=bool), [])(
        ref, free, eps, pull, envelope, ref_zaps, sweeps=6)
    assert fast.tobytes() == ref.tobytes()
    if zapped is not None:
        assert np.array_equal(fast_zaps, ref_zaps)
    assert np.array_equal(fast, u) == (case == "empty")
    assert np.array_equal(fast[~free], u[~free])
    return u


def check_relax(case, scale):
    """``_relax_on_support`` against the masked reference on a support
    {u > 0} off the pinned nodes that is the mask of ``case``, the values
    times ``scale``.  Returns the start."""
    rng = np.random.default_rng(12)
    support = box_mask(BOX_CASES[case], rng)
    u = np.maximum(rng.standard_normal(BOX_SHAPE), 0.0)
    u[support] = rng.uniform(0.1, 1.0, int(support.sum()))
    u *= scale
    pinned = ~support
    fast, ref = u.copy(), u.copy()
    energy_module._relax_on_support(fast, pinned, sweeps=5)
    masked_relax_on_support(ref, pinned, sweeps=5)
    assert fast.tobytes() == ref.tobytes()
    assert np.array_equal(fast, u) == (case == "empty")
    return u


class TestSupportHelpers:
    def test_support_mask_subcase_11(self):
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(spec.domain, 33, 33)
        air = support_mask(spec, g)
        _, Y = g.mesh()
        assert np.array_equal(air, Y >= -1e-12)

    def test_harmonic_extension_recovers_harmonic(self):
        g = cw.GridSpec.from_domain(cw.Rect(-1, -1, 1, 1), 33, 33)
        X, Y = g.mesh()
        exact = X * X - Y * Y
        ring = boundary_ring(g)
        data = np.where(ring, exact, 0.0)
        out = harmonic_extension(g, data, ring)
        assert np.max(np.abs(out - exact)) <= 1e-10


def spsolve_extension(grid, data, pinned):
    """The harmonic extension as one sparse direct solve of the five-point
    system on the free nodes."""
    free = ~(pinned | boundary_ring(grid))
    n_free = int(free.sum())
    if n_free == 0:
        return data.copy()
    idx = -np.ones(free.shape, dtype=int)
    idx[free] = np.arange(n_free)
    J, I = np.nonzero(free)
    k = idx[J, I]
    rows, cols, vals = [k], [k], [np.full(n_free, 4.0)]
    rhs = np.zeros(n_free)
    for dj, di in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        Jn, In = J + dj, I + di
        nb = free[Jn, In]
        rows.append(k[nb])
        cols.append(idx[Jn[nb], In[nb]])
        vals.append(np.full(int(nb.sum()), -1.0))
        np.add.at(rhs, k[~nb], data[Jn[~nb], In[~nb]])
    A = csr_matrix((np.concatenate(vals),
                    (np.concatenate(rows), np.concatenate(cols))),
                   shape=(n_free, n_free))
    out = data.copy()
    out[free] = spsolve(A, rhs)
    return out


def assert_matches_spsolve(grid, data, pinned):
    out = harmonic_extension(grid, data, pinned)
    ref = spsolve_extension(grid, data, pinned)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(data))


def free_set(kind, ny, nx, rng):
    """A free-node mask of ``kind`` on an ny x nx grid, empty for "empty"
    (the ring is pinned by the solver in any case)."""
    free = np.zeros((ny, nx), dtype=bool)
    if kind == "single":
        free[rng.integers(1, ny - 1), rng.integers(1, nx - 1)] = True
    elif kind == "components":
        # blocks on either side of a pinned column, and an isolated node
        c = int(rng.integers(3, nx - 3))
        free[1:-1, 1:c] = True
        free[2:-4, c + 1:-1] = True
        free[-2, -2] = True
    elif kind == "edge":
        # a region against the ring on three sides
        free[1:int(rng.integers(2, ny - 1)), 1:-1] = True
    elif kind == "odd":
        # isolated nodes at odd offsets from the box corner, so no coarse
        # level keeps a free node
        odd = free[1:-1:2, 1:-1:2]
        odd[...] = rng.random(odd.shape) < 0.5
    elif kind == "random":
        free = rng.random((ny, nx)) < rng.uniform(0.2, 0.95)
    return free


class _Captured(Exception):
    pass


SOLVING_CONFIGS = ["stokes", "corner_beta2", "corner_alpha2", "corner_type3",
                   "blowup_convergence"]


def bundled_call(attr, name, n=None):
    """The arguments of the first call to ``energy.<attr>`` in the solve of
    config ``name``, on an n x n grid or the config's own, positional ones
    first; the solve stops there."""
    raw = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    if n is not None:
        raw["grid"] = {"nx": n, "ny": n}
    cfg = parse_config(raw)
    seen = []

    def capture(*args, **kwargs):
        seen.append((*args, *kwargs.values()))
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy_module, attr, capture)
        with pytest.raises(_Captured):
            cw.minimize_energy(cfg.problem, cfg.grid, build_boundary(cfg)[0],
                               cfg.solver)
    return seen[0]


def bundled_start(name, n=None):
    """The arguments (grid, data, pinned) of the start solve of config
    ``name``, on an n x n grid or the config's own."""
    return bundled_call("harmonic_extension", name, n)


# The multigrid smoother as four strided parity classes (row parity, column
# parity) of the interior, two a colour, in red-black order: red (i + j
# even) is odd rows by odd columns plus even rows by even columns, black
# the two mixed ones.
_PARITIES = ((1, 1), (0, 0), (1, 0), (0, 1))


def strided_gauss_seidel(e, r, quarter, order):
    """``_gauss_seidel`` on strided 2-D slices of the interior: each
    parity class in turn, red first for ``order`` 0 and black first for 1,
    its east, west, north and south neighbours summed in that order."""
    m, n = e.shape
    for p, q in _PARITIES[2 * order:] + _PARITIES[:2 * order]:
        rows, cols = slice(2 - p, m - 1, 2), slice(2 - q, n - 1, 2)
        t = e[rows, 3 - q:n:2] + e[rows, 1 - q:n - 2:2]
        t += e[3 - p:m:2, cols]
        t += e[1 - p:m - 2:2, cols]
        t += r[rows, cols]
        t *= quarter[rows, cols]
        e[rows, cols] = t


def strided(fn, *args):
    """``fn(*args)`` with the strided reference smoother."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy_module, "_gauss_seidel", strided_gauss_seidel)
        return fn(*args)


class TestHarmonicExtension:
    """The multigrid-preconditioned CG solve against a sparse direct solve."""

    @pytest.mark.parametrize("name", SOLVING_CONFIGS)
    def test_bundled_starts(self, name):
        # the start solve of each solving config, at 129^2
        grid, fixed, pinned = bundled_start(name, 129)
        assert np.any(fixed > 0) and not np.all(pinned)
        assert_matches_spsolve(grid, fixed, pinned)

    @pytest.mark.parametrize("name", SOLVING_CONFIGS)
    def test_bundled_starts_match_the_strided_smoother(self, name):
        # the start of each solving config, on its own grid, to the byte
        args = bundled_start(name)
        assert harmonic_extension(*args).tobytes() \
            == strided(harmonic_extension, *args).tobytes()

    @given(km=st.integers(1, 8), kn=st.integers(1, 8),
           levels=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cycle_matches_the_strided_smoother(self, km, kn, levels, seed):
        # the flow's colour cuts smooth as the strided classes did, to the
        # byte, on every node off the ring; on the ring, which the classes
        # never touched, they may leave a zero of the other sign, and the
        # CG solve that reads the cycle is unchanged to the byte
        assume(km != kn)
        m, n = km * 2 ** levels + 1, kn * 2 ** levels + 1
        rng = np.random.default_rng(seed)
        free = np.zeros((m, n), dtype=bool)
        free[1:-1, 1:-1] = rng.random((m - 2, n - 2)) < rng.uniform(0.2, 1.0)
        r = rng.standard_normal((m, n)) * free
        mg = energy_module._Multigrid(free, levels)
        fast, ref = mg.cycle(r), strided(mg.cycle, r)
        assert fast[1:-1, 1:-1].tobytes() == ref[1:-1, 1:-1].tobytes()
        assert np.array_equal(fast, ref)
        assert mg.solve(r).tobytes() == strided(mg.solve, r).tobytes()

    @pytest.mark.parametrize("parity", [0, 1])
    @given(m=st.integers(3, 40), k=st.integers(1, 20),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_flat_operator_matches_the_2d_form(self, parity, m, k, seed):
        # even and odd row lengths: every interior node to the byte; the
        # first and last columns, +0.0 in the 2-D form, get 0 times a
        # wrapped sum, a zero of either sign
        n = 2 * k + 1 + parity
        rng = np.random.default_rng(seed)
        mask = np.zeros((m, n))
        mask[1:-1, 1:-1] = rng.random((m - 2, n - 2)) < rng.uniform(0.2, 1.0)
        u = rng.standard_normal((m, n))
        fast, ref = energy_module._five_point(u, mask), five_point_2d(u, mask)
        assert fast[1:-1, 1:-1].tobytes() == ref[1:-1, 1:-1].tobytes()
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("name", SOLVING_CONFIGS)
    def test_bundled_levels_match_the_2d_operator(self, name):
        # every operator call of the start solve of each solving config,
        # on its own grid (the CG steps, each level's residual and the
        # coarsest matrix), against the 2-D form; and the start itself to
        # the byte, although the flat form may leave -0.0 off the interior
        args = bundled_start(name)
        real, shapes = energy_module._five_point, set()

        def checked(u, mask):
            out, ref = real(u, mask), five_point_2d(u, mask)
            assert out[1:-1, 1:-1].tobytes() == ref[1:-1, 1:-1].tobytes()
            assert np.array_equal(out, ref)
            shapes.add(u.shape)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(energy_module, "_five_point", checked)
            fast = harmonic_extension(*args)
            mp.setattr(energy_module, "_five_point", five_point_2d)
            ref = harmonic_extension(*args)
        assert fast.tobytes() == ref.tobytes()
        # every level, from the padded box down to the coarsest
        levels = sorted(shapes, reverse=True)
        assert len(levels) >= 5
        for fine, coarse in zip(levels, levels[1:]):
            assert coarse == ((fine[0] + 1) // 2, (fine[1] + 1) // 2)
        assert max(levels[-1]) - 1 <= energy_module.COARSEST_CELLS

    @pytest.mark.parametrize("kind", ["empty", "single", "components",
                                      "edge", "odd", "random"])
    @given(ny=st.integers(16, 48), nx=st.integers(16, 48),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_drawn_masks(self, kind, ny, nx, seed):
        rng = np.random.default_rng(seed)
        grid = cw.GridSpec(nx=nx, ny=ny, origin=(0.0, 0.0), spacing=1.0)
        data = rng.uniform(-1.0, 1.0, (ny, nx)) * 10.0 ** rng.uniform(-3, 3)
        assert_matches_spsolve(grid, data, ~free_set(kind, ny, nx, rng))

    @given(a=st.integers(1, 40).filter(lambda a: (a + 1) & a),
           b=st.integers(1, 40).filter(lambda b: (b + 1) & b),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_box_sides_not_two_to_the_k_plus_one(self, a, b, seed):
        # an a x b free rectangle has a box of a + 2 by b + 2 nodes
        rng = np.random.default_rng(seed)
        grid = cw.GridSpec(nx=48, ny=48, origin=(0.0, 0.0), spacing=1.0)
        pinned = np.ones((48, 48), dtype=bool)
        j, i = rng.integers(1, 48 - a), rng.integers(1, 48 - b)
        pinned[j:j + a, i:i + b] = False
        data = rng.uniform(0.0, 1.0, (48, 48))
        assert_matches_spsolve(grid, data, pinned)

    def test_no_free_node_returns_a_copy(self):
        grid = cw.GridSpec(nx=16, ny=16, origin=(0.0, 0.0), spacing=1.0)
        data = np.arange(256.0).reshape(16, 16)
        out = harmonic_extension(grid, data, np.ones((16, 16), dtype=bool))
        assert out is not data and np.array_equal(out, data)

    def test_zero_data_gives_zero(self):
        grid = cw.GridSpec(nx=33, ny=33, origin=(0.0, 0.0), spacing=1.0)
        data = np.zeros((33, 33))
        assert not np.any(harmonic_extension(grid, data, boundary_ring(grid)))

    def test_capped_iterations_raise(self, monkeypatch):
        # a start that is not solved is refused, not returned
        g = cw.GridSpec.from_domain(cw.Rect(-1, -1, 1, 1), 65, 65)
        X, Y = g.mesh()
        data = np.where(boundary_ring(g), X * X - Y * Y + 2.0, 0.0)
        monkeypatch.setattr(energy_module, "CG_MAX_ITERS", 2)
        with pytest.raises(ArithmeticError, match="after 2 steps"):
            harmonic_extension(g, data, boundary_ring(g))

    def test_preconditioner_is_symmetric(self):
        rng = np.random.default_rng(0)
        free = np.zeros((65, 49), dtype=bool)
        free[1:-1, 1:-1] = rng.random((63, 47)) < 0.8
        mg = energy_module._Multigrid(free, 3)
        x, y = (rng.standard_normal(free.shape) * free for _ in range(2))
        xMy, yMx = np.vdot(x, mg.cycle(y)), np.vdot(y, mg.cycle(x))
        assert abs(xMy - yMx) <= 1e-12 * abs(xMy)
        assert np.vdot(x, mg.cycle(x)) > 0


class TestStarHull:
    """The hull is rasterised a chunk of ring nodes at a time; the one-shot
    form in ``references`` is the reference, bit for bit."""

    @pytest.fixture(scope="class")
    def stokes_1025(self):
        return bundled_call("star_hull_mask", "stokes", 1025)

    @pytest.mark.parametrize("name", SOLVING_CONFIGS)
    def test_bundled_starts(self, name):
        args = bundled_call("star_hull_mask", name)
        hull = energy_module.star_hull_mask(*args)
        assert np.any(hull)
        assert np.array_equal(hull, star_hull_mask_one_shot(*args))

    def test_stokes_ring_at_1025(self, stokes_1025):
        hull = energy_module.star_hull_mask(*stokes_1025)
        assert np.array_equal(hull, star_hull_mask_one_shot(*stokes_1025))

    def test_memory_at_1025(self, stokes_1025):
        # beyond its two boolean masks (1/4 of the field's bytes) a call
        # holds O(HULL_CHUNK) samples; the one-shot form held 26 times the
        # field's bytes
        grid = stokes_1025[0]
        hull, peak = traced_peak(energy_module.star_hull_mask, *stokes_1025)
        assert hull.shape == (1025, 1025)
        assert peak < 2 * grid.nx * grid.ny * 8

    @staticmethod
    def ring_case(count, n=33):
        """A grid, centre and ring mask with ``count`` positive nodes along
        the bottom edge."""
        grid = cw.GridSpec(nx=n, ny=n, origin=(-1.0, -1.0),
                           spacing=2.0 / (n - 1))
        ring = np.zeros((n, n), dtype=bool)
        ring[0, :count] = True
        return grid, (0.1, 0.3), ring

    @pytest.mark.parametrize("count", [0, 1])
    def test_no_or_one_positive_node(self, count):
        args = self.ring_case(count)
        hull = energy_module.star_hull_mask(*args)
        assert np.array_equal(hull, star_hull_mask_one_shot(*args))
        assert np.any(hull) == (count > 0)

    @pytest.mark.parametrize("chunk, count, chunks", [
        # four segments of 99 samples a chunk: the positive nodes fill one
        # chunk less one node, one chunk, one chunk and one node, two
        # chunks and two chunks and one node
        (4 * 99 + 1, 3, 1), (4 * 99 + 1, 4, 1), (4 * 99 + 1, 5, 2),
        (4 * 99 + 1, 8, 2), (4 * 99 + 1, 9, 3),
        # a chunk below one segment still takes one
        (1, 7, 7)])
    def test_chunk_edges(self, monkeypatch, chunk, count, chunks):
        monkeypatch.setattr(energy_module, "HULL_CHUNK", chunk)
        calls = []
        nearest = cw.GridSpec.nearest_node

        def counting(grid, px, py):
            calls.append(np.size(px))
            return nearest(grid, px, py)

        args = self.ring_case(count)
        expected = star_hull_mask_one_shot(*args)
        monkeypatch.setattr(cw.GridSpec, "nearest_node", counting)
        assert np.array_equal(energy_module.star_hull_mask(*args), expected)
        assert len(calls) == chunks and sum(calls) == count * 99
        assert max(calls) <= max(chunk, 99)


class TestCandidates:
    """A solve keeps the running winner of its nine scored states only."""

    @staticmethod
    def small_solve():
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(spec.domain, 33, 33)
        X, Y = g.mesh()
        bd = np.asarray(evaluate_at_points(blowup_limit(spec), X, Y,
                                           spec.stagnation_location))
        return cw.minimize_energy(spec, g, bd, cw.SolverParams())

    @pytest.mark.parametrize("energies", [
        [1.0] * 9,                                    # all equal
        [9.0 - i for i in range(9)],                  # strictly decreasing
        [5.0, 3.0, 4.0, 3.0, 2.0, 2.0, 7.0, 2.0, 9.0],   # tied lowest
        [2.0, 3.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],   # the start ties
    ], ids=["equal", "decreasing", "tied-lowest", "start-ties"])
    def test_winner_is_the_first_lowest(self, monkeypatch, energies):
        # the first lowest, as ``min`` picks it, with its own values
        scored = []
        feed = iter(energies)

        def fake_energy(values, wq):
            scored.append(values)
            return next(feed)

        monkeypatch.setattr(energy_module, "_energy_raw", fake_energy)
        result = self.small_solve()
        first = min(range(9), key=energies.__getitem__)
        assert [c.energy for c in result.candidates] == energies
        assert result.winner == result.candidates[first]
        assert result.field.values is scored[first]

    @pytest.mark.parametrize("name, winner", [("stokes", "flow@0.5"),
                                              ("corner_beta2", "start@0.5")])
    def test_at_most_two_candidate_arrays_alive(self, monkeypatch, name,
                                                winner):
        # the winner and the cut being scored; the start, scored first, is
        # the flow's own start and alive throughout.  Stokes wins with a
        # flow cut, so the count reaches two while the start cuts score.
        # In bytes the scoring holds under 6 fields above its entry (4.5
        # measured at 257^2, with the node weights, the sharpening lattice
        # and the energy's temporaries); holding all cuts took 12.3.
        cfg = parse_config(yaml.safe_load(
            (CONFIGS / f"{name}.yaml").read_text()))
        real_energy = energy_module._energy_raw
        real_candidates = energy_module._candidates
        seen, most, peaks = [], [], []

        def counting(values, wq):
            seen.append(weakref.ref(values))
            most.append(sum(ref() is not None for ref in seen[1:]))
            return real_energy(values, wq)

        def traced(*args):
            out, peak = traced_peak(real_candidates, *args)
            peaks.append(peak)
            return out

        monkeypatch.setattr(energy_module, "_energy_raw", counting)
        monkeypatch.setattr(energy_module, "_candidates", traced)
        result = cw.minimize_energy(cfg.problem, cfg.grid,
                                    build_boundary(cfg)[0], cfg.solver)
        assert f"{result.winner.source}@{result.winner.trim:g}" == winner
        assert len(seen) == 9 and max(most) == 2
        assert peaks[0] < 6 * result.field.values.nbytes

    @pytest.mark.parametrize("case", ["stokes_case", "beta2_case",
                                      "alpha2_case", "type3_case",
                                      "blowup_case"])
    def test_energy_matches_the_one_expression_form(self, request, case):
        # the three sums one after the other, each with its arrays alone,
        # give the float of the one expression
        solved = request.getfixturevalue(case)
        g, u = solved.grid, solved.result.field.values
        wq = energy_module._node_weights(
            g, energy_module._weight(solved.spec, g, None))
        assert energy_module._energy_raw(u, wq) \
            == energy_raw_one_expression(u, wq)
        assert solved.result.energy == energy_raw_one_expression(u, wq)


class TestDomainVariation:
    def test_zero_field_zero_residual(self):
        spec = stokes_spec()
        g = cw.GridSpec.from_domain(spec.domain, 65, 65)
        u = cw.ScalarField(g, np.zeros((65, 65)))
        phi = bump_vector_field(g, center=(-1.0, 0.0), radius=0.4)
        assert domain_variation_residual(spec, u, phi) == 0.0

    @pytest.mark.parametrize("direction", [(0.6, 0.8), (0.0, 1.0)])
    def test_oracle_field_refinement_decay(self, direction):
        # the exact profile is a weak solution; the residual is pure
        # quadrature error concentrated at the free boundary and decays at
        # least linearly under refinement
        spec = stokes_spec()
        prof = blowup_limit(spec)
        cx = -1 + 0.5 * math.cos(-math.pi / 6)
        cy = 0.5 * math.sin(-math.pi / 6)
        vals = []
        for n in (129, 257, 513):
            g = cw.GridSpec.from_domain(spec.domain, n, n)
            u = profile_field(prof, g, spec.stagnation_location)
            phi = bump_vector_field(g, center=(cx, cy), radius=0.3,
                                    direction=direction)
            vals.append(abs(domain_variation_residual(spec, u, phi)))
            sup = phi.sup_norm
        # at least linear decay over the four-fold refinement (order fit
        # with a 20% tolerance absorbs the mix of O(h) edge-band and
        # O(h^2) smooth quadrature error)
        order = math.log2(vals[0] / vals[2]) / 2.0
        assert order >= 0.8
        assert vals[2] <= 1e-2 * sup

    def test_collar_enforced(self):
        g = cw.GridSpec.from_domain(cw.Rect(-1, -1, 1, 1), 33, 33)
        ones = np.ones((33, 33))
        with pytest.raises(cw.InvalidSpec):
            cw.TestVectorField(g, ones, ones, collar=2)
