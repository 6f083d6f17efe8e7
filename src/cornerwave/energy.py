"""Discrete Alt-Caffarelli energy and its projected-gradient descent.

The functional is

    J(u) = integral of |grad u|^2 + weight(x, y) * chi_{u > 0},

discretized as the five-point form: squared differences summed over grid
edges for the Dirichlet part and node quadrature for the weight term
(boundary edges and nodes carry half cells).  This is the form the
red-black sweeps relax, so every energy comparison the solver makes is
made in the functional it descends.  The indicator is evaluated exactly
as [u > 0] whenever an energy is REPORTED; a node at exactly u = 0 counts
as outside, matching the open-set convention.

Minimization is projected descent on the mollified energy: the descent
direction replaces chi_{u>0} by clamp(u/eps, 0, 1), whose derivative acts
only on the band 0 < u < eps; on a node in the band the stationarity
condition 2*lap(u) = w/eps reproduces the Bernoulli balance
|grad u|^2 = w at the band exit, so the positivity front settles on the
free boundary.  The sweeps are projected red-black SOR (plain explicit
steps need O(1/h^2) iterations and let indicator-cost lags stall the
front), and the iterate is re-projected after every half-sweep.

A solve runs in three stages: ``_start`` builds the start, ``_flow``
relaxes a copy of it, and ``_candidates`` scores the start and eight
trimmed, relaxed cuts of the flow end and the start by their exact
energy.  The first lowest of the nine is returned, flagged
``converged = False`` if the flow ran out of sweeps before it settled.

The sweeps are most of a solve, so they make as few array passes as the
same floats allow: they update only the bounding box of the free nodes,
laid out once per flow as two flat colour planes (``_lattice``), red and
black, in which each half-sweep is one contiguous cut whose four
neighbours are contiguous slices of the other plane.  A cut is updated in
place, and its entries that are no free node get their held values back
(``_sor_block``); the sharpening of each candidate sweeps the same way,
each cut one neighbour sum times a constant cut of 0.25 on the support
and 0.0 off it (``_relax_block``).  Every cut of the field, its masks and
its constants starts on a 64-byte cache line (``_aligned``), and the
kernels' scratch is allocated once per layout, so a sweep allocates no
array.  The line matters: the beta = 2 flow at 257^2 takes 82 ms with
its cuts on lines and 104 ms with them 8 or 16 bytes off, where NumPy's
allocator may put them (2-core Xeon).  The nine energy evaluations share
one array of node weights (``_node_weights``).  None of this changes a
float: fields, energies and sweep counts are those of the whole-grid
masked kernel the tests keep as the reference.

The start is a discrete harmonic extension (``harmonic_extension``),
solved by conjugate gradients preconditioned with one symmetric multigrid
V-cycle (``_Multigrid``: red-black Gauss-Seidel smoothing, a dense solve on
the coarsest level) to a relative residual of CG_TOL, in 15-16 steps on
the bundled starts.  The operator (``_five_point``) takes each of its
five terms as one contiguous slice of the raveled level, and the smoother
sweeps the same colour cuts as the flow (``_colour_cuts``), on stride-2
views of each level instead of copied planes.  A solve that has not
converged after CG_MAX_ITERS steps raises ArithmeticError rather than
return an unsolved start.

From the star-hull start the result is a state of the corner basin, not
always the lowest discrete-energy state.  Without the one-layer dilation
of the hull, the Stokes solve at 257^2 empties the ball r < 0.3 around
the stagnation point and ends at energy 1.44576, below the 1.44989 of the
corner it returns with the dilation.

Admissible fields vanish identically on the closed half-plane through the
stagnation point opposite the force direction (the air side); the
minimizer is sought in that class, matching the structure of weak
solutions.  Without this constraint the global minimizer of J with
cone-trace data is the everywhere-positive harmonic extension: the energy
saved by emptying the zero-weight side is nil while the Dirichlet cost is
positive, so the corner profile would be bypassed entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import (GridSpec, InvalidBoundary, InvalidSpec, ProblemSpec,
                     ScalarField, value_envelope_monomial, weight_at,
                     weight_gradient_at)
from .quadrature import grad_central


OMEGA = 1.85            # SOR relaxation factor
TOL_FIELD = 1e-7        # relative per-block field change at rest
BLOCK_SIZE = 10         # sweeps per stationarity check; even, see _flow
ENVELOPE_MARGIN = 1.3   # envelope constant over the largest ring u / monomial
TRIMS = (0.25, 0.5, 0.75, 1.0)  # candidate cut levels, in units of eps
CG_TOL = 1e-13          # relative residual at which the harmonic start stops
CG_MAX_ITERS = 100      # CG steps before the harmonic start is refused
COARSEST_CELLS = 8      # cells a side, at most, on the coarsest level
HULL_CHUNK = 1 << 14    # ray samples star_hull_mask rasterises at once
LINE = 64               # bytes of a cache line, where each kernel cut starts


@dataclass
class SolverParams:
    """Settings of minimize_energy: the sweep budget, and whether the air
    half-plane is pinned to zero and the Bernstein envelope trims spikes
    (both on for every pipeline solve)."""

    max_iters: int = 6000            # total sweeps
    enforce_support: bool = True
    bernstein_trim: bool = True


class Candidate(NamedTuple):
    source: str       # the state it was cut from, "start" or "flow"
    trim: float       # the cut level in units of eps, 0 for the uncut start
    energy: float     # its exact energy


@dataclass
class SolveResult:
    field: ScalarField            # the chosen state, ``winner``'s values
    winner: Candidate             # the first lowest of ``candidates``
    iterations: int               # flow sweeps
    converged: bool
    candidates: list[Candidate]   # every scored state, in scoring order

    @property
    def energy(self) -> float:
        return self.winner.energy

    @property
    def message(self) -> str:
        return ("flow reached stationarity" if self.converged
                else "max_iters hit before the flow settled")


def energy(spec: ProblemSpec, u: ScalarField,
           weight: np.ndarray | None = None) -> float:
    """Exact-indicator energy of a field over the whole grid; optional
    weight overrides the spec's weight as in ``minimize_energy``."""
    g = u.grid
    return _energy_raw(u.values, _node_weights(g, _weight(spec, g, weight)))


def _weight(spec: ProblemSpec, grid: GridSpec,
            weight: np.ndarray | None) -> np.ndarray:
    """The spec's weight at the nodes, or ``weight`` once it is checked to
    be a finite, nonnegative (ny, nx) array."""
    if weight is None:
        return np.asarray(weight_at(spec, *grid.mesh()))
    w = np.asarray(weight, float)
    if w.shape != (grid.ny, grid.nx):
        raise InvalidSpec("weight shape does not match the grid")
    if not (np.all(np.isfinite(w)) and np.all(w >= 0.0)):
        raise InvalidSpec("weight must be finite and nonnegative")
    return w


def _node_weights(grid: GridSpec, w: np.ndarray) -> np.ndarray:
    """The weight term's quadrature: ``w`` times the node cell areas (half
    cells on the boundary ring)."""
    qw = np.full((grid.ny, grid.nx), grid.spacing ** 2)
    qw[[0, -1], :] *= 0.5
    qw[:, [0, -1]] *= 0.5
    return w * qw


def _energy_raw(values: np.ndarray, wq: np.ndarray) -> float:
    """The exact-indicator energy of ``values`` with the node weights
    ``wq = _node_weights(grid, w)``, which a solve builds once for its
    nine evaluations.  The weight term sums ``wq * chi``: as chi is 0 or
    1, that is ``(w * chi) * areas`` to the bit.  The three sums are taken
    one after the other, so one edge or node array is alive at a time."""
    return float(_edge_energy(values, 1) + _edge_energy(values, 0)
                 + np.sum(wq * (values > 0.0)))


def _edge_energy(values: np.ndarray, axis: int) -> float:
    """The Dirichlet part over the grid edges along ``axis`` (1: x, 0: y),
    the five-point form the sweeps relax (central differences miss the
    odd-even mode, and relaxation can raise them): the sum of squared
    differences, an edge on the boundary ring at half weight."""
    e = np.diff(values, axis=axis)
    e *= e
    # the edges as rows along x: the first and last rows lie on the ring
    rows = e if axis == 1 else e.T
    rows[[0, -1], :] *= 0.5
    return np.sum(e)


def boundary_ring(grid: GridSpec) -> np.ndarray:
    ring = np.zeros((grid.ny, grid.nx), dtype=bool)
    ring[0, :] = ring[-1, :] = True
    ring[:, 0] = ring[:, -1] = True
    return ring


def support_mask(spec: ProblemSpec, grid: GridSpec) -> np.ndarray:
    """Nodes of the closed non-fluid half-plane through the stagnation
    point (normal = force direction; theta_star for type 3), where
    admissible fields vanish identically."""
    X, Y = grid.mesh()
    x0, y0 = spec.stagnation_location
    nx_, ny_ = spec.model.air_normal
    return ((X - x0) * nx_ + (Y - y0) * ny_) <= 1e-12


def harmonic_extension(grid: GridSpec, data: np.ndarray,
                       pinned: np.ndarray) -> np.ndarray:
    """Solve the five-point Laplace equation with Dirichlet values ``data``
    on the ``pinned`` nodes and the grid ring.

    The free box (``_halo_box``) is padded with pinned nodes to k * 2^L +
    1 nodes a side, the largest k at most COARSEST_CELLS, and solved there
    by ``_Multigrid``.  Raises ArithmeticError if the solve does not
    converge."""
    free = ~(pinned | boundary_ring(grid))
    box = _halo_box(free)
    if box is None:
        return data.copy()
    inside = free[box]
    m, n = inside.shape
    levels = 0
    while max(m, n) - 1 > COARSEST_CELLS << levels:
        levels += 1
    step = 1 << levels
    shape = (-(-(m - 1) // step) * step + 1, -(-(n - 1) // step) * step + 1)
    mask = np.zeros(shape, dtype=bool)
    mask[:m, :n] = inside
    known = np.zeros(shape)
    known[:m, :n] = np.where(inside, 0.0, data[box])
    rhs = np.zeros(shape)
    rhs[1:-1, 1:-1] = (known[:-2, 1:-1] + known[2:, 1:-1]
                       + known[1:-1, :-2] + known[1:-1, 2:])
    rhs *= mask
    u = _Multigrid(mask, levels).solve(rhs)
    out = data.copy()
    out[box][inside] = u[:m, :n][inside]
    return out


def _halo_box(mask: np.ndarray) -> tuple[slice, slice] | None:
    """The bounding box of ``mask``, False on the grid ring, with a
    one-node halo, as (row, column) slices; None for an empty mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    return (slice(int(rows[0]) - 1, int(rows[-1]) + 2),
            slice(int(cols[0]) - 1, int(cols[-1]) + 2))


def star_hull_mask(grid: GridSpec, center, ring_positive: np.ndarray) -> np.ndarray:
    """Nodes swept by segments from ``center`` to every ring node flagged
    positive, dilated by one layer.  For data tracing a cone profile this
    is the cone itself, so a harmonic start restricted to it sits in the
    corner basin of the energy landscape.

    Each segment is sampled at 3 * max(nx, ny) points, rounded to their
    nearest nodes.  The segments are rasterised a chunk of ring nodes at a
    time, at most HULL_CHUNK points (or one segment) a chunk, so beyond
    the two boolean masks a call holds O(HULL_CHUNK) bytes whatever the
    grid: on a 1025^2 Stokes ring, well under the field's own bytes."""
    ny, nx = ring_positive.shape
    mask = np.zeros((ny, nx), dtype=bool)
    J, I = np.nonzero(ring_positive)
    px = grid.origin[0] + grid.spacing * I
    py = grid.origin[1] + grid.spacing * J
    t = np.linspace(0.0, 1.0, 3 * max(nx, ny))
    step = max(1, HULL_CHUNK // t.size)
    for a in range(0, len(J), step):
        sx = center[0] + (px[a:a + step, None] - center[0]) * t
        sy = center[1] + (py[a:a + step, None] - center[1]) * t
        mask[grid.nearest_node(sx, sy)] = True
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def minimize_energy(spec: ProblemSpec, grid: GridSpec, boundary_data,
                    params: SolverParams,
                    weight: np.ndarray | None = None) -> SolveResult:
    """Relax J with Dirichlet data on the grid ring and return the first
    lowest-energy candidate; the stages are named in the module docstring.

    ``boundary_data`` is an (ny, nx) array whose outer ring supplies the
    data (interior values ignored).  ``weight``, a finite, nonnegative
    (ny, nx) array, overrides the spec weight nodewise (diagnostic hook,
    e.g. frozen to 1 for plane smoke tests) and switches the envelope
    off.  ``params`` sets the sweep budget and the two switches; all else
    is a module constant."""
    bd = np.asarray(boundary_data, float)
    if bd.shape != (grid.ny, grid.nx):
        raise InvalidSpec("boundary data shape does not match the grid")
    ring = boundary_ring(grid)
    if not np.all(np.isfinite(bd[ring])):
        raise InvalidBoundary("boundary data must be finite")
    if np.any(bd[ring] < 0):
        raise InvalidBoundary("negative boundary data")
    air = support_mask(spec, grid) if params.enforce_support \
        else np.zeros_like(ring)
    if np.any(bd[ring & air] > 0):
        raise InvalidBoundary(
            "boundary data positive on the non-fluid half-plane")
    pinned = ring | air
    fixed = np.where(ring & ~air, bd, 0.0)   # the values of pinned nodes
    w = _weight(spec, grid, weight)
    eps = 2.0 * grid.spacing * np.sqrt(w)   # band width, see _flow

    start, envelope = _start(spec, grid, fixed, pinned,
                             params.bernstein_trim and weight is None)
    end = start.copy()
    sweeps, converged = _flow(end, grid, pinned, eps, w, envelope,
                              params.max_iters)
    records, winner, values = _candidates(grid, fixed, pinned, eps, w,
                                          envelope, start, end)
    return SolveResult(ScalarField(grid, values), winner, sweeps, converged,
                       records)


def _start(spec: ProblemSpec, grid: GridSpec, fixed: np.ndarray,
           pinned: np.ndarray, envelope_on: bool):
    """The start of the flow and the Bernstein envelope (None when off).

    The start is the harmonic extension of the ring data restricted to the
    star hull of its positive arcs (an unrestricted harmonic start sits in
    the flat local minimum), capped by the envelope: a multiple of the
    admissible monomial fitted to the ring data, so scale-invariant for
    cone-trace data.  Hair-like spikes along a degeneracy axis carry
    |grad u|^2 > weight inside, are nearly energy-neutral, and are
    excluded by the Bernstein bound rather than by energetics, so the
    plain descent cannot remove them."""
    hull = star_hull_mask(grid, spec.stagnation_location, fixed > 0)
    u = harmonic_extension(grid, fixed, pinned=pinned | ~hull)
    np.maximum(u, 0.0, out=u)
    # No envelope for type 3 (no fixed bisector): a cone containing a
    # coordinate axis (the axis-symmetric pairs) has positive values on a
    # ray where the growth monomial vanishes, so the literal bound would
    # zero the cone interior itself.
    if not envelope_on or spec.model.bisector is None:
        return u, None
    mono = value_envelope_monomial(spec, *grid.mesh())
    sel = (fixed > 0) & (mono > 0)
    if not np.any(sel):
        return u, None
    envelope = ENVELOPE_MARGIN * float(np.max(fixed[sel] / mono[sel])) * mono
    envelope[pinned] = np.inf   # so no pinned node enters the zap memory
    np.minimum(u, envelope, out=u)   # feasible without cratering the support
    return u, envelope


def _flow(u: np.ndarray, grid: GridSpec, pinned: np.ndarray, eps: np.ndarray,
          w: np.ndarray, envelope: np.ndarray | None,
          max_iters: int) -> tuple[int, bool]:
    """Projected SOR on ``u`` in place, in blocks of BLOCK_SIZE sweeps (the
    last cut short at ``max_iters``), until a full block changes the field
    by less than TOL_FIELD of the start's largest value: (sweeps,
    converged).  A block cut short never reports rest, as a field still
    on its way changes less over fewer sweeps: type 3 at 33^2 rests at
    100 sweeps, but the last block of a 92-sweep budget, 2 sweeps long,
    already changes it by less than the tolerance.

    With eps = 2h*sqrt(w) the band criterion u < eps is a slope below
    2*sqrt(w), scale-correct under the degenerate weight, and the
    stationary band exit slope is sqrt(w).  The band drains in O(1) sweeps
    only where w is bounded below.  Near a degenerate stagnation point
    w -> 0 (w ~ r^3 at a type-3 point) takes the band and its pull with
    it, so the flow keeps a front that the start placed too wide there;
    the candidates' energy comparison settles it.  Flooring eps does not
    help: near the vertex the whole cone then lies in the band and is
    drained to zero.

    The indicator energy jumps by w*h^2 the moment a front node turns
    positive while its Dirichlet payoff accrues over later sweeps, so the
    flow runs to its own stationarity, not to an energy stall, and no
    block is scored: evaluated after every block, none of 910 energies
    over the bundled configs' (or the test suite's) solves beat the start.

    The lattice is laid out once per flow: every block sweeps the same
    two ``_flow_lattice`` cuts of ``u`` and its constants, and ``u`` is
    written back once, at the end.  The stop test reads the cuts alone,
    in place on the copies it saved, one buffer per cut allocated once
    per flow: a node outside them never changes, and a halo, padding or
    pinned entry inside them changes only for a moment inside a cut
    update and has its value back before anything reads it, so their
    largest change is the same float as the whole grid's.

    The rest state is a cycle of period two, not a fixed point: on type 3
    at 257^2, 19.6k nodes switch between 0 and a small positive value
    every sweep, while 22.8k are positive after any one sweep.  Only
    states an even number of sweeps apart agree, so the stop test, which
    compares states BLOCK_SIZE sweeps apart, fires only for an even
    block.  Type 3 at 257^2 stops after 560 sweeps with blocks of 10 and
    576 with 12, and runs to the 6000-sweep cap with 5, 9 and 11.  Beta =
    2, whose zap memory also moves, stops with 10 alone of 5, 9, 10, 11
    and 12.  ``test_only_an_even_block_rests`` pins the rule at 33^2.

    With the envelope each cut carries a zap memory, the nodes of the cut
    the envelope zeroed, held at zero for the whole flow.  Without it each
    block regrows the nodes the block before zeroed and zeroes them again,
    a limit cycle that runs the beta = 2 and alpha = 2 corners to
    max_iters (6000 sweeps, against 910).  With a memory per block,
    beta = 2 zaps up to 47 nodes in 585 of the 599 later blocks, never the
    same set in two blocks running, so a test for a repeated zap set would
    not stop its cycle.  The first block's zaps alone are released, as
    they act on the start rather than on the flow: Stokes zaps 33 nodes in
    its first block and none after, and keeping those empties the Stokes
    vertex (its analysis then fails at r = 0.05).
    """
    free = ~pinned
    pull = np.divide(w, eps, out=np.zeros_like(eps), where=eps > 0)
    pull *= grid.spacing * grid.spacing / 8.0
    scale = max(float(np.max(u)), 1e-300)
    layout, lattice = _flow_lattice(u, free, eps, pull, envelope)
    saved = [_aligned(node.shape, float) for node, *_ in lattice]
    sweeps, converged = 0, False
    while sweeps < max_iters and not converged:
        for (node, *_), old in zip(lattice, saved):
            np.copyto(old, node)
        block = min(BLOCK_SIZE, max_iters - sweeps)
        _sor_block(lattice, block)
        if sweeps == 0 and envelope is not None:
            for *_, zap in lattice:
                zap[...] = False
        sweeps += block
        change = 0.0
        for (node, *_), old in zip(lattice, saved):
            np.subtract(node, old, out=old)
            np.abs(old, out=old)
            change = max(change, float(np.max(old, initial=0.0)))
        converged = block == BLOCK_SIZE and change < TOL_FIELD * scale
    _unplane(u, layout)
    return sweeps, converged


def _candidates(grid: GridSpec, fixed: np.ndarray, pinned: np.ndarray,
                eps: np.ndarray, w: np.ndarray, envelope: np.ndarray | None,
                start: np.ndarray, end: np.ndarray
                ) -> tuple[list[Candidate], Candidate, np.ndarray]:
    """Every scored state's Candidate, in scoring order (the start, then
    the flow end and the start each cut at every trim), and the first
    lowest of them with its values.

    The stationary state of the mollified flow carries a quadratic skirt
    of width ~eps/sqrt(w) beyond the sharp free boundary (the smeared
    interface itself).  A cut keeps the nodes with u >= trim * eps, is
    relaxed on its frozen support and zapped by the envelope.  The sharp
    minimizer's edge sits near the eps/4 level of the skirt, and the
    energy comparison selects it without measurement-side tuning.  The
    uncut flow end is no candidate: it never scored below the start.

    Only the running winner's values are kept: a cut replaces it when
    its energy is strictly lower, which is ``min``'s first-lowest rule.
    So besides ``start`` and ``end`` at most two candidate arrays are
    alive at once, the winner and the cut being scored."""
    wq = _node_weights(grid, w)
    best = Candidate("start", 0.0, _energy_raw(start, wq))
    records, values = [best], start
    for source, state in (("flow", end), ("start", start)):
        for trim in TRIMS:
            cand = np.where(state >= trim * eps, state, 0.0)
            cand[pinned] = fixed[pinned]
            _relax_on_support(cand, pinned, sweeps=60)
            if envelope is not None:
                cand[cand > envelope] = 0.0
            scored = Candidate(source, trim, _energy_raw(cand, wq))
            records.append(scored)
            if scored.energy < best.energy:
                best, values = scored, cand
            del cand   # a losing cut is freed before the next is built
    return records, best, values


def _neighbour_sum(nbrs, out: np.ndarray | None = None) -> np.ndarray:
    """The sum of the four neighbour slices ``nbrs``, into ``out`` when
    given."""
    right, left, below, above = nbrs
    nb = np.add(right, left, out=out)
    nb += below
    nb += above
    return nb


def _colour_cuts(planes, n: int, red: int) -> list:
    """The colour cuts of a row-major array of odd row length ``n`` split
    by the parity of the flat index k into two planes, plane p holding
    the entries k = 2e + p: per colour, plane ``red`` first, the entry
    (p, cut, neighbours).  ``cut`` is the slice [lo, hi) of plane p, lo =
    (n + 1) // 2 and hi = len(planes[0]) - lo, which holds every entry of
    the array off its first and last rows; the neighbours are the right,
    left, below and above neighbours k + 1, k - 1, k + n and k - n of the
    cut's entries, as slices of the other plane.

    As n is odd, the parity of k is the colour (i + j) % 2 of its node, so
    nodes of one cut do not neighbour each other.  The cut also holds the
    first and last columns of the inner rows, whose neighbours wrap to the
    next row: a kernel must not change what is there.  Plane 1 may be one
    entry shorter than plane 0 (an odd flat length); no slice runs past
    it."""
    lo = (n + 1) // 2
    hi = len(planes[0]) - lo
    # the right, left, below and above neighbours of entry e of plane p
    # are entries e + shift of the other plane
    shifts = ((0, -1, lo - 1, -lo), (1, 0, lo, 1 - lo))
    return [(p, slice(lo, hi),
             tuple(planes[1 - p][lo + s:hi + s] for s in shifts[p]))
            for p in (red, 1 - red)]


def _lattice(u: np.ndarray, mask: np.ndarray, *consts) -> tuple:
    """The two-colour lattice of ``u`` on the nodes of ``mask`` (False on
    the grid ring): its layout and its two cuts, red then black, each an
    entry (node, neighbours, mask, *constants) of 1-D contiguous slices.

    The layout is the box of ``mask`` (``_halo_box``), padded with zero
    columns to an odd row length n, raveled row by row, padded to an even
    length 2 * half and copied into two planes of ``half`` entries, whose
    cuts are those of ``_colour_cuts``: each holds every node of the box
    off its halo of one colour.  The red plane is the one of parity (r0 +
    c0) % 2, (r0, c0) being the box's first node.
    ``mask`` and every array in ``consts`` get the same layout (None stays
    None).  The planes of each array are the rows of one ``_aligned``
    buffer, so every cut starts on a cache line.

    Halo and padding entries inside a cut are not nodes a kernel may
    change: it keeps their values.  The two cuts do not see each other's
    nodes, so updating one and then the other is the simultaneous colour
    update of the red-black sweep, node for node and in the same
    floating-point operations.  ``_unplane(u, layout)`` writes the box
    back; an empty mask gives no layout and no cut."""
    box = _halo_box(mask)
    if box is None:
        return None, []
    r0, c0 = box[0].start, box[1].start
    m, w = mask[box].shape
    n = w | 1
    half = (m * n + 1) // 2
    lo = (n + 1) // 2   # the first entry of each colour cut

    def flat(a):
        padded = np.zeros(2 * half, a.dtype)
        padded[:m * n].reshape(m, n)[:, :w] = a[box]
        planes = _aligned((2, half), a.dtype, lo)
        planes[...] = padded.reshape(half, 2).T
        return planes

    planes = flat(u)
    arrays = [flat(mask), *(None if c is None else flat(c) for c in consts)]
    cuts = [(planes[p, cut], nbrs,
             *(None if a is None else a[p, cut] for a in arrays))
            for p, cut, nbrs in _colour_cuts(planes, n, (r0 + c0) % 2)]
    return (planes, box), cuts


def _aligned(shape: tuple, dtype, lead: int = 0) -> np.ndarray:
    """Zeros of ``shape``, (n,) or (rows, n), whose entry ``lead`` of every
    row starts on a LINE-byte cache line: a view of a buffer allocated a
    line too long, its rows padded to whole lines."""
    item = np.dtype(dtype).itemsize
    per = LINE // item
    *rows, n = shape
    skip = -lead % per
    width = -(-(skip + n) // per) * per
    size = math.prod(rows) * width * item
    raw = np.zeros(size + LINE, np.uint8)
    start = -raw.ctypes.data % LINE
    buf = raw[start:start + size].view(dtype).reshape(*rows, width)
    return buf[..., skip:skip + n]


def _unplane(u: np.ndarray, layout) -> None:
    """Write the box of a ``_lattice`` layout back into ``u``."""
    if layout is None:
        return
    planes, box = layout
    cut = u[box]
    m, w = cut.shape
    n = w | 1
    cut[...] = planes.T.reshape(-1)[:m * n].reshape(m, n)[:, :w]


def _flow_lattice(u: np.ndarray, free: np.ndarray, eps: np.ndarray,
                  pull: np.ndarray, envelope: np.ndarray | None
                  ) -> tuple[tuple | None, list]:
    """The layout of ``u`` and the lattice ``_sor_block`` sweeps: per
    ``_lattice`` cut of the free nodes the node slice, its neighbours, the
    indices of its entries that are no free node (halo, padding and pinned
    nodes) with their values, the constants eps, pull and envelope, the
    kernel's scratch (target, band product and two boolean masks) and an
    empty zap memory (the envelope and the memory None without an
    envelope).  Every entry is a slice of a flat colour plane or is fixed
    for the flow, so one layout serves every block; every array of a cut
    starts on a cache line.  Both cuts are the slice [lo, hi) of their
    plane and are updated in turn, so they share one scratch."""
    layout, cuts = _lattice(u, free, eps, pull, envelope)
    if not cuts:
        return layout, []
    shape = cuts[0][0].shape
    work = tuple(_aligned(shape, t) for t in (float, float, bool, bool))
    lattice = []
    for node, nbrs, free_s, *consts in cuts:
        held = np.flatnonzero(~free_s)
        zap = None if consts[-1] is None else _aligned(shape, bool)
        lattice.append((node, nbrs, held, node[held], *consts, work, zap))
    return layout, lattice


def _sor_block(lattice: list, sweeps: int) -> None:
    """Projected red-black SOR sweeps on the flow's lattice in place.

    The entries are those of ``_flow_lattice``.  A node's target is the
    neighbour mean less ``pull`` where it lies in the band 0 < u < eps;
    the relaxed value is clamped at zero and, with an envelope, zeroed
    where it exceeds the envelope.  A zeroed node is marked in the zap
    memory, and a marked node is set to +0.0 at every update, so its
    surroundings relax down instead of instantly regrowing it past the
    envelope.  The memory only grows here; the flow keeps it across
    blocks.

    Only updated nodes are clamped and tested: the rest of the field is
    already nonnegative and under the envelope (the flow starts from such
    a state, and the envelope is nonnegative).  A cut is updated in place
    over its whole slice, and then its halo, padding and pinned entries
    get their held values back, before the other cut reads them; so they
    keep their value and no -0.0 enters the field.  Every product and sum
    is the one of the plain formula ``keep * u + OMEGA * (0.25 * sum -
    pull * band)``, in that order; the scalings act in place.  They stay
    separate: folding 0.25 into OMEGA (and pull times 4 into pull) is
    exact only on normal numbers, and the blowup flow reaches subnormal
    neighbour sums.

    Every intermediate is written into the lattice's scratch, so a sweep
    allocates no array (NumPy's cast buffer for the boolean band times
    the float pull aside), and every array the sweep streams, the
    neighbour slices apart, starts on a cache line (module docstring)."""
    keep = 1.0 - OMEGA
    for _ in range(sweeps):
        for node, nbrs, held, values, eps_s, pull_s, env, work, zap in lattice:
            target, product, band, below = work
            _neighbour_sum(nbrs, target)
            target *= 0.25
            np.greater(node, 0.0, out=band)
            np.less(node, eps_s, out=below)
            band &= below
            np.multiply(pull_s, band, out=product)
            target -= product
            target *= OMEGA
            node *= keep
            node += target
            np.maximum(node, 0.0, out=node)
            if env is not None:
                np.greater(node, env, out=band)
                zap |= band
                np.copyto(node, 0.0, where=zap)
            node[held] = values


def _relax_on_support(u: np.ndarray, pinned: np.ndarray, sweeps: int) -> None:
    """Plain Gauss-Seidel toward harmonicity on the support {u > 0}.

    The update target is the nonnegative neighbor mean, so the support
    cannot shrink (over-relaxation would overshoot below zero at the cut
    and eat the support inward sweep by sweep).  As in the flow, the
    sweeps (``_relax_block``) run on the two cuts of a ``_lattice`` laid
    out once, around the bounding box of the support; ``pinned`` holds
    the grid ring.  Each cut carries a constant cut of 0.25 on the support
    and 0.0 elsewhere, built from its mask cut on a cache line, and the
    indices of its nonzero entries off the support (ring data inside the
    box) with their values.  ``u`` must be finite and nonnegative, with
    +0.0 for zero, as every candidate is."""
    support = (u > 0.0) & ~pinned
    layout, cuts = _lattice(u, support)
    lattice = []
    for node, nbrs, sel in cuts:
        quarter = _aligned(sel.shape, float)
        np.multiply(sel, 0.25, out=quarter)
        held = np.flatnonzero(~sel & (node != 0.0))
        lattice.append((node, nbrs, quarter, held, node[held]))
    _relax_block(lattice, sweeps)
    _unplane(u, layout)


def _relax_block(lattice: list, sweeps: int) -> None:
    """The sweeps of ``_relax_on_support`` on its lattice in place.

    A cut is updated over its whole slice as one masked product: the
    neighbour sum goes straight into the cut (its nodes do not neighbour
    each other), is multiplied by the constant cut, and the held entries
    get their values back, as in ``_sor_block``.  That is the masked
    update ``u[support] = 0.25 * sum[support]`` to the bit: ``sum * 0.25``
    is ``0.25 * sum``, and a sum of finite nonnegative values times 0.0 is
    the +0.0 that every other entry off the support holds.  A sweep
    allocates no array."""
    for _ in range(sweeps):
        for node, nbrs, quarter, held, values in lattice:
            _neighbour_sum(nbrs, node)
            node *= quarter
            node[held] = values


def _five_point(u: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """4u - (sum of the four neighbours) on the free nodes, 0 elsewhere;
    ``mask`` is the float free mask, 0 on the outer ring.

    Each term is one flat slice of the raveled ``u``: the entries k, k - n,
    k + n, k - 1 and k + 1 (n the row length) for k over the rows off the
    first and last, subtracted in that order and multiplied by ``mask`` at
    k.  The first and last columns of those rows, whose neighbours k - 1
    and k + 1 wrap to the next row, get 0 times a finite value, a signed
    zero."""
    n = u.shape[1]
    flat, out = u.reshape(-1), np.zeros_like(u)
    k = slice(n + 1, u.size - n - 1)
    c = out.reshape(-1)[k]
    np.multiply(flat[k], 4.0, out=c)
    c -= flat[1:-2 * n - 1]
    c -= flat[2 * n + 1:-1]
    c -= flat[n:-n - 2]
    c -= flat[n + 2:-n]
    c *= mask.reshape(-1)[k]
    return out


def _gauss_seidel(e: np.ndarray, r: np.ndarray, quarter: np.ndarray,
                  order: int) -> None:
    """One red-black Gauss-Seidel sweep of ``_five_point(e) = r`` in place,
    red first for ``order`` 0 and black first for 1, on the
    ``_colour_cuts`` of the stride-2 views of ``e`` (no copy): each
    colour's nodes are solved for at once, ``quarter`` being a quarter of
    the free mask.  The row length of ``e`` must be odd.  As in
    ``_five_point``, the first and last columns inside a cut, whose
    neighbours wrap to the next row, get 0 times their sum, a signed
    zero."""
    e_p, r_p, q_p = ([a.reshape(-1)[p::2] for p in (0, 1)]
                     for a in (e, r, quarter))
    for p, cut, nbrs in _colour_cuts(e_p, e.shape[1], order):
        t = _neighbour_sum(nbrs)
        t += r_p[p][cut]
        t *= q_p[p][cut]
        e_p[p][cut] = t


class _Multigrid:
    """The system ``_five_point(u) = rhs`` on a free mask of k * 2^levels
    + 1 nodes a side, pinned on the outer ring, solved by CG with one
    V(1,1)-cycle as the preconditioner.

    Level l + 1 keeps the even nodes of level l (its free mask by
    injection) and the same unscaled operator.  The residual goes down by
    full weighting (weights 1, 1/2, 1/4, the transpose of bilinear
    prolongation) and the correction comes up bilinearly, both masked.
    Red-black Gauss-Seidel (``_gauss_seidel``) smooths red then black
    before the coarse correction and black then red after it, so the cycle
    is a symmetric positive definite operator.  The smoother sweeps the
    flow's colour cuts on the flat array, where flat-index parity is colour
    only at an odd row length: every smoothed level has k * 2^l + 1 nodes
    a side with l >= 1, so it holds.  The operator, in the CG steps, the
    residual and the coarsest matrix alike, is ``_five_point`` on the flat
    array; each level keeps its float free mask and a quarter of it.  The
    coarsest level, not smoothed, is solved with a dense inverse."""

    def __init__(self, free: np.ndarray, levels: int):
        self.levels = []
        for _ in range(levels + 1):
            mask = free.astype(float)
            self.levels.append((mask, 0.25 * mask))
            free = free[::2, ::2]
        mask, _ = self.levels[-1]
        self.coarse = np.flatnonzero(mask)
        units = np.zeros((self.coarse.size, mask.size))
        units[np.arange(self.coarse.size), self.coarse] = 1.0
        matrix = [_five_point(unit.reshape(mask.shape), mask).ravel()
                  for unit in units]
        self.inverse = np.linalg.inv(
            np.reshape(matrix, units.shape)[:, self.coarse])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Conjugate gradients for ``_five_point(u) = rhs`` on the free
        nodes, preconditioned by ``cycle``, from u = 0 until the residual
        is below CG_TOL of ``rhs`` in the 2-norm; ArithmeticError after
        CG_MAX_ITERS steps short of that."""
        mask = self.levels[0][0]
        u = np.zeros_like(rhs)
        goal = CG_TOL * np.sqrt(np.vdot(rhs, rhs))
        r = rhs.copy()
        p = np.zeros_like(rhs)   # so the first direction is z
        rz, steps = 1.0, 0
        while np.sqrt(np.vdot(r, r)) > goal:
            if steps == CG_MAX_ITERS:
                raise ArithmeticError(
                    f"harmonic extension: CG above a relative residual of "
                    f"{CG_TOL:g} after {CG_MAX_ITERS} steps")
            steps += 1
            z = self.cycle(r)
            rz, rz_old = np.vdot(r, z), rz
            p *= rz / rz_old
            p += z
            q = _five_point(p, mask)
            alpha = rz / np.vdot(p, q)
            u += alpha * p
            r -= alpha * q
        return u

    def cycle(self, r: np.ndarray, level: int = 0) -> np.ndarray:
        """The V-cycle's correction e for the residual ``r`` of ``level``,
        from e = 0."""
        e = np.zeros_like(r)
        if level == len(self.levels) - 1:
            e.flat[self.coarse] = self.inverse @ r.flat[self.coarse]
            return e
        mask, quarter = self.levels[level]
        _gauss_seidel(e, r, quarter, 0)
        res = r - _five_point(e, mask)
        coarse_mask = self.levels[level + 1][0]
        t = res[2:-2:2] + 0.5 * (res[1:-3:2] + res[3:-1:2])
        down = np.zeros(coarse_mask.shape)
        down[1:-1, 1:-1] = t[:, 2:-2:2] + 0.5 * (t[:, 1:-3:2] + t[:, 3:-1:2])
        down *= coarse_mask
        ec = self.cycle(down, level + 1)
        t = np.empty((r.shape[0], ec.shape[1]))
        t[::2] = ec
        t[1::2] = 0.5 * (ec[:-1] + ec[1:])
        e[:, ::2] += t
        e[:, 1::2] += 0.5 * (t[:, :-1] + t[:, 1:])
        e *= mask
        _gauss_seidel(e, r, quarter, 1)
        return e


@dataclass
class TestVectorField:
    """Compactly supported vector field phi = (phi1, phi2) on a grid; zero
    in a collar of ``collar`` node layers along the boundary."""

    grid: GridSpec
    phi1: np.ndarray
    phi2: np.ndarray
    collar: int = 2

    def __post_init__(self):
        self.phi1 = np.asarray(self.phi1, dtype=float)
        self.phi2 = np.asarray(self.phi2, dtype=float)
        shape = (self.grid.ny, self.grid.nx)
        if self.phi1.shape != shape or self.phi2.shape != shape:
            raise InvalidSpec("test field shape does not match the grid")
        if not (np.all(np.isfinite(self.phi1)) and np.all(np.isfinite(self.phi2))):
            raise InvalidSpec("test field values must be finite")
        c = self.collar
        if c < 1:
            raise InvalidSpec("collar must be at least one node layer")
        border = np.ones(shape, dtype=bool)
        border[c:-c, c:-c] = False
        if np.any(self.phi1[border] != 0.0) or np.any(self.phi2[border] != 0.0):
            raise InvalidSpec("test field must vanish in the boundary collar")

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.hypot(self.phi1, self.phi2)))


def bump_vector_field(grid: GridSpec, center, radius: float,
                      direction=(0.6, 0.8)) -> TestVectorField:
    """Smooth compactly supported bump: direction * exp(1 - 1/(1 - s^2))
    with s the scaled distance to ``center``."""
    X, Y = grid.mesh()
    s2 = ((X - center[0]) ** 2 + (Y - center[1]) ** 2) / radius ** 2
    bump = np.zeros_like(X)
    inside = s2 < 1.0
    bump[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return TestVectorField(grid, direction[0] * bump, direction[1] * bump)


def domain_variation_residual(spec: ProblemSpec, u: ScalarField,
                              phi: TestVectorField) -> float:
    """First variation of J under the inner variation X -> X + eps*phi:

        integral of |grad u|^2 div phi - 2 grad(u)^T Dphi grad(u)
                    + weight * div phi * chi + (grad weight . phi) * chi.

    Vanishes (up to quadrature error) when u is a weak solution."""
    g = u.grid
    h = g.spacing
    ux, uy = grad_central(u.values, h)
    p1x, p1y = grad_central(phi.phi1, h)
    p2x, p2y = grad_central(phi.phi2, h)
    X, Y = g.mesh()
    w = np.asarray(weight_at(spec, X, Y))
    wx, wy = weight_gradient_at(spec, X, Y)
    chi = (u.values > 0.0).astype(float)
    div_phi = p1x + p2y
    quad_form = ux * (p1x * ux + p1y * uy) + uy * (p2x * ux + p2y * uy)
    integrand = ((ux * ux + uy * uy) * div_phi - 2.0 * quad_form
                 + w * div_phi * chi + (wx * phi.phi1 + wy * phi.phi2) * chi)
    return float(np.sum(integrand) * h * h)
