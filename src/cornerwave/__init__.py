"""Numerical laboratory for stagnation-point singularities of the
degenerate one-phase Bernoulli free-boundary problem on 2-D grids:
energy minimization, Weiss-type monotonicity, frequency bounds, blow-up
classification, and the closed-form corner profiles they are checked
against."""

from .blowup import (BlowupResult, ClassificationReport, blowup_analysis,
                     check_bernstein, classify, estimate_asymptotic_directions,
                     homogeneity_residual, rescale)
from .domain import (DegenerateDenominator, EmptyPositivity, GridSpec,
                     InvalidBoundary, InvalidPair, InvalidSpec, ProblemSpec,
                     RadiusOutOfRange, Rect, ScalarField, StagnationPoint,
                     Type1, Type2, Type3, load_field, save_field,
                     stagnation_point, weight_at)
# the function ``energy`` stays ``cornerwave.energy.energy``: re-exported,
# it would shadow its own submodule
from .energy import (SolverParams, SolveResult, TestVectorField,
                     bump_vector_field, domain_variation_residual,
                     minimize_energy)
from .frequency import FrequencyProfile, check_frequency_bound, frequency_profile
from .oracle import (AnglePair, ClosedFormProfile, blowup_limit,
                     conclusion_table, corner_density, evaluate_blowup_limit,
                     full_ball_density, solve_angle_pairs)
from .weiss import (RadialSweep, WeissProfile, check_monotonicity,
                    limit_density, radial_sweep, weiss_profile)

__all__ = [name for name in dir() if not name.startswith("_")]
