"""Equilibrium structure of the mean-field spin-1 model in both ensembles.

Solvers for the canonical (fixed inverse temperature) and microcanonical
(fixed energy per site) equilibrium macrostates, their critical couplings and
tricritical points, phase-diagram sweeps with ensemble-equivalence reports,
and exact finite-size total-spin distributions for limit-law diagnostics.
"""

from .core import (
    BETA_C,
    UNIFORM,
    CanonicalParams,
    DomainError,
    Macrostate,
    MicroParams,
    canonical_rate,
    cramer_rate,
    cumulant,
    energy_domain,
    energy_per_site,
    mean_tilt,
    micro_rate,
    rel_entropy,
    single_site_measure,
)
from .canonical import (
    CanonicalCriticals,
    CanonicalSolution,
    canonical_criticals,
    canonical_free_energy,
    cumulant_inflection,
    dual_route_minimum,
    first_order_coupling,
    mag_potential,
    positive_well,
    second_order_coupling,
    solve_canonical,
    tangency,
    tilt_macrostate,
    tilt_potential,
)
from .micro import (
    MicroCriticals,
    MicroSolution,
    admissible_domain,
    convexity_threshold,
    first_order_coupling_u,
    micro_criticals,
    micro_entropy,
    second_order_coupling_u,
    shell_macrostate,
    shell_rate,
    solve_micro,
)
from .limits import (
    LimitDensity,
    MetropolisResult,
    SpinPmf,
    TypeReport,
    classify_minimum,
    conditioned_clt_check,
    convergence_diagnostic,
    exact_spin_pmf,
    limit_density,
    metropolis_sampler,
)
from .diagram import (
    EquivalenceReport,
    PhaseDiagramRow,
    beta_c1_of_K,
    beta_c2_of_K,
    equivalence_report,
    nonequivalence_gap,
    simplex_oracle,
    sweep_canonical,
    sweep_micro,
    tricritical_canonical,
    tricritical_micro,
    u_c1_of_K,
    u_c2_of_K,
)

__version__ = "0.1.0"
