"""Privacy-aware pricing, bundling, and profit sharing for data-driven services.

The package models a provider that buys crowd-contributed data at a
chosen privacy level, sells the resulting service (alone or bundled) to
customers with uniform reservation prices, and picks the privacy levels
and fees that maximize gross profit.  Closed-form optimizers are paired
with grid and Monte-Carlo oracles throughout.
"""
from .bundle import (
    COMPLEMENT,
    SUBSTITUTE,
    BundleSpec,
    BundlingDecision,
    OptimumBundle,
    bundle_grid,
    bundle_objective,
    bundling_decision,
    concavity_report_bundle,
    gross_profit_bundle,
    optimal_bundle_fee_fixed_privacy,
    optimize_bundle,
)
from .demand import (
    EXACT_GEOMETRY,
    PAPER_FORM,
    ContingencyInput,
    MarketSpec,
    degree_of_contingency,
    prob_buy_complement,
    prob_buy_separate,
    prob_buy_substitute,
)
from .errors import DomainError, ScenarioError
from .hessians import ConcavityReport
from .oracles import (
    DemandRegion,
    GridMaxResult,
    GridSpec,
    SimResult,
    SimulationSpec,
    estimate_buy_probability,
    grid_maximize,
    participant_reports,
    simulate_market,
)
from .quality import (
    FitOptions,
    FitResult,
    QualityParams,
    QualitySample,
    evaluate_quality,
    fit_quality_curve,
    load_samples,
    max_privacy,
    quality_derivatives,
)
from .scenario import LoadedScenario, SweepSpec, load_scenario, sweep_values
from .separate import (
    OptimumSeparate,
    SeparateScenario,
    ServiceSpec,
    concavity_report_separate,
    gross_profit_separate,
    optimal_fee_fixed_privacy,
    optimize_separate,
    privacy_cap,
    separate_grid,
    separate_objective,
)
from .sharing import (
    Allocation,
    CharacteristicFunction,
    CoreVerdict,
    core_check,
    core_interval_two,
    shapley_allocation,
)

__version__ = "0.1.0"
