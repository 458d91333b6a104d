"""Learning-rate constants and strategy simulations for social learning networks."""

from ratebound.signal_models import (
    BinarySymmetric,
    Finite,
    Gaussian,
    SignalModel,
    StateSpace,
)
from ratebound.ldp_numerics import ConjugateResult, PairKernel
from ratebound.rates import (
    RateReport,
    UNBOUNDED,
    autarky_rate,
    bounded_rate,
    coordination_threshold,
    rate_report,
    sweep_figure1,
    weak_bounded_rate,
)
from ratebound.network import Network, PropagationSchedule, build_schedule, replay_knowledge
from ratebound.strategies import (
    AutarkyML,
    ConstantFirstPeriod,
    CoordinationComplete,
    CoordinationConnected,
    OddEven,
)
from ratebound.sim_engine import (
    FitResult,
    MistakeCurve,
    SimConfig,
    enumerate_exact,
    exact_autarky_curve,
    fit_rate,
    mistake_curve,
    run_trajectory,
)

__all__ = [
    "AutarkyML",
    "BinarySymmetric",
    "ConjugateResult",
    "ConstantFirstPeriod",
    "CoordinationComplete",
    "CoordinationConnected",
    "Finite",
    "FitResult",
    "Gaussian",
    "MistakeCurve",
    "Network",
    "OddEven",
    "PairKernel",
    "PropagationSchedule",
    "RateReport",
    "SignalModel",
    "SimConfig",
    "StateSpace",
    "UNBOUNDED",
    "autarky_rate",
    "bounded_rate",
    "build_schedule",
    "coordination_threshold",
    "enumerate_exact",
    "exact_autarky_curve",
    "fit_rate",
    "mistake_curve",
    "rate_report",
    "replay_knowledge",
    "run_trajectory",
    "sweep_figure1",
    "weak_bounded_rate",
]
