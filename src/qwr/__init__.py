"""Weight reduction and distance balancing for CSS codes, with
single-ancilla syndrome-extraction schedules and exact circuit-level
effective distances at desk scale."""

__version__ = "0.1.0"

from .codes import (
    INF,
    CapExceeded,
    ChainComplex,
    ClassicalCode,
    CssCode,
    classical_distance,
    complex_to_css,
    css_distance,
    css_to_complex,
    logical_basis,
    repetition_code,
)
from .f2la import BinMatrix
from .reduce import balance_x, balance_z, choose_heights, copy_code, gauge_code, greedy_heights, thicken
from .cone import build_cone_parts, cellulate, cone_code, soundness_lambda, thicken_cone
from .hgp import ProductSpec, higher_dim_hgp, hgp, kunneth_distance_predictor, tensor_complex
from .schedule import (
    Schedule,
    balanced_schedule,
    baseline_schedule,
    carry,
    cone_schedule,
    copied_schedule,
    enumerate_random_schedules,
    gauged_schedule,
)
from .faultdist import (
    effective_distance,
    enumerate_faults,
    hook_weight_audit,
    component_weight_audit,
    oracle_effective_distance,
)
