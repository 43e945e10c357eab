"""Exact DoF bounds, alignment direction sets, and link simulation for the
K-user MxN constant Gaussian interference channel."""

import importlib

# Every layer loads on first access of one of its names (PEP 562), so
# `import iadof` loads no layer, and the bound names never import numpy.
_LAZY = {
    "DofReport": "bounds",
    "PartitionWitness": "bounds",
    "achievable_dof": "bounds",
    "dof_report": "bounds",
    "dof_upper_bound": "bounds",
    "gou_jafar_reference": "bounds",
    "regime_classify": "bounds",
    "solve_partition_balance": "bounds",
    "AlignmentReport": "alignment",
    "EnumerationBudgetError": "alignment",
    "ReceiverProfile": "alignment",
    "TransmitPlan": "alignment",
    "achievable_dof_gamma": "alignment",
    "build_transmit_directions": "alignment",
    "closed_form_counts": "alignment",
    "expand_received": "alignment",
    "per_antenna_dof_gamma": "alignment",
    "truncate_plan": "alignment",
    "verify_alignment": "alignment",
    "ChannelRealization": "channel",
    "SystemConfig": "channel",
    "generate_channel": "channel",
    "DirectionSet": "directions",
    "DecodeBudgetError": "simulate",
    "InconsistentPlanError": "simulate",
    "SimConfig": "simulate",
    "SimResult": "simulate",
    "amplitude_scale": "simulate",
    "antenna_model": "simulate",
    "min_distance": "simulate",
    "run_link_sim": "simulate",
    "separation_exponent": "simulate",
    "simulate_plan": "simulate",
}

__version__ = "0.1.0"

__all__ = [
    "AlignmentReport",
    "ChannelRealization",
    "DecodeBudgetError",
    "DirectionSet",
    "DofReport",
    "EnumerationBudgetError",
    "InconsistentPlanError",
    "PartitionWitness",
    "ReceiverProfile",
    "SimConfig",
    "SimResult",
    "SystemConfig",
    "TransmitPlan",
    "achievable_dof",
    "achievable_dof_gamma",
    "amplitude_scale",
    "antenna_model",
    "build_transmit_directions",
    "closed_form_counts",
    "dof_report",
    "dof_upper_bound",
    "expand_received",
    "generate_channel",
    "gou_jafar_reference",
    "min_distance",
    "per_antenna_dof_gamma",
    "regime_classify",
    "run_link_sim",
    "separation_exponent",
    "simulate_plan",
    "solve_partition_balance",
    "truncate_plan",
    "verify_alignment",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
