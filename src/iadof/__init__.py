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
    "AlignmentReport": "alignment",
    "EnumerationBudgetError": "alignment",
    "ReceiverProfile": "alignment",
    "TransmitPlan": "alignment",
    "achievable_dof_gamma": "alignment",
    "build_transmit_directions": "alignment",
    "closed_form_counts": "alignment",
    "expand_received": "alignment",
    "verify_alignment": "alignment",
    "ChannelRealization": "channel",
    "SystemConfig": "channel",
    "generate_channel": "channel",
    "DecodeBudgetError": "simulate",
    "SimConfig": "simulate",
    "SimResult": "simulate",
    "run_link_sim": "simulate",
}

__version__ = "0.1.0"

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
