"""Core substrate: sequence predicates, the SSA network IR, layer compiler,
flat execution plans, and the persistent build/plan cache."""

from .network import Balancer, Network, NetworkBuilder, identity_network, single_balancer_network
from .compiled import CompiledNetwork, WidthGroup, compile_network
from .bitplan import (
    BitPlan,
    NotZeroOneError,
    evaluate_zero_one_packed,
    pack_zero_one,
    unpack_zero_one,
)
from .plan import ExecutionPlan, PlanExecutor, lower_network, plan_executor
from .semantics import CountOverflowError
from .cache import PlanCache, cached_network, cached_plan, code_version_hash, default_cache
from .compose import parallel, repeat, serial
from . import sequences

__all__ = [
    "Balancer",
    "Network",
    "NetworkBuilder",
    "identity_network",
    "single_balancer_network",
    "CompiledNetwork",
    "WidthGroup",
    "compile_network",
    "BitPlan",
    "NotZeroOneError",
    "evaluate_zero_one_packed",
    "pack_zero_one",
    "unpack_zero_one",
    "ExecutionPlan",
    "PlanExecutor",
    "lower_network",
    "plan_executor",
    "CountOverflowError",
    "PlanCache",
    "cached_network",
    "cached_plan",
    "code_version_hash",
    "default_cache",
    "sequences",
    "parallel",
    "repeat",
    "serial",
]
