"""repro: Arithmetic-Intensity-Guided Fault Tolerance for NN Inference.

A full-system reproduction of Kosaian & Rashmi, SC '21 (see DESIGN.md
for the system inventory and the documented GPU-simulation substitution).

Quickstart
----------
>>> import repro
>>> session = repro.deploy("resnet50", "T4", h=224, w=224)
>>> plan = session.plan  # per-layer scheme assignment + overheads
>>> plan.guided_overhead_percent <= plan.scheme_overhead_percent("global")
True
>>> session.campaign(layer="fc", seed=1).run_batch(50).coverage
1.0
"""

from .config import DEFAULT_CONSTANTS, DEFAULT_DETECTION, DetectionConstants, ModelConstants
from .errors import (
    CampaignError,
    ConfigurationError,
    DetectionError,
    FaultInjectionError,
    ModelZooError,
    OccupancyError,
    PlanError,
    ProfilingError,
    RecoveryError,
    ReproError,
    ServingError,
    ShapeError,
    TilingError,
)
from .gpu import GPUSpec, get_gpu, list_gpus
from .gemm import GemmProblem, TileConfig, TiledGemm, select_tile
from .abft import (
    GlobalABFT,
    MultiChecksumGlobalABFT,
    NoProtection,
    PreparedCache,
    PreparedExecution,
    PreparedWeights,
    ReplicationSingleAccumulator,
    ReplicationTraditional,
    Scheme,
    ThreadLevelOneSided,
    ThreadLevelTwoSided,
    get_scheme,
    list_schemes,
    scheme_from_token,
    scheme_token,
    split_dtype_token,
)
from .faults import (
    CampaignOptions,
    FaultCampaign,
    FaultKind,
    FaultPath,
    FaultSpec,
    PropagationCampaign,
    PropagationOutcome,
    PropagationResult,
    RecoveryPolicy,
)
from .roofline import aggregate_intensity, classify_problem, cmr_table, layer_intensities
from .nn import (
    ModelGraph,
    ProtectedInference,
    SequentialModel,
    TransformerBlockSpec,
    build_model,
    build_transformer_graph,
    build_transformer_runnable,
    list_models,
    transformer_models,
)
from .core import (
    IntensityGuidedABFT,
    PredeploymentProfiler,
    analytical_choice,
    overhead_percent,
    reduction_factor,
)
from .api import (
    CallablePolicy,
    DeploymentPlan,
    FixedPolicy,
    IntensityGuidedPolicy,
    LayerPlan,
    ProtectedSession,
    SchemePolicy,
    as_policy,
    deploy,
)
from .fleet import (
    FleetDeployment,
    PlanDiff,
    PlanRegistry,
    ServingReport,
    SessionServer,
    deploy_fleet,
    plan_diff,
    serve_session,
)
from . import api, fleet

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # configuration
    "DEFAULT_CONSTANTS",
    "DEFAULT_DETECTION",
    "ModelConstants",
    "DetectionConstants",
    # errors
    "ReproError",
    "ConfigurationError",
    "ShapeError",
    "TilingError",
    "OccupancyError",
    "FaultInjectionError",
    "CampaignError",
    "DetectionError",
    "ProfilingError",
    "ModelZooError",
    "PlanError",
    "RecoveryError",
    "ServingError",
    # gpu
    "GPUSpec",
    "get_gpu",
    "list_gpus",
    # gemm
    "GemmProblem",
    "TileConfig",
    "TiledGemm",
    "select_tile",
    # abft
    "Scheme",
    "PreparedCache",
    "PreparedExecution",
    "PreparedWeights",
    "NoProtection",
    "GlobalABFT",
    "ThreadLevelOneSided",
    "ThreadLevelTwoSided",
    "ReplicationTraditional",
    "ReplicationSingleAccumulator",
    "MultiChecksumGlobalABFT",
    "get_scheme",
    "list_schemes",
    "scheme_from_token",
    "scheme_token",
    "split_dtype_token",
    # faults
    "FaultSpec",
    "FaultKind",
    "FaultPath",
    "CampaignOptions",
    "FaultCampaign",
    "PropagationCampaign",
    "PropagationOutcome",
    "PropagationResult",
    "RecoveryPolicy",
    # roofline
    "aggregate_intensity",
    "layer_intensities",
    "classify_problem",
    "cmr_table",
    # nn
    "ModelGraph",
    "build_model",
    "list_models",
    "SequentialModel",
    "ProtectedInference",
    "TransformerBlockSpec",
    "build_transformer_graph",
    "build_transformer_runnable",
    "transformer_models",
    # core
    "IntensityGuidedABFT",
    "PredeploymentProfiler",
    "analytical_choice",
    "overhead_percent",
    "reduction_factor",
    # deployment api
    "api",
    "SchemePolicy",
    "IntensityGuidedPolicy",
    "FixedPolicy",
    "CallablePolicy",
    "as_policy",
    "DeploymentPlan",
    "LayerPlan",
    "ProtectedSession",
    "deploy",
    # fleet
    "fleet",
    "FleetDeployment",
    "PlanDiff",
    "PlanRegistry",
    "ServingReport",
    "SessionServer",
    "deploy_fleet",
    "plan_diff",
    "serve_session",
]
