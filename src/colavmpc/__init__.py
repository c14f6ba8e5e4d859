"""Sample-based MPC collision avoidance planner and scenario simulator."""

from .core import TimeGrid, VelocityTrajectory, VesselState, wrap_angle
from .vessel import ControllerGains, VesselModel, default_gains, default_model
from .primitives import ErrorModel, StepParams
from .tree import CandidateSet, TreeParams, generate_tree
from .guidance import DesiredTrajectory, LosParams, desired_acceleration, los_targets
from .objective import (
    ObjectiveWeights,
    ObstaclePrediction,
    PenaltyGeometry,
    penalty,
    region_radius,
    select,
)
from .obstacles import EstimateNoise, ObstacleEstimate, ObstacleScript, observe, predict_obstacle
from .config import ConfigError, ScenarioConfig
from .sim import Metrics, RunLog, classify_situation, compute_metrics, plan_step, run
from .scenarios import SCENARIO_NAMES, build_scenario, load_scenario

__version__ = "0.1.0"

__all__ = [
    "CandidateSet",
    "ConfigError",
    "ControllerGains",
    "DesiredTrajectory",
    "ErrorModel",
    "EstimateNoise",
    "LosParams",
    "Metrics",
    "ObjectiveWeights",
    "ObstacleEstimate",
    "ObstaclePrediction",
    "ObstacleScript",
    "PenaltyGeometry",
    "RunLog",
    "SCENARIO_NAMES",
    "ScenarioConfig",
    "StepParams",
    "TimeGrid",
    "TreeParams",
    "VelocityTrajectory",
    "VesselState",
    "build_scenario",
    "classify_situation",
    "compute_metrics",
    "default_gains",
    "default_model",
    "desired_acceleration",
    "generate_tree",
    "load_scenario",
    "los_targets",
    "observe",
    "penalty",
    "plan_step",
    "predict_obstacle",
    "region_radius",
    "run",
    "select",
    "wrap_angle",
]
