"""Monte Carlo simulator and analysis toolkit for coherent-light
beam-splitter bunching experiments with four-detector coincidence counting."""

__version__ = "0.1.0"

from .bs_algebra import Combination, PhaseBasis, bs_matrix, global_phase_equivalent
from .coincidence_unit import CcuConfig, TallyTable, accumulate, tally_from_csv, tally_to_csv
from .detector_bank import Detector, DetectorConfig
from .photon_source import CHUNK_SLOTS, SourceConfig, occupied_slots, substream
from .routing_models import RoutingModel
from .simulate import SimConfig, simulate, simulate_streams
from .statistics import (
    REFERENCE_BLOCKS,
    CalibrationResult,
    CorrelationResult,
    RatePrediction,
    calibrate,
    g2_zero,
    predicted_rates,
    scaling_check,
)

__all__ = [
    "CHUNK_SLOTS",
    "REFERENCE_BLOCKS",
    "CalibrationResult",
    "CcuConfig",
    "Combination",
    "CorrelationResult",
    "Detector",
    "DetectorConfig",
    "PhaseBasis",
    "RatePrediction",
    "RoutingModel",
    "SimConfig",
    "SourceConfig",
    "TallyTable",
    "__version__",
    "accumulate",
    "bs_matrix",
    "calibrate",
    "g2_zero",
    "global_phase_equivalent",
    "occupied_slots",
    "predicted_rates",
    "scaling_check",
    "simulate",
    "simulate_streams",
    "substream",
    "tally_from_csv",
    "tally_to_csv",
]
