"""evtkit: event-camera simulation, sensor degradation, and deblurring toolkit."""

from .core import (
    EventStream,
    FrameSequence,
    SensorModel,
    VoxelGrid,
    canonical_sort,
    pixel_index,
    validate,
)
from .degrade import (
    DegradationConfig,
    NoiseParams,
    bias_thresholds,
    inject_noise,
    limit_bandwidth,
    make_pair,
)
from .denoise import hot_pixel_filter, scf_filter
from .edi import EdiConfig, edi_reconstruct, edi_sequence, edi_weight
from .metrics import StreamStats, deblur_l1, event_l1_response, psnr, ssim, stream_stats
from .simulate import log_map, simulate_events, synthesize_blur
from .voxel import voxelize

__version__ = "0.1.0"

__all__ = [
    "EventStream", "FrameSequence", "SensorModel",
    "VoxelGrid", "canonical_sort", "pixel_index", "validate",
    "DegradationConfig", "NoiseParams", "bias_thresholds", "inject_noise",
    "limit_bandwidth", "make_pair",
    "hot_pixel_filter", "scf_filter",
    "EdiConfig", "edi_reconstruct", "edi_sequence", "edi_weight",
    "StreamStats", "deblur_l1", "event_l1_response", "psnr", "ssim", "stream_stats",
    "log_map", "simulate_events", "synthesize_blur",
    "voxelize",
    "__version__",
]
