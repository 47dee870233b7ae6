"""Applications: the paper's ECG streaming and Rpeak case studies."""

from .base import SamplingApplication
from .ecg_streaming import (
    BITS_PER_CODE,
    DEFAULT_PAYLOAD_BYTES,
    EcgStreamingApp,
    codes_per_payload,
    pack_codes,
    unpack_codes,
)
from .rpeak import BEAT_PAYLOAD_BYTES, RPEAK_SAMPLING_HZ, RpeakApp
from .rpeak_detector import RPeakDetector

__all__ = [
    "SamplingApplication",
    "BITS_PER_CODE",
    "DEFAULT_PAYLOAD_BYTES",
    "EcgStreamingApp",
    "codes_per_payload",
    "pack_codes",
    "unpack_codes",
    "BEAT_PAYLOAD_BYTES",
    "RPEAK_SAMPLING_HZ",
    "RpeakApp",
    "RPeakDetector",
]
