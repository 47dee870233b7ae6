"""Biosignal generation: synthetic ECG and source primitives."""

from .arrhythmia import IrregularEcg
from .ecg import PQRST, SyntheticEcg, Wave
from .sources import (
    ConstantSource,
    ScaledSource,
    SignalSource,
    SineSource,
)

__all__ = [
    "IrregularEcg",
    "PQRST",
    "SyntheticEcg",
    "Wave",
    "ConstantSource",
    "ScaledSource",
    "SignalSource",
    "SineSource",
]
