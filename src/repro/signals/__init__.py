"""Biosignal generation: synthetic ECG and source primitives."""

from .arrhythmia import IrregularEcg
from .ecg import PQRST, SyntheticEcg, Wave
from .sources import ScaledSource, SignalSource

__all__ = [
    "IrregularEcg",
    "PQRST",
    "SyntheticEcg",
    "Wave",
    "ScaledSource",
    "SignalSource",
]
