"""Hardware models of the IMEC BAN sensor node (Section 3.1).

* :mod:`repro.hw.mcu` — TI MSP430F149 two-state power model,
* :mod:`repro.hw.radio` — Nordic nRF2401 with ShockBurst, hardware CRC
  and address filtering,
* :mod:`repro.hw.asic` — 25-channel biopotential front-end,
* :mod:`repro.hw.adc` — on-chip 12-bit ADC transfer function,
* :mod:`repro.hw.frames` — over-the-air frame representation.
"""

from .adc import Adc12
from .asic import ECG_CHANNEL, NUM_CHANNELS, BiopotentialAsic
from .frames import BROADCAST, Frame, FrameKind
from .mcu import Msp430
from .radio import Nrf2401, RadioError, TxOutcome

__all__ = [
    "Adc12",
    "ECG_CHANNEL",
    "NUM_CHANNELS",
    "BiopotentialAsic",
    "BROADCAST",
    "Frame",
    "FrameKind",
    "Msp430",
    "Nrf2401",
    "RadioError",
    "TxOutcome",
]
