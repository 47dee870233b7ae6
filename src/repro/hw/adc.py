"""MSP430 on-chip 12-bit ADC (ADC12) model.

Functionally the ADC quantises an analog channel value into a 12-bit
code.  Its conversion time and the driver overhead are part of the
calibrated per-sample MCU cost (``sample_acquisition`` in
:class:`~repro.core.calibration.McuCosts`), so this module only models
the transfer function, not timing or extra energy.
"""

from __future__ import annotations

from typing import List, Sequence

#: ADC resolution in bits (MSP430F149 ADC12).
RESOLUTION_BITS = 12

#: Number of quantisation codes.
FULL_SCALE_CODE = (1 << RESOLUTION_BITS) - 1


class Adc12:
    """12-bit successive-approximation ADC transfer function.

    Args:
        vref_low: lower reference voltage (code 0).
        vref_high: upper reference voltage (code 4095).
    """

    def __init__(self, vref_low: float = 0.0,
                 vref_high: float = 2.5) -> None:
        if vref_high <= vref_low:
            raise ValueError(
                f"vref_high ({vref_high}) must exceed vref_low ({vref_low})")
        self.vref_low = vref_low
        self.vref_high = vref_high
        self._span = vref_high - vref_low
        self._conversions = 0

    def convert(self, volts: float) -> int:
        """Quantise ``volts`` to a 12-bit code, clamping at the rails."""
        self._conversions += 1
        code = round((volts - self.vref_low) / self._span
                     * FULL_SCALE_CODE)
        if code < 0:
            return 0
        return code if code < FULL_SCALE_CODE else FULL_SCALE_CODE

    def convert_block(self, volts: Sequence[float]) -> List[int]:
        """``[convert(v) for v in volts]`` in one call: one conversion
        counted per value (:meth:`count_conversions`), the codes of
        :meth:`quantize_block`."""
        self._conversions += len(volts)
        return self.quantize_block(volts)

    def count_conversions(self, count: int) -> None:
        """Count ``count`` conversions without performing them.

        A reader that needs the codes later takes them from
        :meth:`quantize_block`, which counts nothing.
        """
        self._conversions += count

    def quantize_block(self, volts: Sequence[float]) -> List[int]:
        """The codes :meth:`convert_block` returns, without counting
        (same rounding and clamping as :meth:`convert`)."""
        low, span = self.vref_low, self._span
        codes = [round((v - low) / span * FULL_SCALE_CODE) for v in volts]
        return [0 if code < 0 else
                code if code < FULL_SCALE_CODE else FULL_SCALE_CODE
                for code in codes]

    def to_volts(self, code: int) -> float:
        """Inverse transfer function (midpoint reconstruction)."""
        if not 0 <= code <= FULL_SCALE_CODE:
            raise ValueError(
                f"code must be in [0, {FULL_SCALE_CODE}], got {code}")
        span = self.vref_high - self.vref_low
        return self.vref_low + code * span / FULL_SCALE_CODE

    @property
    def conversions(self) -> int:
        """Number of conversions performed (diagnostics)."""
        return self._conversions


__all__ = ["Adc12", "RESOLUTION_BITS", "FULL_SCALE_CODE"]
