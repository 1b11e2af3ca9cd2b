"""Amplitude behaviour of the limiter-stabilized loop.

The non-linear amplifier of Fig. 5 makes the oscillation amplitude
self-regulating: as the amplitude grows, the limiter's effective
(describing-function) gain falls, and the loop settles where the total
gain is exactly one.  This module predicts that steady state and
provides the liquid-adaptation routine: given the fluid-loaded Q, choose
the VGA setting that keeps both the startup margin and the predicted
amplitude inside the target window — what the paper's "adjust to
different mechanical damping of the cantilever, due to different
liquids" amounts to operationally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import OscillationError
from ..units import require_positive
from .barkhausen import analyze
from .loop import ResonantFeedbackLoop


@dataclass(frozen=True)
class AmplitudePrediction:
    """Describing-function steady-state prediction."""

    limiter_input_amplitude: float
    limiter_output_amplitude: float
    tip_amplitude: float
    effective_limiter_gain: float


def predict_amplitude(
    loop: ResonantFeedbackLoop, sample_rate: float
) -> AmplitudePrediction:
    """Steady-state oscillation amplitude from the describing function.

    At steady state the limiter's effective gain must be
    ``small_signal_gain / |L|`` with ``|L|`` the small-signal loop gain:
    the rest of the loop contributes ``|L| / A_lim_ss``, so
    ``N(a) * |L| / A_lim_ss = 1``.  Inverting the describing function
    gives the limiter input amplitude; propagating around the loop gives
    the mechanical tip amplitude.
    """
    result = analyze(loop, sample_rate)
    if not result.will_oscillate:
        raise OscillationError(
            f"loop gain {result.loop_gain_magnitude:.3g} < 1: no oscillation "
            "to stabilize (raise the VGA gain)"
        )
    a_lim_ss = loop.limiter.small_signal_gain
    target_gain = a_lim_ss / result.loop_gain_magnitude
    a_in = loop.limiter.amplitude_for_gain(target_gain)
    n_eff = loop.limiter.describing_function(a_in)
    a_out = n_eff * a_in

    # tip amplitude: walk back from the limiter input through the
    # pre-limiter chain gain at the oscillation frequency
    f_osc = result.oscillation_frequency
    pre_gain = loop.displacement_to_voltage * abs(
        loop.electrical_gain(f_osc, sample_rate)[0]
    ) / loop.limiter.small_signal_gain
    tip = a_in / pre_gain if pre_gain > 0.0 else math.inf

    return AmplitudePrediction(
        limiter_input_amplitude=a_in,
        limiter_output_amplitude=a_out,
        tip_amplitude=tip,
        effective_limiter_gain=n_eff,
    )


def predicted_startup_time(
    loop: ResonantFeedbackLoop,
    sample_rate: float,
    initial_amplitude: float = 1e-12,
) -> float:
    """Time [s] for the oscillation to grow from a seed to steady state.

    While the limiter is still linear the envelope grows exponentially
    with rate ``(|L| - 1) w0 / (2 Q)`` (excess loop gain converted to
    negative damping), so

        t_startup ~ 2 Q / ((|L| - 1) w0) * ln(a_ss / a_0)

    The tests check this against the time-domain simulation — it is the
    spec that tells a user how long after power-on the counter reading
    is valid.
    """
    require_positive("initial_amplitude", initial_amplitude)
    result = analyze(loop, sample_rate)
    if not result.will_oscillate:
        raise OscillationError("loop gain below 1: no startup to time")
    a_ss = predict_amplitude(loop, sample_rate).tip_amplitude
    if a_ss <= initial_amplitude:
        return 0.0
    q = loop.resonator.quality_factor
    w0 = 2.0 * math.pi * loop.resonator.natural_frequency
    rate = (result.loop_gain_magnitude - 1.0) * w0 / (2.0 * q)
    return math.log(a_ss / initial_amplitude) / rate


@dataclass(frozen=True)
class GainAdaptation:
    """Result of adapting the VGA to a liquid's damping."""

    quality_factor: float
    vga_setting: int
    vga_gain_db: float
    loop_gain_magnitude: float
    predicted_tip_amplitude: float


def adapt_to_damping(
    loop: ResonantFeedbackLoop,
    sample_rate: float,
    startup_factor: float = 3.0,
) -> GainAdaptation:
    """Program the VGA for the current resonator damping and report.

    This is the operational content of the paper's VGA: re-run it after
    changing the resonator's Q (new liquid) and the loop stays alive.
    """
    require_positive("startup_factor", startup_factor)
    loop.auto_gain(sample_rate, startup_factor)
    prediction = predict_amplitude(loop, sample_rate)
    from .barkhausen import analyze as _analyze

    result = _analyze(loop, sample_rate)
    return GainAdaptation(
        quality_factor=loop.resonator.quality_factor,
        vga_setting=loop.vga.setting,
        vga_gain_db=loop.vga.gain_db,
        loop_gain_magnitude=result.loop_gain_magnitude,
        predicted_tip_amplitude=prediction.tip_amplitude,
    )
