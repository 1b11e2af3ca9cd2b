"""Signal analysis: frequency estimation, stability, calibration, sweeps."""

from .allan import (
    AllanCurve,
    allan_curve,
    allan_deviation,
    allan_variance,
    fractional_frequencies,
    frequency_noise_to_mass_noise,
)
from .kinetics_fit import (
    KineticsFit,
    TransientFit,
    extract_kinetics,
    fit_kobs_line,
    fit_transient,
)
from .phase_noise import (
    OscillatorNoiseBudget,
    allan_from_white_fm,
    leeson_phase_noise,
    leeson_phase_noise_dbc,
    loop_noise_budget,
    white_fm_coefficient,
)
from .detection import (
    Baseline,
    DoseResponseFit,
    StepDetection,
    cusum_detect,
    fit_baseline,
    fit_dose_response,
)
from .resonance_fit import (
    ResonanceFit,
    fit_resonance,
    measure_resonance,
    swept_sine_response,
)
from .calibration import (
    DetectionLimit,
    concentration_responsivity,
    coverage_lod_to_concentration,
    limit_of_detection,
    snr_db,
)
from .freqest import (
    fft_peak_frequency,
    ring_down_quality_factor,
    zero_crossing_frequency,
)
from .psd import band_power, band_rms, psd_slope, welch_psd
from .sweep import (
    LoopSweepTask,
    SweepResult,
    geometric_space,
    loop_headline,
    override_grid,
    plan_chunks,
    run_parallel,
    run_spec_sweep,
    sweep,
)

__all__ = [
    "AllanCurve",
    "Baseline",
    "KineticsFit",
    "OscillatorNoiseBudget",
    "TransientFit",
    "extract_kinetics",
    "fit_kobs_line",
    "fit_transient",
    "allan_from_white_fm",
    "leeson_phase_noise",
    "leeson_phase_noise_dbc",
    "loop_noise_budget",
    "white_fm_coefficient",
    "DoseResponseFit",
    "ResonanceFit",
    "StepDetection",
    "cusum_detect",
    "fit_baseline",
    "fit_dose_response",
    "fit_resonance",
    "measure_resonance",
    "swept_sine_response",
    "DetectionLimit",
    "LoopSweepTask",
    "SweepResult",
    "allan_curve",
    "allan_deviation",
    "allan_variance",
    "band_power",
    "band_rms",
    "concentration_responsivity",
    "coverage_lod_to_concentration",
    "fft_peak_frequency",
    "fractional_frequencies",
    "frequency_noise_to_mass_noise",
    "geometric_space",
    "limit_of_detection",
    "loop_headline",
    "override_grid",
    "plan_chunks",
    "psd_slope",
    "ring_down_quality_factor",
    "run_parallel",
    "run_spec_sweep",
    "snr_db",
    "sweep",
    "welch_psd",
    "zero_crossing_frequency",
]
