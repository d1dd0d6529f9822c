"""xdwell: excited-state dwell-time simulation and post-selection analysis.

A desk-scale toolkit for the physics of how long atoms spend excited per
transmitted photon: linear pulse propagation through a Lorentzian
absorber, weak two-level dynamics, two dwell-time attribution models, a
synthetic shot-level campaign generator, and the click/no-click
post-selection estimator that recovers the injected dwell ratio.
"""

from .bloch import (
    BlochConfig,
    ExcitationRecord,
    detect_phase_flip,
    fate_fractions,
    integrate_weak_bloch,
    pulse_area,
)
from .dwell import (
    MODEL_EGALITARIAN,
    MODEL_MIN_COHERENT,
    DwellBreakdown,
    default_bloch_config,
    egalitarian_broadband,
    min_coherent_model,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DataFormatError,
    XdwellError,
)
from .estimator import (
    BinnedTraces,
    CombinedEstimate,
    FitResult,
    NoiseCalibration,
    RunningMoments,
    analyze_file,
    bin_and_average,
    calibrate_proportional_noise,
    combine_detunings,
    correct_phi_T,
    fit_phi0,
    fit_transmitted,
    run_calibration,
)
from .medium import (
    MediumSpec,
    PulseSpec,
    SampledEnvelope,
    dispersion_phase,
    field_transfer,
    gaussian_envelope,
    lorentzian_od,
    propagate_spectral,
    transmission_probability,
)
from .shots import (
    BATCH_SIZE,
    CampaignSummary,
    ExperimentConfig,
    XpsTemplate,
    expected_click_rate,
    iter_batches,
    run_campaign,
    xps_template,
)

__version__ = "0.1.0"
