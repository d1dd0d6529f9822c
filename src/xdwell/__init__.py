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
    FateProfile,
    detect_phase_flip,
    excitation_time,
    fate_fractions,
    integrate_weak_bloch,
    pulse_area,
)
from .dwell import (
    MODEL_EGALITARIAN,
    MODEL_MIN_COHERENT,
    DwellBreakdown,
    ModelCurve,
    default_bloch_config,
    egalitarian_broadband,
    egalitarian_monochromatic,
    min_coherent_model,
    sweep_od,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DataFormatError,
    InsufficientBinError,
    ModelPointError,
    RankDeficiencyError,
    WeakExcitationError,
    WindowLeakageError,
    XdwellError,
)
from .estimator import (
    BinnedTraces,
    CombinedEstimate,
    FitResult,
    NoiseCalibration,
    RunningMoments,
    bin_and_average,
    calibrate_proportional_noise,
    click_inference_check,
    combine_detunings,
    correct_phi_T,
    fit_phi0,
    fit_transmitted,
)
from .medium import (
    MediumSpec,
    PulseSpec,
    SampledEnvelope,
    TransferSample,
    dispersion_phase,
    field_transfer,
    gaussian_envelope,
    lorentzian_od,
    propagate_spectral,
    pulse_spectrum,
    spectral_rms_hz,
    transfer_curve,
    transmission_probability,
)
from .shots import (
    BATCH_SIZE,
    CampaignSummary,
    ExperimentConfig,
    OscillationSpec,
    ShotRecord,
    XpsTemplate,
    expected_click_rate,
    generate_shot,
    iter_batches,
    run_campaign,
    xps_template,
)

__version__ = "0.1.0"
