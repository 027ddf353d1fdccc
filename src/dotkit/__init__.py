"""dotkit: photon-correlation simulation and closed-loop strain tuning for
waveguide-coupled quantum emitters.

The package has three layers: the analytic g2 model and domain types
(:mod:`dotkit.emitters`, :mod:`dotkit.spectra`), stochastic validation and
synthetic data (:mod:`dotkit.montecarlo`), and inference plus the tuning
controller (:mod:`dotkit.fitting`, :mod:`dotkit.tuning`). The ``dotkit``
command line wraps them as config-driven batch runs.
"""

from .emitters import (
    GAUSSIAN_FWHM_SIGMA,
    HBAR_UEV_NS,
    PLANCK_UEV_NS,
    Emitter,
    EmitterSystem,
    G2Curve,
    Irf,
    convolve_irf,
    fwhm_from_dephasing,
    fwhm_from_sigma,
    g2_curve,
    g2_general,
    g2_ideal,
    identical_system,
    read_curve,
    write_curve,
)
from .errors import (
    BudgetExhaustedError,
    ConfigError,
    DegenerateDataError,
    DotkitError,
    EmptyPlateauError,
    EmptyWindowError,
    FitFailureError,
    GridCoverageError,
    GridTooCoarseError,
    InfeasibleLayoutError,
    ParameterError,
    PlantDestroyedError,
    UnreachableTargetError,
)
from .fitting import (
    FitResult,
    FitSpec,
    ParamEstimate,
    PeakFit,
    evaluate_fit_model,
    fit_g2,
    fit_g2_joint,
    fit_spectrum_peaks,
    joint_curve_params,
)
from .montecarlo import (
    G2Histogram,
    RngSeed,
    mc_g2,
    normalize_histogram,
    read_histogram,
    sample_coincidences,
    write_histogram,
)
from .spectra import (
    Instrument,
    Spectrum,
    read_spectrum,
    synth_spectrum,
    write_spectrum,
)
from .tuning import (
    EnergyMeter,
    ExposureLog,
    ExposurePulse,
    ExposureRecord,
    PlantConfig,
    PlantState,
    align_resonance,
    apply_exposure,
    calibrate_ramp,
    crosstalk_kernel,
    read_journal,
    tune_to_target,
    write_journal,
)

__version__ = "0.1.0"
