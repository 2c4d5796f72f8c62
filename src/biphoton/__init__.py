"""Polarization qutrits of photon pairs: sphere geometry, two-photon
orthogonality and the anticorrelation-dip experiment model."""

from .experiment import (
    DEFAULT_GRID_STEP,
    FilterSetting,
    RateModel,
    SourceSetting,
    SweepResult,
    ZeroSinglesError,
    coincidence_rate,
    detection_amplitude,
    filter_jones,
    g2,
    rate_closed_form,
    simulate_counts,
    singles_rate,
    source_state,
    sweep_chi,
    sweep_filter,
)
from .orthogonality import (
    DEFAULT_TOLERANCE,
    AnyPartnerError,
    OrthogonalityReport,
    is_orthogonal,
    orthogonal_partner,
    orthogonal_partner_jones,
)
from .polarization import (
    CITIES,
    NAMED_STATES,
    GlobePoint,
    JonesVector,
    PoincarePoint,
    StokesVector,
    apply_jones,
    globe_to_poincare,
    jones_from_poincare,
    linear_jones,
    overlap,
    poincare_from_jones,
    poincare_to_globe,
    sphere_angle,
    stokes_from_jones,
    waveplate,
)
from .qutrit import (
    BiphotonQutrit,
    PairDecomposition,
    factor_qutrit,
    pair_amplitude,
    pair_norm,
    polarization_degree,
    qutrit_from_jones_pair,
    qutrit_from_pair,
    qutrit_inner_product,
    stokes_expectation,
    subtense_angle,
)

__version__ = "0.1.0"

