"""Uncertainty-based quantum correlation measures and interferometer metrology.

The package evaluates measurement-induced uncertainty measures of
bipartite quantum states (closed forms where they exist, seeded random
scans otherwise) and relates them to the phase-estimation power of an
N-photon interferometer with one lossy arm.
"""

from types import ModuleType as _ModuleType

from .discord import (
    AssignmentResult,
    MeasurementSpectrum,
    UncertaintyScan,
    VonNeumannBasis,
    derive_child_seeds,
    geometric_discord_pure,
    geometric_discord_qubit,
    local_quantum_uncertainty,
    measurement_uncertainty,
    min_uncertainty_assignment,
    minimize_uncertainty,
    observable_uncertainty,
    scan_uncertainty,
    skew_information,
)
from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    EigensolverError,
    InvalidInputError,
    NotHermitianError,
    NotPSDError,
)
from .experiments import (
    Fig1Config,
    Fig2Config,
    Fig4Result,
    run_fig1,
    run_fig2,
    run_fig4,
    write_fig1,
    write_fig2,
    write_fig4,
)
from .linalg import (
    haar_unitary,
    hermitian_eig,
    partial_trace,
    partial_transpose,
    psd_sqrt,
    trace_norm,
)
from .metrology import (
    identity_sweep,
    lqu_noon_closed,
    negativity,
    qfi_fidelity_estimate,
    qfi_noon_closed,
    qfi_noon_oracle,
    qfi_noon_spectral,
    uhlmann_fidelity,
)
from .states import (
    DensityMatrix,
    NoonChannelParams,
    NoonProbe,
    PureBipartiteState,
    StateReport,
    load_density,
    noon_lossy_density,
    noon_tripartite,
    save_density,
    schmidt_decompose,
    validation_report,
)
from .version import __version__

#: Every public name bound above (submodules aside), plus the version.
__all__ = ["__version__", *sorted(
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
)]
