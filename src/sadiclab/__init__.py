"""sadiclab: S-adic lattice geometry, torus-orbit dynamics and decomposable forms.

A desk-scale numerical laboratory: exact number-field arithmetic with
normalized places, content/pseudoball geometry on products of completions,
window-restricted lattice systoles with Mahler-type compactness verdicts,
torus-orbit divergence surveys, and value spectra / rationality
reconstruction for decomposable homogeneous forms.
"""

from .numberfield import (
    NumberField,
    FieldElement,
    ArchimedeanPlace,
    FinitePlace,
    SUnitGroup,
    create_field,
    archimedean_places,
    finite_places,
    field_norm,
    s_unit_group,
)
from .sadic import (
    SAdicVector,
    BalancingTarget,
    sup_norm,
    content,
    pseudoball_contains,
    unit_balance,
    balancing_constant,
)
from .lattice import (
    SLattice,
    HeightWindow,
    enumerate_points,
    systole,
    mahler_test,
    nilpotent_span_check,
)
from .dynamics import (
    TorusElement,
    RaySchedule,
    act,
    trajectory,
    classify_ray,
    divergence_survey,
    locally_divergent_example,
    expanding_element,
    anisotropic_point,
)
from .forms import (
    DecomposableForm,
    ValueSpectrum,
    ReconstructionResult,
    make_form,
    evaluate_form,
    value_spectrum,
    discreteness_report,
    norm_form,
    rationality_reconstruct,
    littlewood_scan,
    builtin_probes,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
