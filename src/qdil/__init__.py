"""Finite-dimensional CP instruments, measurement correlations, and
unitary dilations.

The package models a quantum measurement three equivalent ways and
converts between them:

- a CP instrument (outcome-indexed completely positive maps),
- a system of measurement correlations (multi-time operator-valued
  correlation functions), and
- a measuring process (meter space, meter state, pointer PVM, coupling
  unitary).

`operator_core` holds dense linear-algebra primitives, `algebra` the
block-decomposed von Neumann algebras, `kolmogorov` the operator-kernel
factorization, and `vn_model` a discretized von Neumann model plus the
fixture catalog. The `qdil` console script exposes the constructions
for batch use.
"""

from types import ModuleType as _ModuleType

from .operator_core import (
    CheckReport,
    DEFAULT_TOL,
    Tolerance,
    compress_by_state,
    dagger,
    psd_factorize,
    spectral_norm,
    sqrt_psd,
    tensor,
)
from .algebra import (
    FiniteVonNeumannAlgebra,
    algebra_from_generators,
    commutant,
    conditional_expectation,
    contains,
    diagonal_algebra,
    full_algebra,
    tensor_with_full,
)
from .instrument import (
    CPInstrument,
    INDEFINITE,
    OutcomeSpace,
    apply_dual,
    apply_predual,
    coarse_grain,
    instrument_from_json,
    instrument_to_json,
    is_weakly_repeatable,
    luders_instrument,
    outcome_probability,
    posterior_state,
    sample_trajectory,
    verify_cp,
)
from .kolmogorov import (
    KolmogorovDecomposition,
    OperatorKernel,
    is_positive_definite,
    minimal_decomposition,
    unitary_equivalence,
)
from .correlations import (
    CorrelationSystem,
    TimeWord,
    eval_W,
    from_instrument,
    from_kernel_table,
    induced_instrument,
    system_from_json,
    system_to_json,
    table_from_system,
    verify_axioms,
)
from .dilation import (
    MeasuringProcess,
    correlations_of_mp,
    faithful_mp,
    induced_instrument_mp,
    inner_mp_from_kraus,
    instrument_representation,
    minimal_stinespring,
    mp_from_correlations,
    mp_from_json,
    mp_to_json,
    n_equivalent,
    system_of_mp,
)
from .vn_model import DiscreteVNModel, build as build_vn_model, fixtures

__version__ = "0.1.0"

# The names imported above, in import order, and the version.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_")
           and not isinstance(value, _ModuleType)] + ["__version__"]
