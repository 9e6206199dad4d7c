"""Local-projection descriptions and equivalence checks for shallow circuits.

The output state of a shallow circuit on the all-zeros input is pinned
down, uniquely, by one local projection per qubit.  This package
computes those descriptions, uses them to decide weak and strong
circuit equivalence, and verifies static and runtime assertions about
circuit outputs.  A command-line front end (``shallowcheck``) wraps the
library and a small benchmark harness.
"""

from .assertion import (
    RuntimeAssertReport,
    StaticCheck,
    runtime_assert,
    verify_static,
)
from .circuit import (
    NAMED_GATES,
    Circuit,
    Gate,
    Layer,
    adjoint,
    choi_extend,
    circuit_from_json,
    circuit_to_json,
    concat,
    haar_unitary,
    named_gate,
    random_circuit,
    validate,
)
from .config import (
    DEFAULT_K_MAX,
    DEFAULT_ORACLE_CAP,
    DEFAULT_SUPPORT_CAP,
    EQUIV_THRESHOLD,
    STRUCTURAL_TOL,
    SUPPORT_CAP_ENV,
    support_cap,
)
from .description import (
    Description,
    LocalProjection,
    commutation_check,
    compute_description,
    description_from_json,
    description_to_json,
    initial_state_residuals,
    projection_entries_from_json,
)
from .equivalence import (
    EquivalenceReport,
    ResidualEntry,
    check_strong,
    check_weak,
)
from .errors import (
    CapacityError,
    DomainError,
    SchemaError,
    ShallowcheckError,
    ValidationError,
)
from .linalg import (
    ErrorTriple,
    embed,
    is_projection,
    membership_residual,
    zero_state,
)
from .oracle import simulate

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Circuit",
    "DEFAULT_K_MAX",
    "DEFAULT_ORACLE_CAP",
    "DEFAULT_SUPPORT_CAP",
    "Description",
    "DomainError",
    "EQUIV_THRESHOLD",
    "EquivalenceReport",
    "ErrorTriple",
    "Gate",
    "Layer",
    "LocalProjection",
    "NAMED_GATES",
    "ResidualEntry",
    "RuntimeAssertReport",
    "STRUCTURAL_TOL",
    "SUPPORT_CAP_ENV",
    "SchemaError",
    "ShallowcheckError",
    "StaticCheck",
    "ValidationError",
    "adjoint",
    "check_strong",
    "check_weak",
    "choi_extend",
    "circuit_from_json",
    "circuit_to_json",
    "commutation_check",
    "compute_description",
    "concat",
    "description_from_json",
    "description_to_json",
    "embed",
    "haar_unitary",
    "initial_state_residuals",
    "is_projection",
    "membership_residual",
    "named_gate",
    "projection_entries_from_json",
    "random_circuit",
    "runtime_assert",
    "simulate",
    "support_cap",
    "validate",
    "verify_static",
    "zero_state",
]
