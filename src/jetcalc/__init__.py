"""jetcalc: exact symbolic calculus on jet spaces and differential
equations — linearizations, adjoints, symmetries, conservation laws,
variational Schouten brackets, Hamiltonian structures, Magri hierarchies
and differential coverings, over Q with symbolic parameters."""

__version__ = "0.1.0"

from .algebra import (
    DiffExpr,
    HorizontalForm,
    JetSpace,
    canonical_density,
    euler,
    homotopy_density,
    invert_total_derivative,
    parse,
    render,
)
from .analysis import (
    Ansatz,
    conservation_law_from_cosymmetry,
    solve_cosymmetries,
    solve_symmetries,
    verify_cosymmetry,
    verify_symmetry,
    verify_symplectic,
)
from .coverings import (
    Covering,
    cotangent_covering,
    delta_covering,
    make_covering,
    solve_fiberlinear,
    tangent_covering,
    verify_finite_symmetry,
    verify_flat,
    verify_shadow,
)
from .errors import (
    AnsatzError,
    BudgetError,
    CheckError,
    ConfluenceError,
    ExprSyntaxError,
    JetCalcError,
    LaurentError,
    NonlocalObstruction,
    NonSolvableError,
    ReductionError,
    ShapeError,
    UnknownNameError,
    VariationalityError,
)
from .hamiltonian import (
    are_compatible,
    is_hamiltonian,
    magri_hierarchy,
    schouten_direct,
    schouten_on_equation,
    schouten_pairing,
    verify_bivector_on_equation,
)
from .operators import (
    CDiffOp,
    PseudoOp,
    ev_apply,
    helmholtz,
    jacobi,
    linearize,
    pairing_density,
)
from .presentations import (
    EquivalenceWitness,
    Presentation,
    Reduction,
    make_presentation,
    verify_equivalence,
)
from .corpus import corpus, corpus_names
