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
    d_h,
    euler,
    homotopy_density,
    invert_divergence,
    invert_total_derivative,
    parse,
    render,
)
from .analysis import (
    Ansatz,
    ConservedCurrent,
    conservation_law_from_cosymmetry,
    lie_derivative_recursion,
    lie_on_cosymmetry,
    nijenhuis_torsion,
    pair_symmetry_cosymmetry,
    solve_cosymmetries,
    solve_symmetries,
    verify_conservation_factorization,
    verify_cosymmetry,
    verify_current,
    verify_symmetry,
    verify_symplectic,
)
from .coverings import (
    Covering,
    abelian_from_current,
    add_abelian_layer,
    cotangent_covering,
    delta_covering,
    make_covering,
    reconstruct_step,
    recursion_as_backlund,
    solve_fiberlinear,
    tangent_covering,
    verify_finite_symmetry,
    verify_flat,
    verify_shadow,
)
from .errors import (
    AnsatzError,
    BudgetError,
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
    Superdensity,
    are_compatible,
    from_superdensity,
    is_hamiltonian,
    magri_chain,
    magri_step,
    poisson_bracket,
    schouten_direct,
    schouten_on_equation,
    schouten_pairing,
    to_superdensity,
    verify_bivector_on_equation,
)
from .operators import (
    CDiffOp,
    PseudoOp,
    ev_apply,
    green_form,
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
