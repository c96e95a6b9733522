"""Exception types shared across the engine."""


class JetCalcError(Exception):
    """Base class for all engine errors."""


class ExprSyntaxError(JetCalcError):
    """Raised by the expression parser; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownNameError(JetCalcError):
    pass


class ProblemError(JetCalcError):
    """A problem file that breaks its schema or nests too deeply, asks for what
    it does not define (an unknown covering, or work on an equation it does not
    give), gives an operator entry that does not fit its operator, asks for
    an ansatz of more monomials than the engine's cap, or asks for the
    cotangent covering of an equation in which one dependent leads two rules."""


class LaurentError(JetCalcError):
    """Negative exponent placed on a variable that cannot carry one."""


class BudgetError(JetCalcError):
    """An exponent, a power's coefficient bits, terms or work beyond their
    budgets, or a coefficient with too many digits to print."""


class NonlocalObstruction(JetCalcError):
    """A primitive (D_x^{-1}) does not exist in the local algebra."""


class VariationalityError(JetCalcError):
    """Input fails the Helmholtz condition where a gradient is required."""


class ShapeError(JetCalcError):
    pass


class CheckError(JetCalcError):
    """A constructed object fails the identity it was built to satisfy."""


class NonSolvableError(JetCalcError):
    """Equation component cannot be solved for the designated leading jet."""


class ConfluenceError(JetCalcError):
    """Two reduction paths disagree; `jet` is their critical pair's (dependent, multi-index)."""

    def __init__(self, message: str, jet=None):
        super().__init__(message)
        self.jet = jet


class ReductionError(JetCalcError):
    """Reduction hit an unsupported situation (e.g. Laurent leading jet)."""


class AnsatzError(JetCalcError):
    """Ansatz bounds generate no unknowns."""
