"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter is outside its legal domain (bad precision, probability, ...)."""


class SingularDesignError(ParameterError):
    """Regression design is degenerate (constant predictor, too few points)."""


class CohortParseError(ParameterError):
    """A cohort file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InsufficientSamplesError(ParameterError):
    """Too few draws to produce a posterior summary."""


class DegenerateChainError(ParameterError):
    """Chains unusable for convergence assessment (constant, too short, too few)."""


class NumericalError(RuntimeError):
    """Base of the numerical failures, which the CLI reports with exit code 4."""


class InitializationError(NumericalError):
    """Non-finite log posterior at chain initialization; names the parameter."""

    def __init__(self, parameter: str, detail: str = ""):
        msg = f"non-finite log posterior at initialization: {parameter}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.parameter = parameter
