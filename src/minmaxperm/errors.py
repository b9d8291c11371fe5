"""Exception hierarchy for the minmaxperm package."""

from __future__ import annotations


class MinMaxError(Exception):
    """Base class for all errors raised by this package.

    Every subclass reports bad input, except InternalInconsistency and
    CyclicGraph, which report a fault in the package itself; the CLI exits
    2 for the former and 3 for the latter."""


class NotBijection(MinMaxError):
    """Sequence is not a bijection onto {0, ..., n+1}."""


class BadEndpoints(MinMaxError):
    """Permutation does not start with 0 or does not end with n+1."""


class MismatchedN(MinMaxError):
    """Operands are defined over different ground sets."""


class KMismatch(MinMaxError):
    """Operation requires a different profile span k."""


class COutOfRange(MinMaxError):
    """Queried element is outside {1, ..., n}."""


class PreconditionViolation(MinMaxError):
    """Input violates a documented precondition."""


class ProfileValidationError(PreconditionViolation):
    """Profile failed structural validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid profile: {detail}")


class NotDirected(PreconditionViolation):
    """Solver requires a fully directed profile."""


class NotLinear(PreconditionViolation):
    """Solver requires a linear profile."""


class CyclicGraph(MinMaxError):
    """Graph contains a directed cycle; no topological order exists."""


class TooLarge(MinMaxError):
    """Instance exceeds the exhaustive-search cap."""


class InternalInconsistency(MinMaxError):
    """A guaranteed-by-construction check failed; indicates a bug."""


class ProfileSyntaxError(MinMaxError):
    """Malformed profile or permutation document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
