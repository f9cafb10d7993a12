"""Exception types shared across the workbench."""

from __future__ import annotations


class RiskbenchError(Exception):
    """Base class for every error this package raises on purpose."""


class RiskmlSyntaxError(RiskbenchError):
    """A .riskml source fragment could not be parsed.

    Carries the 1-based source position and, when known, the tokens that
    would have been accepted at that point.
    """

    def __init__(self, message: str, line: int, column: int,
                 expected: tuple[str, ...] = ()):
        self.reason = message
        self.line = line
        self.column = column
        self.expected = expected
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        super().__init__(f"line {line}, column {column}: {message}")

    def __reduce__(self):
        return type(self), (self.reason, self.line, self.column, self.expected)


class ModelInvalidError(RiskbenchError):
    """A model failed validation on a path that cannot return diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        detail = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(detail or "invalid model")

    def __reduce__(self):
        return type(self), (self.diagnostics,)


class UnknownNameError(RiskbenchError):
    """A reference names an element that does not exist."""


class DomainError(RiskbenchError):
    """A value lies outside a declared domain or violates an invariant."""


class BindingError(RiskbenchError):
    """A feature binding path does not denote a scenario field."""


class ConfigError(RiskbenchError):
    """A configuration value or file is unusable."""


class EmptyRegionError(RiskbenchError):
    """A sampling region has no volume (rule contradicts the domain)."""


class ArchiveMismatchError(RiskbenchError):
    """An archive does not match the inputs it is being combined with."""
