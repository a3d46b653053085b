"""Error types shared across the package.

The CLI maps these onto process exit codes: input/domain problems exit
with 2, feasibility refusals with 3, verification failures with 1.
"""


class DomainError(ValueError):
    """Input violates a mathematical precondition (shape, symmetry, range)."""


class ParseError(ValueError):
    """Malformed file or command-line input.

    Carries an optional ``position`` describing where parsing failed.
    """

    def __init__(self, message: str, position: str | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at {position})"
        super().__init__(message)


class FeasibilityError(RuntimeError):
    """Requested computation exceeds the documented size limits."""
