"""Exception hierarchy shared by the library and the CLI.

The CLI maps these onto distinct exit codes (see cli.py), so library code
should raise the most specific class that applies.
"""

__all__ = ["NetelastError", "ParseError", "ParameterError", "ComputeError", "GraphSizeError"]


class NetelastError(Exception):
    """Base class for all library errors."""


class ParseError(NetelastError):
    """Malformed input text (edge lists, experiment configs)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParameterError(NetelastError):
    """A parameter value outside its documented domain."""


class ComputeError(NetelastError):
    """A quantity is undefined or a computation cannot proceed."""


class GraphSizeError(ComputeError):
    """Graph too large for an algorithm with an explicit size limit."""
