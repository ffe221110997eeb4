"""Exception hierarchy: one class per exit code.

The CLI maps ``InputError`` to exit code 2 and ``AnalysisError`` to 3. A
failed internal cross-check is a bug, not a property of the data, so it
raises ``AssertionError`` and exits 1 with its traceback.
"""


class SkewcaError(Exception):
    """Base class for all library errors."""


class InputError(SkewcaError):
    """Invalid user input: malformed files, bad table data, bad parameters (exit code 2)."""


class AnalysisError(SkewcaError):
    """The requested analysis is undefined or degenerate for this data (exit code 3)."""
