"""Exception hierarchy.

The CLI maps ``InputError`` to exit code 2 and every other ``SkewcaError``,
``AnalysisError`` among them (degenerate data, unsupported analysis), to 3.
"""


class SkewcaError(Exception):
    """Base class for all library errors."""


class InputError(SkewcaError):
    """Invalid user input: malformed files, bad table data, bad parameters."""


class AnalysisError(SkewcaError):
    """The requested analysis is undefined or degenerate for this data."""


# table validation

class NonSquareError(InputError):
    pass


class NegativeEntryError(InputError):
    pass


class EmptyTableError(InputError):
    pass


class DuplicateLabelError(InputError):
    pass


class LabelCountMismatchError(InputError):
    pass


class CountOverflowError(InputError):
    """A count or the table total does not fit in a 64-bit signed integer."""


class NonIntegerCountError(InputError):
    """Counts that are not integers: floats, booleans, strings."""


# parameters

class InvalidParameterError(InputError):
    """A parameter outside its allowed values or choices, such as an unknown metric."""


# divergence / decomposition

class LambdaOutOfRangeError(InputError):
    pass


class DegenerateTableError(AnalysisError):
    """All probability mass sits on the diagonal: the measure is undefined."""


class FullySymmetricError(AnalysisError):
    """The table is exactly symmetric, so the requested quantity is 0/0."""


# confidence regions

class InvalidAlphaError(InputError):
    pass


class InvalidDofError(InputError):
    pass


class UnsupportedDimensionError(AnalysisError):
    """Confidence regions are not defined for 2x2 tables."""


class IdentityMetricUnsupportedError(AnalysisError):
    """Confidence regions require the averaged-margin metric."""


# matched tables

class LabelMismatchError(InputError):
    pass


class DimensionMismatchError(InputError):
    pass


# file and report handling

class MalformedCsvError(InputError):
    pass


class LabelOrderMismatchError(InputError):
    pass


class DimensionOutOfRangeError(InputError):
    pass


class ConsistencyError(AnalysisError):
    """An internal cross-check between two computation routes failed."""
