"""Exception hierarchy shared by the whole package, and its one [0, 1] check."""


class HdeError(Exception):
    """Base class for all package errors."""


class DagError(HdeError):
    """Base class for taxonomy construction/query errors."""


class EmptyGraphError(DagError):
    pass


class SelfLoopError(DagError):
    pass


class DuplicateEdgeError(DagError):
    pass


class CycleError(DagError):
    """Raised when the edge set contains a directed cycle.

    Carries one offending cycle as a list of node ids (first == last).
    """

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("directed cycle detected: " + " -> ".join(self.cycle))


class UnknownNodeError(DagError):
    pass


class AlignmentError(HdeError):
    """Score row/matrix does not line up with the taxonomy."""


class MissingClassError(AlignmentError):
    """Scores or thresholds lack a required taxonomy class."""


class RangeError(HdeError):
    """A numeric value is outside its permitted interval."""


class ParseError(HdeError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def check_unit_interval(values, what):
    """Raise RangeError("<what> must lie in [0, 1]") unless every value does.

    NaN fails too: min and max propagate it, and it compares false.
    """
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise RangeError(f"{what} must lie in [0, 1]")


class WeightRangeError(RangeError):
    pass


class EmptyGridError(HdeError):
    pass


class ConvergenceError(HdeError):
    pass


class NoPositivesWarning(UserWarning):
    """A class has no positive training examples; a fallback threshold is used."""
