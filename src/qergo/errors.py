"""Exception types shared across the package."""


class QergoError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(QergoError):
    """Input arrays are ragged, non-square, or of incompatible dimension."""


class NotOrthonormal(QergoError):
    """Candidate basis columns fail the Gram-matrix orthonormality gate."""


class IndexOutOfRange(QergoError):
    """Outcome index outside 0..dim-1."""


class BasisMismatch(QergoError):
    """Operation received tables or profiles built over different bases."""


class OrthogonalCondition(QergoError):
    """Conditional probability requested for an orthogonal pre/post pair.

    The defining ratio diverges there, so the conditional is undefined.
    """


class MissingValues(QergoError):
    """Basis lacks the real outcome values required by the operation."""


class WeakRegimeViolation(QergoError):
    """Pointer coupling strength outside the supported weak regime."""


class PostSelectionStarvation(QergoError):
    """Too few post-selected shots for a meaningful estimate."""


class BadGrid(QergoError):
    """Lattice constructor received an unusable grid specification."""


class NonHermitian(QergoError):
    """Constructed lattice Hamiltonian lost Hermiticity."""


class ZeroReferenceOverlap(QergoError):
    """Reference outcome has (numerically) zero overlap with some outcome."""


class PhaseUnwrapFailure(QergoError):
    """Adjacent phase jump too close to pi to unwrap unambiguously."""


class NumericsError(QergoError):
    """A hard numerical contract (e.g. imaginary-part bound) was violated."""


class ParseError(QergoError):
    """Malformed export file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(QergoError):
    """Invalid scenario configuration or command-line usage."""
