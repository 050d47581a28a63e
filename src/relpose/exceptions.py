"""Exception types shared across the toolkit."""


class RelposeError(Exception):
    """Base class for all toolkit-specific failures."""


class DegreeOverflow(RelposeError):
    """A polynomial product does not fit in the requested coefficient basis."""


class DegenerateConfiguration(RelposeError):
    """The correspondence configuration does not admit a generic solve."""


class DegenerateInput(DegenerateConfiguration):
    """Input correspondences are degenerate (coincident rays, rank collapse)."""


class RankDeficient(DegenerateConfiguration):
    """Row reduction found fewer pivots than rows."""


class BasisAnomaly(RelposeError):
    """The quotient basis has an unexpected size or is missing 1, alpha, beta or gamma."""


class UnreachableMonomial(RelposeError):
    """A multiplied basis monomial is neither standard nor a pivot leading monomial."""


class EigenFailure(DegenerateConfiguration):
    """The eigendecomposition did not converge."""


class NoCheiralSolution(RelposeError):
    """No candidate pose places any point in front of both cameras."""


class ScaleUnobservable(RelposeError):
    """The translation scale cannot be recovered (central-camera limit)."""


class EmptyCandidates(RelposeError):
    """An error metric was requested for an empty candidate list."""


class NoHypothesis(RelposeError):
    """Every sampled minimal subset failed to produce a pose hypothesis."""


class CoverageGap(RelposeError):
    """A gyro log does not span the requested time interval."""


class RetryExhausted(RelposeError):
    """Scene generation could not satisfy the visibility constraints."""


class DocumentError(RelposeError):
    """A text document or CSV could not be parsed."""
