"""Exception types shared across the library."""


class TrendlabError(Exception):
    """Base class for all trendlab errors."""


class InvalidMatrix(TrendlabError):
    """Matrix input is not finite, square and symmetric."""


class NotPositiveDefinite(TrendlabError):
    """A (ridge-shifted) matrix is not positive definite."""


class InvalidModel(TrendlabError):
    """Generative model parameters are inconsistent (e.g. non-PSD covariance)."""


class InvalidIndex(TrendlabError):
    """Time index outside the valid range."""


class InvalidInput(TrendlabError):
    """Malformed argument: wrong dimension, non-finite entries, bad value."""


class DegenerateVariance(TrendlabError):
    """Covariance diagonal contains a non-positive entry."""


class ZeroTargetVector(TrendlabError):
    """Portfolio target vector is identically zero (e.g. all-FX universe)."""


class DegenerateVolatility(TrendlabError):
    """A volatility needed for inversion is zero or negative."""


class CannotScale(TrendlabError):
    """Position cannot be scaled to the requested risk target."""


class InsufficientData(TrendlabError):
    """Panel that leaves fewer than two days after the warm-up window."""


class DegenerateResult(TrendlabError):
    """A statistic is undefined (e.g. Sharpe ratio of a zero-variance P&L)."""


class TooEarly(TrendlabError):
    """Analytic moments are undefined before the second time step."""


class DegenerateForm(TrendlabError):
    """Quadratic form evaluates to zero where a positive value is required."""


class IngestError(TrendlabError):
    """CSV ingestion failed; carries the offending line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
