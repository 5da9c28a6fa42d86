"""Exception types shared across the library.

The CLI maps these onto exit codes: configuration, ingestion and
singular-parameter problems exit with 2, numerical blow-ups (divergence,
overflow) with 3.
"""


class JumprlError(Exception):
    """Base class for all library errors."""


class ConfigurationError(JumprlError):
    """Invalid parameters, grids, or experiment configuration."""


class IngestionError(ConfigurationError):
    """Malformed or unusable input data (CSV parsing, day partitioning)."""


class InsufficientDataError(JumprlError):
    """A sequence is too short for the requested statistic."""


class SingularParameterError(JumprlError):
    """Parameter inside the singular region of a value-function family."""


class NonConvexError(JumprlError):
    """Quadratic objective has no interior minimizer (leading coefficient <= 0)."""


class DegenerateSeriesError(JumprlError):
    """Return series has zero variance; Sharpe ratio undefined."""


class SimulationOverflowError(JumprlError):
    """Simulated state became non-finite."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


class DivergenceError(JumprlError):
    """Training left the finite domain; carries the partial trace."""

    def __init__(self, message: str, episode: int, last_theta: float, trace=None):
        super().__init__(message)
        self.episode = episode
        self.last_theta = last_theta
        self.trace = list(trace or [])  # TrainResult.trace's rows so far
