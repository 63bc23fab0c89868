"""Exception types shared across the library.

Input validation failures raise plain ``ValueError``; the classes here cover
numerical and resource failures that callers may want to catch separately
(the CLI maps them to a distinct exit code).
"""


class FixedPointDivergence(RuntimeError):
    """Fixed-point iteration hit the step limit without meeting tolerance."""

    def __init__(self, message, partial_report=None):
        super().__init__(message)
        self.partial_report = partial_report


class TrainingDiverged(RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, message, partial_report=None):
        super().__init__(message)
        self.partial_report = partial_report


class RegionBudgetExceeded(RuntimeError):
    """Breakpoint tracking outgrew the configured cap."""


class WorkerResultMismatch(RuntimeError):
    """Parallel workers produced results that differ from the serial run."""
