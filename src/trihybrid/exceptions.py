"""Shared exception types."""


class ConfigurationError(Exception):
    """Invalid experiment or solver configuration."""


class GenerationError(RuntimeError):
    """Scenario geometry could not be generated (degenerate placement)."""


class SweepError(RuntimeError):
    """One or more sweep cells failed; the completed cells were written."""
