"""Shared exception types, mapped onto CLI exit codes in :mod:`subsetprune.cli`."""


class ShapeError(ValueError):
    """Tensor or mask shapes are incompatible with the requested operation."""


class ParameterError(ValueError):
    """An argument violates an operation's stated hypotheses."""


class BudgetError(RuntimeError):
    """Enumeration would exceed the configured subset budget; never silently degraded."""


class StructureError(ValueError):
    """A mask's declared structure kind does not match its stored bits."""
