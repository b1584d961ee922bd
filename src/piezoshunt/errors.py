"""Exception types and argument checks shared across the package."""

import numbers


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or produced invalid results."""


class NetlistError(ParameterError):
    """Netlist text violates the dialect or a structural invariant; line_no None: no line."""

    def __init__(self, line_no, message):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class ConfigError(ParameterError):
    """Scenario configuration is malformed or inconsistent."""

    def __init__(self, message, section=None, line_no=None):
        loc = "" if section is None else f"[{section}] "
        loc += "" if line_no is None else f"line {line_no}: "
        super().__init__(loc + message)
        self.section = section
        self.line_no = line_no


def integer_fault(value, lo, hi=float("inf")):
    """Why `value` is no integer in [lo, hi] (a bool is none), or None; see `branch_fault`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return f"must be an integer, got {value!r}"
    if not lo <= value <= hi:
        return f"must lie in [{lo}, {hi}], got {value}"
    return None
