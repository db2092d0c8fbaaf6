"""Shared exception types.

The command-line front end maps these onto exit codes, so the split matters:
bad or mismatched input is not the same thing as an enumeration that would
blow a configured capacity, and neither is a search that ran out of nodes.
"""

from typing import Optional

__all__ = ["InputError", "CapacityError", "BudgetExceededError"]


class InputError(ValueError):
    """Malformed, mismatched, or degenerate input (wrong group, bad schema)."""


class CapacityError(RuntimeError):
    """A configured enumeration capacity would be exceeded.

    Deliberately distinct from a NO answer: NO means proven-no, capacity
    means this build refuses to decide the instance.
    """


class BudgetExceededError(RuntimeError):
    """A backtracking search hit its node budget; the attempt is inconclusive."""


def _want_int(value, what: str, minimum: Optional[int] = None) -> int:
    """``value`` if it is an ``int`` (not a ``bool``) of at least ``minimum``;
    otherwise an InputError that names ``what``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{what}: expected an integer >= {minimum}, got {value}")
    return value
