"""Shared exception types, and the base of the package's value records.

The command-line front end maps these onto exit codes, so the split matters:
bad or mismatched input is not the same thing as an enumeration that would
blow a configured capacity, and neither is a search that ran out of nodes.
"""

import operator
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


class _Record:
    """Immutable value record, compared, hashed and printed by its fields.

    A subclass names its fields in ``__slots__``, in the order of its
    ``__init__`` parameters, and its ``__init__`` sets each one with
    ``object.__setattr__``.  Equality, hash and repr follow a frozen
    dataclass: records of different classes never compare equal, and the
    repr reads ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._key(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
