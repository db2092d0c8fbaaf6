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

    A subclass names its fields once, in ``__slots__``.  When the class is
    created, ``__init_subclass__`` compiles its setter ``_fill(self, <fields
    in slot order>)`` from source, as ``collections.namedtuple`` compiles its
    ``__new__``; a class-level ``_defaults`` dict gives defaults to trailing
    fields.  A record that only holds its fields takes ``_fill`` as its
    constructor; one that checks its arguments keeps its own ``__init__``
    and ends it with ``self._fill(...)``.  Equality, hash and repr follow a
    frozen dataclass: records of different classes never compare equal, and
    the repr reads ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        cls._key = operator.attrgetter(*fields)
        if tuple(cls._defaults) != fields[len(fields) - len(cls._defaults) :]:
            raise TypeError(f"{cls.__qualname__}._defaults must name trailing fields")
        # each slot's own descriptor sets it, past the __setattr__ that refuses
        namespace = {f"_set{i}": getattr(cls, name).__set__ for i, name in enumerate(fields)}
        body = "".join(f"    _set{i}(self, {name})\n" for i, name in enumerate(fields))
        exec(f"def _fill(self, {', '.join(fields)}):\n{body}", namespace)
        fill = namespace["_fill"]
        fill.__defaults__ = tuple(cls._defaults.values()) or None
        fill.__qualname__ = f"{cls.__qualname__}._fill"
        cls._fill = fill
        if "__init__" not in cls.__dict__:
            cls.__init__ = fill

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
