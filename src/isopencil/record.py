"""Immutable value records, the base of the package's data types."""

from __future__ import annotations

__all__ = ["Record"]

# Sets a field past Record.__setattr__; the __init__ of every record uses it.
_set = object.__setattr__


class Record:
    """An immutable value with named fields.

    A subclass lists its fields in constructor order as ``__slots__``, plus
    ``"__dict__"`` when it keeps ``cached_property`` values; trailing fields
    may take defaults from ``_defaults``. Records compare field-wise, and
    only with records of the same class; they hash like the tuple of their
    fields, print like a constructor call and pickle by their field values
    (with any cached values). Assigning or deleting a field raises
    AttributeError.

    Records built in hot loops write ``__init__``, ``__eq__`` and
    ``__hash__`` by hand: the generic ones here cost several times as much.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__dict__.get("__slots__", ()) if f != "__dict__")

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields or field in values:
                raise TypeError(f"{name} got an unknown or repeated field {field!r}")
            values[field] = value
        for field in fields:
            if field in values:
                _set(self, field, values[field])
            elif field in self._defaults:
                _set(self, field, self._defaults[field])
            else:
                raise TypeError(f"{name} is missing the field {field!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r} of {type(self).__name__}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        # Unpickling writes the state dict straight into __dict__, past __setattr__.
        return self.__class__, self._values(), getattr(self, "__dict__", None) or None
