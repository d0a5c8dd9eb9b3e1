"""Immutable value records, the base of the package's data types."""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]

# Sets a field past Record.__setattr__; the __init__ of every record uses it.
_set = object.__setattr__


class Record:
    """An immutable value with named fields.

    A subclass lists its fields in constructor order as ``__slots__``;
    trailing fields may take defaults from ``_defaults``. A value derived
    from other fields is a field too, set by the record's builder. Records
    compare field-wise, and only with records of the same class; they hash
    like the tuple of their fields, print like a constructor call and pickle
    by their field values. Assigning or deleting a field raises
    AttributeError.

    Equality, hashing and pickling read the field tuple through one
    ``operator.attrgetter`` per class, the same for every record. Of the
    methods here, subclasses write only ``__init__`` by hand, and only for
    records built in hot loops (the two ``classify`` runs of fibre genus 2
    and 3 build about 17,600 records, ``Aut((2,2,2,2))`` 20,160). On Python
    3.11 the generic ``__init__`` here takes 2.8 us per ``CoverData`` against
    1.1 us by hand, and compiling an ``__init__`` per class with ``exec``
    would add about 2 ms, a tenth of ``import isopencil.cli``, to every process.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" in cls.__dict__:  # else a subclass keeps its base's fields
            cls._fields = tuple(cls.__slots__)
            # Every record has at least two fields, so the getter returns a tuple.
            cls._get_fields = attrgetter(*cls._fields)

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

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r} of {type(self).__name__}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._get_fields
        return get(self) == get(other)

    def __hash__(self):
        return hash(self._get_fields(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return self.__class__, self._get_fields(self)
