"""Immutable value records, the base of the package's data types."""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]


class Record:
    """An immutable value with named fields.

    A subclass lists its fields in constructor order as ``__slots__``;
    trailing fields may take defaults from ``_defaults``. A value derived
    from other fields is a field too, set by the record's builder. Records
    compare field-wise, and only with records of the same class; they hash
    like the tuple of their fields, print like a constructor call and pickle
    by their field values. Assigning or deleting a field raises
    AttributeError.

    Every record is built by the one constructor made here for its class,
    which takes the fields by position or keyword; a subclass that defines
    its own ``__init__`` is refused when the class is created. Equality,
    hashing and pickling read the field tuple through one
    ``operator.attrgetter`` per class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            raise TypeError(f"record {cls.__name__} defines __init__; Record builds every record")
        if "__slots__" in cls.__dict__:  # else a subclass keeps its base's fields
            cls._fields = fields = tuple(cls.__slots__)
            # Every record has at least two fields, so the getter returns a tuple.
            cls._get_fields = attrgetter(*fields)
            setters = tuple(cls.__dict__[field].__set__ for field in fields)
            size = len(fields)

            def __init__(self, *args, **kwargs):
                # A call giving every field by position sets the slots directly.
                if kwargs or len(args) != size:
                    args = self._bind(args, kwargs)
                for set_field, value in zip(setters, args):
                    set_field(self, value)

            cls.__init__ = __init__

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call in field order, defaults filled in."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields or field in values:
                raise TypeError(f"{name} got an unknown or repeated field {field!r}")
            values[field] = value
        for field in fields:
            if field not in values:
                if field not in cls._defaults:
                    raise TypeError(f"{name} is missing the field {field!r}")
                values[field] = cls._defaults[field]
        return [values[field] for field in fields]

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
