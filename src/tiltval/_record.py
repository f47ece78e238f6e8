"""Base class of the package's immutable value records.

A record declares each field once, as a class annotation, in field
order; an annotation with a value, such as ``wall_ms: int | None = None``,
gives that field a default.  The record metaclass turns the annotations
into ``__slots__`` (a record class writes no ``__slots__`` of its own, and
one that does is refused) and keeps the defaults apart, since a class
attribute cannot share its name with a slot.  Every module that defines a
record starts with ``from __future__ import annotations``, which keeps the
class-body annotations a plain ordered dict on every supported Python.

A record that only carries its fields writes no constructor: the generic
one takes the fields by position or by name, fills defaults, and raises
TypeError for a missing, unknown or doubled field.  A validating record
writes its own ``__init__`` with the fields, in order, as its parameters,
and hands the field values, in order, to ``self._assign(...)``, which
stores them through the slot descriptors captured once per class (one too
few or too many is a ValueError).  A validator with a builder passes the
builder's record as ``built``: ``_assign`` owns the one compare, refuses
the first field whose value or type differs from it at any depth of
nested tuples (DomainError), and stores its values.  ``Cls._trusted``
skips ``__init__``: it makes the instance with ``object.__new__`` and
fills the slots through the same setters, with the same ValueError on a
wrong value count, and fills no default.  Only the module that owns a
record may use it: for kernel results computed from validated operands
that meet the invariant by construction, and to build a record that has
no validator (a check outcome) by position.  Everything else goes through
the public constructors, which keep every check.
This class supplies the rest of a frozen value:

* equality by field values, between instances of the same class only;
* a hash that agrees with that equality;
* a ``Name(field=value, ...)`` repr;
* assignment and deletion refused with AttributeError.

Copying and pickling rebuild a record through its constructor, so the
validator runs again.  A record class has one level of fields: it
derives from :class:`Record` directly.
"""

from __future__ import annotations

from .errors import DomainError

__all__ = ["Record"]


def _same(a: object, b: object) -> bool:
    """a == b, with a and b of one type at every depth of nested tuples, since True == 1 and 0.5 == Fraction(1, 2)."""
    if type(a) is tuple is type(b):
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


class _RecordMeta(type):
    def __new__(mcls, name: str, bases: tuple, namespace: dict):
        if "__slots__" in namespace:
            raise TypeError(f"{name} declares its fields as annotations, not in __slots__")
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["__slots__"] = fields
        defaults = {field: namespace.pop(field) for field in fields if field in namespace}
        cls = super().__new__(mcls, name, bases, namespace)
        cls._defaults = defaults
        cls._setters = tuple(getattr(cls, field).__set__ for field in fields)
        return cls


class Record(metaclass=_RecordMeta):
    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} field values, got {len(args)} positional")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                values.append(self._defaults[field])
            else:
                raise TypeError(f"{type(self).__name__}() missing field {field!r}")
        for field in kwargs:
            problem = "multiple values for" if field in fields else "an unexpected keyword"
            raise TypeError(f"{type(self).__name__}() got {problem} field {field!r}")
        self._assign(*values)

    @classmethod
    def _trusted(cls, *values: object):
        """A record of these field values, with the class validator skipped."""
        setters = cls._setters
        if len(values) != len(setters):
            raise ValueError(f"{cls.__name__} takes {len(setters)} field values, got {len(values)}")
        record = object.__new__(cls)
        i = 0
        for setter in setters:  # measured faster than zip over three fields
            setter(record, values[i])
            i += 1
        return record

    def _assign(self, *values: object, built: Record | None = None) -> None:
        setters = self._setters
        if len(values) != len(setters):  # measured faster than zip(..., strict=True)
            raise ValueError(f"{type(self).__name__} takes {len(setters)} field values, got {len(values)}")
        if built is not None:
            for name, value, want in zip(self.__slots__, values, built._values()):
                if not _same(value, want):
                    try:
                        problem = f"{name} must be {want!r}, got {value!r}"
                    except ValueError:  # an int past the digit limit of int-to-str conversion
                        problem = f"{name} is not the value its builder makes"
                    raise DomainError(problem)
            values = built._values()
        for setter, value in zip(setters, values):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._values()
