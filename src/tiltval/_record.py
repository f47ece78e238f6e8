"""Base class of the package's immutable value records.

A record names its fields in ``__slots__`` and takes them, in that
order, as the parameters of its own ``__init__``.  The constructor
validates first and then hands every field value, in slot order, to
``self._assign(...)``, which stores them through the slot descriptors
captured once per class; a call with one value too few or too many
raises ValueError before any field is set.  This class supplies the
rest of a frozen value:

* equality by field values, between instances of the same class only;
* a hash that agrees with that equality;
* a ``Name(field=value, ...)`` repr;
* assignment and deletion refused with AttributeError.

Copying and pickling rebuild a record through its constructor, so the
validator runs again.  A record class has one level of fields: it
derives from :class:`Record` directly.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _assign(self, *values: object) -> None:
        setters = self._setters
        if len(values) != len(setters):  # measured faster than zip(..., strict=True)
            raise ValueError(f"{type(self).__name__} takes {len(setters)} field values, got {len(values)}")
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
