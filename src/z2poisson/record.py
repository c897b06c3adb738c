"""A base for the immutable value records of the package."""

from __future__ import annotations


class Value:
    """Equality, hash and repr from the attributes named in ``_fields``.

    Subclasses set ``_fields`` in the order of their ``__init__``
    parameters, and may set ``_compared`` to the subset that equality and
    the hash read (default: every field).  Values are compared only with
    instances of the same class.  The records are immutable by convention:
    nothing assigns to a field after ``__init__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if "_compared" not in cls.__dict__:
            cls._compared = cls._fields

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"
