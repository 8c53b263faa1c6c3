"""The one base of polyauto's value records.

A record is a `__slots__` class whose own `__init__` sets every slot.  It
compares and hashes by the tuple of its slot values, in `__slots__` order,
and prints as `Name(slot=value, ...)`.  Records are immutable by contract,
as `Polynomial` and `Endo` are: nothing assigns a slot after `__init__`.

This module imports nothing, so any module (the verifier included) can use
it without loading more than it already has.
"""


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
