"""Frozen records: slotted value classes that behave as frozen dataclasses
without the cost of importing ``dataclasses``.

A record's fields are the public names in its ``__slots__`` (a slot with a
leading underscore, such as a kept hash, is not one).  It equals a record of
its class with equal fields, never another class or a tuple; it hashes its
fields, prints as ``Name(field=value, ...)`` and refuses assignment.  Each
class writes its ``__init__`` out with ``setfield``; the classes built in
bulk write out ``__eq__`` and ``__hash__`` too.
"""

setfield = object.__setattr__  # sets a field in __init__, past the refusal


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        # pickle and copy rebuild a record through __init__, past the refusal
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
