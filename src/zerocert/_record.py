"""Frozen record classes, written out rather than generated.

A record's fields are its class's ``__slots__``, in order, and its own
``__init__`` sets each of them once with ``setfield``
(object.__setattr__), as a frozen dataclass does.  Assigning or
deleting an attribute afterwards raises
dataclasses.FrozenInstanceError.  ``Record`` compares and hashes by
identity (a dataclass's eq=False); ``ValueRecord`` by the tuple of its
fields, and only against an instance of the same class.  A copy or a
pickle restores the fields as they are, without running ``__init__``,
as a dataclass's does.
"""

from dataclasses import FrozenInstanceError

setfield = object.__setattr__


def _restore(cls, values):
    rec = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        setfield(rec, name, value)
    return rec


class Record:
    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __reduce__(self):
        return _restore, (type(self), self._fields())


class ValueRecord(Record):
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())
