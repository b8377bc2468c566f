"""Frozen record classes, written out rather than generated.

A record's fields are its class's ``__slots__``, in order, and the
class-level dict ``_defaults`` gives the values of those left out; its
keys are a suffix of ``__slots__``, as a dataclass requires.
``Record.__init__`` fills the fields from positional arguments, then
keyword arguments, then ``_defaults``, and sets each of them once with
``setfield`` (object.__setattr__), as a frozen dataclass does.  A
default that must be a fresh object for each record is declared None,
and three classes keep a short ``__init__`` that calls
``Record.__init__`` and then fills it in: SufficiencyReport's empty
arrays, DSubharmonicMajorant.low and Scenario.tolerances.  RieszCharge,
JensenMeasure, PlanePowerProfile and DiskFractionProfile keep their own
``__init__``, which converts or checks its arguments.

Assigning or deleting an attribute afterwards raises
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
    _defaults = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError("%s takes %d fields but %d were given"
                            % (cls.__qualname__, len(names), len(args)))
        for name, value in zip(names, args):
            setfield(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError("%s missing field %r"
                                % (cls.__qualname__, name))
            setfield(self, name, value)
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError("%s got field %r %s" % (
                cls.__qualname__, name,
                "twice" if name in names else "but has no such field"))

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
