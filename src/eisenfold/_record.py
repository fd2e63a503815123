"""Record classes whose fields are the parameters of their own `__init__`.

`@record`, `@record(frozen=True)` and `@record(frozen=True, slots=True)`
turn a class that writes its own straight-line `__init__` into a record
with the behaviour of the matching `dataclass`:

- the fields are that `__init__`'s parameters after `self`, in order,
  with their defaults in its signature; the `__init__` sets every field
  (a frozen one through `setfield`) and then checks them;
- `repr` is `Name(field=value, ...)` and `==` compares the field tuples
  of two instances of one class;
- a frozen record hashes as its field tuple and raises AttributeError on
  assigning or deleting an attribute; a mutable one is unhashable;
- a slots record has no `__dict__` and pickles its field values.

Nothing is generated or compiled: the decorator reads the field names
from the `__init__`'s code object, and the other methods are the shared
functions below, which find the class's field names in `__match_args__`
and their values through `__record_key__`.  A method the class body
defines itself is kept.
"""

from operator import attrgetter

# how a frozen record's `__init__` sets its fields
setfield = object.__setattr__


def record(cls=None, /, *, frozen=False, slots=False):
    """Class decorator; see the module docstring."""

    def wrap(cls):
        return _build(cls, frozen, slots)

    return wrap if cls is None else wrap(cls)


def _build(cls, frozen, slots):
    body = cls.__dict__
    code = body["__init__"].__code__
    names = code.co_varnames[1:code.co_argcount]
    if slots:
        ns = {k: v for k, v in body.items() if k not in ("__dict__", "__weakref__")}
        ns["__slots__"] = names
        qualname = cls.__qualname__
        cls = type(cls)(cls.__name__, cls.__bases__, ns)
        cls.__qualname__ = qualname
        cls.__getstate__ = _getstate
        cls.__setstate__ = _setstate

    cls.__match_args__ = names
    # attrgetter of one name returns the bare value, not a 1-tuple
    cls.__record_key__ = (attrgetter(*names) if len(names) > 1 else
                          staticmethod(lambda self: tuple(getattr(self, n) for n in names)))
    methods = {"__repr__": _repr, "__eq__": _eq, "__hash__": _hash if frozen else None}
    if frozen:
        methods["__setattr__"] = _frozen_setattr
        methods["__delattr__"] = _frozen_delattr
    for name, fn in methods.items():
        if name not in body:
            setattr(cls, name, fn)
    return cls


def _repr(self):
    pairs = zip(self.__match_args__, self.__record_key__(self))
    return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self.__record_key__(self) == other.__record_key__(other)
    return NotImplemented


def _hash(self):
    return hash(self.__record_key__(self))


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _getstate(self):
    return self.__record_key__(self)


def _setstate(self, state):
    for name, value in zip(self.__match_args__, state):
        setfield(self, name, value)
