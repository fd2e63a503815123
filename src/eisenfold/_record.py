"""Record classes whose fields are the parameters of their own `__init__`.

`@record` turns a class that writes its own straight-line `__init__` into
an immutable value, the one kind of record the library has:

- the fields are that `__init__`'s parameters after `self`, in order,
  with their defaults in its signature; the `__init__` sets every field
  through `setfield` and then checks them;
- `repr` is `Name(field=value, ...)`, `==` compares the field tuples of
  two instances of one class, and a record hashes as its field tuple;
- assigning or deleting an attribute raises AttributeError;
- the fields are the class's `__slots__`, so a record has no `__dict__`,
  and it pickles its field values.

Nothing is generated or compiled: the decorator reads the field names
from the `__init__`'s code object, rebuilds the class with those slots,
and adds the shared functions below, which find the field names in
`__match_args__` and their values through `__record_key__`.  A method the
class body defines itself is kept.
"""

from operator import attrgetter

# how a record's `__init__` sets its fields
setfield = object.__setattr__


def record(cls):
    """Class decorator; see the module docstring."""
    body = cls.__dict__
    code = body["__init__"].__code__
    names = code.co_varnames[1:code.co_argcount]
    ns = {k: v for k, v in body.items() if k not in ("__dict__", "__weakref__")}
    # attrgetter of one name returns the bare value, not a 1-tuple
    key = (attrgetter(*names) if len(names) > 1 else
           staticmethod(lambda self: tuple(getattr(self, n) for n in names)))
    ns.update(__slots__=names, __match_args__=names, __record_key__=key,
              __qualname__=cls.__qualname__, __getstate__=_getstate,
              __setstate__=_setstate)
    for name, fn in (("__repr__", _repr), ("__eq__", _eq), ("__hash__", _hash),
                     ("__setattr__", _frozen_setattr), ("__delattr__", _frozen_delattr)):
        ns.setdefault(name, fn)
    return type(cls)(cls.__name__, cls.__bases__, ns)


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
