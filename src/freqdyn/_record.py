"""Frozen value classes built without generated code.

`record` gives a class what ``dataclasses.dataclass(frozen=True)`` gives
the value classes of this package: an ``__init__`` taking the annotated
fields by position or keyword, class-level defaults and a call to
``__post_init__``; the dataclass ``__repr__``; ``__eq__`` and
``__hash__`` over the tuple of field values (object identity under
``eq=False``); and ``dataclasses.FrozenInstanceError`` on setting or
deleting an attribute.  dataclass compiles those methods with ``exec``
for every class, in every process; here they are functions of this
module, or closures over the field names made from them, so defining a
class compiles nothing.

Fields are the names the class body annotates, in order, and
``_fields`` holds them.  A field with a class-level value takes it as
its default.  Inheritance, ``ClassVar``, ``field()`` and
``default_factory`` are not supported.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter

__all__ = ["record"]

_object_setattr = object.__setattr__


def record(cls=None, *, eq: bool = True):
    """Class decorator: ``@record`` or ``@record(eq=False)``."""
    if cls is None:
        return lambda c: _build(c, eq)
    return _build(cls, eq)


def _build(cls, eq: bool):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    cls._fields = names
    cls.__init__ = _make_init(cls.__qualname__, names, defaults,
                              getattr(cls, "__post_init__", None))
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    if eq:
        cls.__eq__, cls.__hash__ = _make_eq_hash(_values_getter(names))
    return cls


def _make_init(qualname, names, defaults, post_init):
    count = len(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(qualname, names, defaults, args, kwargs)
        # object.__setattr__, as dataclass does: reading self.__dict__
        # would give every instance a dict object of its own, about 64
        # bytes more than the interpreter's inline attribute values
        for name, value in zip(names, args):
            _object_setattr(self, name, value)
        if post_init is not None:
            post_init(self)

    return __init__


def _bind(qualname, names, defaults, args, kwargs) -> list:
    """The field values of a call, in field order, or the TypeError that
    a function with this signature would raise."""
    if len(args) > len(names):
        raise TypeError(
            f"{qualname}() takes {len(names)} positional arguments"
            f" but {len(args)} were given"
        )
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{qualname}() missing required argument {name!r}")
    for name in kwargs:
        if name in names:
            raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
        raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
    return values


def _values_getter(names):
    """A function from an instance to the tuple of its field values."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda obj: tuple([getattr(obj, name) for name in names])


def _make_eq_hash(values):
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    return __eq__, __hash__


def _repr(self) -> str:
    body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({body})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")
