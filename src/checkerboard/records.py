"""Immutable value records: the one helper behind the package's frozen classes.

``record`` turns a class whose annotations name its fields, in order and
with class-level defaults, into an immutable value: construction by
position or keyword, a TypeError on an unknown or missing argument,
equality by type and field values, a hash that agrees with it, the repr
``Name(field=value, ...)``, and an AttributeError on assignment or
deletion.  Instances keep a ``__dict__``, so ``functools.cached_property``
still caches once per instance.  A class that defines its own
``__init__`` keeps it; the small hot records do, since a fixed signature
binds faster than the generic one.

The methods are closures over the field tuple, built without compiling
anything.  The standard library's generated records ``exec``-compile
each class's methods at import and import ``inspect`` to do it, which
cost about a quarter of the CLI's start-up.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r} of {type(self).__name__}")


def record(cls):
    """Make ``cls`` an immutable record of the fields its annotations name."""
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    names = frozenset(fields)
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    n = len(fields)
    values = attrgetter(*fields) if n > 1 else lambda self: (getattr(self, fields[0]),)

    def bind(args, kwargs) -> dict:
        if len(args) > n:
            raise TypeError(f"{cls.__name__}() takes {n} arguments but {len(args)} were given")
        given = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {key!r}")
            given[key] = value
        missing = [f for f in fields if f not in given and f not in defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments: {', '.join(missing)}")
        return {f: given[f] if f in given else defaults[f] for f in fields}

    def __init__(self, *args, **kwargs):
        given = dict(zip(fields, args), **kwargs) if args else kwargs
        if len(given) != n or len(args) + len(kwargs) != n or not names.issuperset(kwargs):
            given = bind(args, kwargs)
        _set(self, "__dict__", given)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values(self)))
        return f"{self.__class__.__qualname__}({body})"

    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    cls._fields = fields
    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
