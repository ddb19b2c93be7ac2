"""Immutable value records: the library's stand-in for frozen dataclasses.

@record reads a class's fields from its annotations, in MRO order, and
gives it an __init__ taking them positionally or by keyword (a class
attribute of the same name is the default; __post_init__, if defined,
runs last), plus __eq__ (same class, equal fields), __hash__ (the hash
of the field tuple) and __repr__ (Cls(a=1, b=2)), all as dataclasses
would, except that the hash is computed once, on first use, and cached
on the instance (records are memo keys, hashed on every lookup);
__getstate__ leaves it out, so pickle and copy never carry it to another
process.  A method the class defines itself is kept.  Assignment and
deletion raise AttributeError, so a __post_init__ that normalises a
field writes it with object.__setattr__.

Only __init__, which builds every record, is compiled, once per class,
in the shape dataclasses generates.  Importing this module loads no more
than operator; importing dataclasses loads inspect, ast and dis.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["record", "replace"]

_MISSING = object()


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Class decorator: make cls an immutable record of its annotated fields."""
    names = tuple(dict.fromkeys(
        name for base in reversed(cls.__mro__)
        for name in base.__dict__.get("__annotations__", {})
    ))
    if not names:
        raise TypeError(f"record {cls.__qualname__} has no fields")
    namespace = {"_set": object.__setattr__}
    params = []
    for name in names:
        default = getattr(cls, name, _MISSING)
        if default is _MISSING:
            params.append(name)
        else:
            namespace[f"_dflt_{name}"] = default
            params.append(f"{name}=_dflt_{name}")
    body = [f"    _set(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), namespace)

    fields = attrgetter(*names)
    if len(names) == 1:  # attrgetter of one name gives the bare value
        fields = lambda obj, one=fields: (one(obj),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self.__dict__["_hash"] = hash(fields(self))
            return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    own = cls.__dict__
    for method in (namespace["__init__"], __eq__, __hash__, __repr__, __getstate__):
        attr = method.__name__
        # Python sets __hash__ = None on a class that defines only __eq__;
        # that is no hash of its own
        if attr not in own or (attr == "__hash__" and own[attr] is None
                               and "__eq__" in own):
            method.__qualname__ = f"{cls.__qualname__}.{attr}"
            setattr(cls, attr, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls._fields = names
    return cls


def replace(obj, **changes):
    """A copy of the record obj with the given fields changed."""
    return obj.__class__(**{name: getattr(obj, name) for name in obj._fields} | changes)
