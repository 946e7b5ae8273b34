"""Frozen value classes, built from plain Python.

``@frozen`` makes the annotated class attributes of a class its fields, in
order, as the standard library's frozen data classes do.  It generates
``__init__`` (a class-level value is the field's default, and
``__post_init__`` runs last), the ``Name(field=value, ...)`` repr, and
equality and hashing over the fields; assigning or deleting an attribute
raises ``AttributeError``, while ``object.__setattr__`` still stores what a
``__post_init__`` derives.  The standard module imports ``inspect`` and
``ast``, which took about a tenth of a one-shot CLI process.
"""


def _no_assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    params = ", ".join(f"{n}=_dflt_{n}" if n in cls.__dict__ else n for n in names)
    sets = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    own = "(" + "".join(f"self.{n}," for n in names) + ")"
    other = "(" + "".join(f"other.{n}," for n in names) + ")"
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    source = (
        f"def __init__(self, {params}):\n{sets}{post}"
        "def __repr__(self):\n"
        f"    return self.__class__.__qualname__ + f'({shown})'\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return {own} == {other}\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash({own})\n"
    )
    namespace = {f"_dflt_{n}": cls.__dict__[n] for n in names if n in cls.__dict__}
    namespace.update(__name__=cls.__module__, _set=object.__setattr__)
    exec(source, namespace)
    for method in ("__init__", "__repr__", "__eq__", "__hash__"):
        fn = namespace[method]
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, fn)
    cls.__setattr__ = _no_assign
    cls.__delattr__ = _no_delete
    cls._fields = names
    return cls


def replace(obj, **changes):
    """A copy of ``obj`` with the given fields changed, built through
    ``__init__`` so that its checks run again."""
    for name in obj._fields:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)
