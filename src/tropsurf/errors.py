"""Exception hierarchy shared across the package, and the readers that
check JSON input.

Domain errors (bad input data, violated preconditions) all derive from
TropsurfError so the CLI can map them to exit code 1.

The readers below check one item of a parsed JSON value and raise the
error class their caller passes in, so every input format reports in one
form.  ``where`` is a location: the file name, then ``: `` and a path of
``.key`` and ``[k]`` steps, such as ``c.json: rays[0].dir``; either part
may be empty.  A missing key reads ``<where of the object>: missing key
'k'`` and a bad value ``<where of the value> must be ..., got <repr>``.
Booleans are not integers.
"""


class TropsurfError(Exception):
    """Base class for all domain errors raised by this package."""


class MatroidError(TropsurfError):
    """Invalid matroid data or an operation outside its domain."""


class FanError(TropsurfError):
    """Invalid fan data, or a fan query that cannot be resolved."""


class CycleError(TropsurfError):
    """Invalid 1-cycle data (unbalanced, wrong ambient, not in a fan)."""


class SurfaceError(TropsurfError):
    """Invalid surface expression or violated gluing precondition."""


class ComplexError(TropsurfError):
    """Invalid cell complex, cosheaf data, or (1,1)-cycle input."""


def field(obj, key, where, error):
    """obj[key], or an ``error`` naming the missing key and where obj is."""
    if not isinstance(obj, dict) or key not in obj:
        raise error(f"{where}: missing key {key!r}" if where else f"missing key {key!r}")
    return obj[key]


def integral(v):
    """True for an int or an integral float, False for a bool."""
    return (isinstance(v, int) and not isinstance(v, bool)) or (
        isinstance(v, float) and v.is_integer()
    )


def integer(v, where, error, low=None):
    """v as an int (at least ``low`` if given), or an ``error`` naming where."""
    if not integral(v) or (low is not None and v < low):
        kind = "an integer" if low is None else f"an integer >= {low}"
        raise error(f"{where} must be {kind}, got {v!r}")
    return int(v)


def boolean(v, where, error):
    """v if it is a JSON boolean, or an ``error`` naming where."""
    if not isinstance(v, bool):
        raise error(f"{where} must be true or false, got {v!r}")
    return v


def items(v, where, what, error):
    """v if it is a list, or an ``error`` naming where."""
    if not isinstance(v, (list, tuple)):
        raise error(f"{where} must be a list of {what}, got {v!r}")
    return v


def integers(v, where, error, what="integers"):
    """A list of integers as a tuple of ints, or an ``error`` naming where."""
    if not all(map(integral, items(v, where, what, error))):
        raise error(f"{where} must be a list of {what}, got {v!r}")
    return tuple(int(x) for x in v)
