"""Frozen value records, the one way the package declares a record.

Every record type is a ``Record`` subclass: the config types, the graph and
its condensation, the criteria report, the trajectory and the certificates.
``dataclasses`` imports ``inspect``, and the two cost a cold start more than
the config module itself.  A ``Record`` subclass names its fields as
annotations, in order; a class attribute of the same name, unless a
property, is the field's default.  Every construction, a ``replace``
included, runs the class's ``__post_init__`` check when it has one; a check
that normalises a field writes it into ``__dict__``.  A record refuses
assignment and deletion, and its ``==``, ``hash`` and ``repr`` are those of
a frozen dataclass: by type, then by the tuple of its field values, but by
identity for a record with an ndarray field.  A result is built once, with
every field; a changed copy is a ``replace``.
"""


class Record:
    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {k: v for k, v in vars(cls).items() if k in cls._fields and type(v) is not property}
        if any("ndarray" in str(kind) for kind in cls.__annotations__.values()):
            # an array has no one truth value, so such a record equals itself alone
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields) or not kwargs.keys() <= set(cls._fields[len(args):]):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}, each once")
        values = {**cls._defaults, **dict(zip(cls._fields, args)), **kwargs}
        missing = [name for name in cls._fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__} is missing the fields {missing}")
        self.__dict__.update((name, values[name]) for name in cls._fields)
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"


def fields(record) -> tuple:
    """The field names of a record or record class, in order."""
    return record._fields


def asdict(record) -> dict:
    """The fields of ``record`` as a dict, in order (a nested record stays one)."""
    return dict(zip(record._fields, record._values()))


def replace(record, **changes):
    """A new record of the same type with ``changes``, checked as on construction."""
    return type(record)(**{**asdict(record), **changes})
