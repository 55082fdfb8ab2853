"""Bases of fogsim's records: plain classes whose fields are their constructor's
parameters.  With no code generated per class, a record shows its fields in its
repr, a frozen one refuses assignment, and a value equals and hashes by fields."""

from __future__ import annotations

from functools import cache
from operator import attrgetter


@cache
def fields_of(cls) -> tuple[str, ...]:
    """The names of `cls`'s constructor parameters: its fields."""
    code = cls.__init__.__code__
    return code.co_varnames[1:code.co_argcount]


@cache
def _values(cls) -> attrgetter:
    return attrgetter(*fields_of(cls))


def set_fields(record: Frozen, **fields) -> None:
    """Set a frozen record's fields from its constructor.  Like `self.x = v`,
    and unlike a write to `vars(self)`, this keeps attribute reads fast."""
    for name, value in fields.items():
        object.__setattr__(record, name, value)


def check_integers(prefix: str = "", **fields) -> None:
    """Raise ValueError, naming the field, on the first of `fields` that is not
    an int: what the scenario reader reads as an integer, a record takes as one."""
    for name, value in fields.items():
        if not isinstance(value, int):
            raise ValueError(f"{prefix}{name}: expected an integer, got {value!r}")


class Record:
    """A record shown by value; it equals only itself."""

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields_of(type(self)))
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A record whose fields cannot change once it is built."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Frozen):
    """A frozen record compared and hashed by its class and fields."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = _values(self.__class__)
        return values(self) == values(other)

    def __hash__(self):
        return hash(_values(self.__class__)(self))
