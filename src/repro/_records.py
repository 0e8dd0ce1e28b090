"""Record helpers: checked NamedTuple construction, slotted pickle state.

Immutable records are :class:`typing.NamedTuple` classes (see
``docs/ARCHITECTURE.md``, *Records*).  A NamedTuple has no
``__post_init__``, so a record whose fields must be validated or
normalised says so with :func:`checked`.

A frozen dataclass with ``slots=True`` pickles its field values as a
sequence, and the ``__setstate__`` :mod:`dataclasses` gives it zips the
fields with whatever state it is handed.  Given the ``__dict__`` that
the same class pickled before it had slots, that zip walks the dict's
keys and sets every field to its own name, silently.  A program cache
written by such an older build must load correctly or not at all, so
:func:`slotted_state` installs a state pair that reads either form.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Tuple, Type, TypeVar

T = TypeVar("T")


def checked(cls: Type[T]) -> Type[T]:
    """Route every construction of the NamedTuple *cls* through its
    ``_checked`` method, the counterpart of a dataclass
    ``__post_init__``: ``_checked`` raises on bad fields and returns the
    record, or a normalised copy made with ``_replace``.

    Calls, copies and unpickling all construct through ``__new__`` and
    so are checked; ``_make`` and ``_replace`` are not."""
    make = cls.__new__

    def __new__(klass: Type[T], *args: Any, **kwargs: Any) -> T:
        return make(klass, *args, **kwargs)._checked()

    cls.__new__ = staticmethod(__new__)  # type: ignore[assignment]
    return cls


def slotted_state(cls: Type[T]) -> Type[T]:
    """Give the slotted dataclass *cls* a tuple pickle state that also
    loads the dict state of its dict-backed past (a missing field raises,
    so a cache reader counts the entry as a miss)."""
    names = tuple(f.name for f in fields(cls))  # type: ignore[arg-type]

    def __getstate__(self: Any) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in names)

    def __setstate__(self: Any, state: Any) -> None:
        if isinstance(state, dict):
            state = [state[name] for name in names]
        if len(state) != len(names):
            raise ValueError(f"{cls.__name__} state has {len(state)} fields")
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    cls.__getstate__ = __getstate__  # type: ignore[attr-defined]
    cls.__setstate__ = __setstate__  # type: ignore[attr-defined]
    return cls
