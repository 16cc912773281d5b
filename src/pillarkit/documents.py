"""One JSON codec for the config and checkpoint dataclasses.

A bad config raises ValidationError (exit 2), a bad checkpoint FileFormatError (exit 3).
"""

from __future__ import annotations

import dataclasses
import types
import typing

from .errors import ValidationError

Seed = typing.Annotated[int, "non-negative"]  # numpy rejects negative seeds


class Document:
    """Mixin for a dataclass that is read from and written to a JSON object."""

    def to_doc(self) -> dict:
        """The fields in declaration order."""
        return dataclasses.asdict(self)

    @classmethod
    def from_doc(cls, doc, error: type[Exception] = ValidationError):
        """An instance from the keys of ``doc`` that name fields; other keys are ignored.

        A non-object, a value not of its field's type (see :func:`typed`) and
        a value the class rejects are all raised as ``error``.
        """
        if not isinstance(doc, dict):
            raise error(f"{cls.__name__} must be a JSON object, got {doc!r}")
        hints = typing.get_type_hints(cls, include_extras=True)
        values = {
            f.name: typed(hints[f.name], doc[f.name], f"{cls.__name__}.{f.name}", error)
            for f in dataclasses.fields(cls)
            if f.name in doc
        }
        try:
            return cls(**values)
        except (TypeError, ValueError) as exc:
            raise error(f"bad {cls.__name__}: {exc}") from exc


def typed(hint, value, where: str, error: type[Exception] = ValidationError):
    """``value`` as the declared type ``hint``, or ``error`` naming ``where``.

    An ``int`` takes an integral number (``8`` or ``8.0``), a ``float`` any
    number; a list becomes the declared (homogeneous) tuple or list.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:  # Seed
        value = typed(args[0], value, where, error)
        if value < 0:
            raise error(f"{where} must be >= 0, got {value}")
        return value
    if origin in (typing.Union, types.UnionType):  # declared only as ``X | None``
        return None if value is None else typed(args[0], value, where, error)
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            raise error(f"{where} must be a list, got {value!r}")
        return origin(typed(args[0], v, f"{where}[{i}]", error) for i, v in enumerate(value))
    if hint in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise error(f"{where} must be a number, got {value!r}")
        if hint is int and isinstance(value, float) and not value.is_integer():
            raise error(f"{where} must be an integer, got {value!r}")
        try:
            return hint(value)
        except OverflowError:  # an integer beyond the float range
            raise error(f"{where} is out of range, got {value!r}") from None
    if hint in (bool, str) and not isinstance(value, hint):
        raise error(f"{where} must be a {hint.__name__}, got {value!r}")
    return value
