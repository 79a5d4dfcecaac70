"""Slotted records, for the few that a namedtuple cannot be.

The package's records are namedtuples, which compare and hash every field
and cannot be changed.  A record that leaves a field out of == and hash
(Spectrum.pieces, PpdReport.probable) or that is changed after it is built
(verify's reports) derives from Record or FrozenRecord instead.  Its fields
are its __slots__, and its repr, == and hash are the ones written here, so
defining it generates no code at import.
"""


class Record:
    """A mutable record; it is unhashable.

    The fields are the subclass's __slots__, in its __init__'s order.  repr
    shows those in _shown, == compares those in _compared; None means all.
    """

    __slots__ = ()
    _shown = _compared = None

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared or self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._shown or self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class FrozenRecord(Record):
    """A record whose fields cannot be set or deleted once _fill has set them."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
