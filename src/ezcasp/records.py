"""The one base of the package's records: equality, hashing, repr and the
guard against assignment, written once from each class's field list.

A record class lists its fields in `_fields`, in the order of its
constructor, and writes its own `__init__`.  Two records are equal when
they are of the same class and their compared fields are equal; a record
hashes as the tuple of those fields, and its repr is
``Name(field=value, ...)``.  The compared fields are `_compared`, which is
`_fields` unless the class names fewer.

A record is immutable: assigning or deleting an attribute raises
AttributeError, and its `__init__` stores each field past that guard with
`set_field`.  A class declared with ``frozen=False`` assigns its fields as
usual, may be assigned to later and is unhashable.  Instances keep their
`__dict__`, so `functools.cached_property` and `vars` work on them.
`set_field` stores into the instance's attribute values as any assignment
does; writing to `__dict__` itself would give every record a dict of its
own, which costs memory and slows each read of a field.

Nothing here builds code at run time, so defining a record costs no more
than defining a class.
"""

from typing import Tuple

__all__ = ["RecordBase", "set_field"]

set_field = object.__setattr__


class RecordBase:
    _fields: Tuple[str, ...] = ()
    _compared: Tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_compared" not in cls.__dict__:
            cls._compared = cls._fields
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: "
                             f"cannot change {name!r}")

    __delattr__ = __setattr__
