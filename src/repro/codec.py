"""The one wire codec for every process boundary.

Two boundaries carry protocol objects between processes: the live service's
TCP frames (:mod:`repro.service.frames`) and the scale-out barrier pipe
(:mod:`repro.core.scaleout`).  Both carry only the closed set of classes in
:data:`WIRE_CLASSES`, and both use this codec, so no class is ever pickled:

* :func:`encode` turns a value into its *primitive form*: ``None``, bools,
  ints, floats, strings, bytes, lists and dicts pass through (their items
  encoded in turn); a tuple becomes ``("", *items)``; an instance of a wire
  class becomes ``(class name, *fields)`` in ``dataclasses.fields`` order,
  and an enum member ``(class name, value)``.  Anything else — a set, whose
  iteration order is not part of its value, or an unregistered type — is a
  :class:`CodecError`.
* :func:`decode` rebuilds the value by calling the class named by each tag.
  An unknown tag, a wrong field count or a field that fails its annotation
  (:func:`checker`; each object is checked once, as it is built) is a
  :class:`CodecError`; decoding never resolves a global, so it never runs
  code the sender chose.

Field order and coverage hold by construction: both directions read the
dataclass's own field list.  A decoded :class:`~repro.ledger.transaction.Transaction`
is built from its fields only, so the receiver re-derives its digest.

:func:`dumps` / :func:`loads` add the byte layer for sockets: the primitive
form is pickled, and the bytes are loaded by an unpickler whose
``find_class`` refuses every global.  What that unpickler can build is
exactly the primitive form, and :func:`loads` also caps how many containers
a body may decode to by its length, so shared references cannot make a small
body decode to an exponentially large value.
"""

from __future__ import annotations

import dataclasses
import io
import operator
import pickle
import typing
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple, Union

from repro.core.driver import DriverStats
from repro.core.homecoord import (
    AdmitReport,
    Command,
    MarginReport,
    TxDone,
    WindowBlock,
    WindowResult,
)
from repro.errors import ReproError
from repro.ledger.transaction import Transaction, TransactionReceipt, TxStatus
from repro.sim.network import Message
from repro.txn.coordinator import CoordinatorStats

#: The closed set of dataclasses that cross a process boundary.
WIRE_CLASSES = (Message, Transaction, TransactionReceipt, Command, TxDone,
                AdmitReport, MarginReport, WindowBlock, WindowResult,
                CoordinatorStats, DriverStats)
#: Enums that cross a process boundary (as their value).
WIRE_ENUMS = (TxStatus,)

_SCALARS = frozenset({type(None), bool, int, float, str, bytes})
_FIELDS: Dict[type, Tuple[str, ...]] = {
    cls: tuple(field.name for field in dataclasses.fields(cls))
    for cls in WIRE_CLASSES}
#: Each class's field values as one tuple (every wire class has two or more
#: fields, so ``attrgetter`` always returns a tuple).
_GETTERS = {cls: operator.attrgetter(*names) for cls, names in _FIELDS.items()}
#: Values each tag carries: a dataclass's fields, an enum member's value.
_ARITY = {cls: len(_FIELDS[cls]) if cls in _FIELDS else 1
          for cls in WIRE_CLASSES + WIRE_ENUMS}
_BY_TAG: Dict[str, type] = {cls.__name__: cls for cls in WIRE_CLASSES + WIRE_ENUMS}
_TUPLE = ""


class CodecError(ReproError):
    """A value the codec refuses to encode, or wire data it refuses to decode."""


def _exact_types(hint: Any) -> Optional[FrozenSet[type]]:
    """The types a class or a union of classes admits (None: ``hint`` is neither)."""
    members = typing.get_args(hint) if typing.get_origin(hint) is Union else (hint,)
    if hint is Any or not all(isinstance(member, type) for member in members):
        return None
    return frozenset(members) | ({int} if float in members else frozenset())


def checker(hint: Any) -> Callable[[Any], bool]:
    """A predicate for "matches the annotation ``hint``": a class or an
    ``Optional``/union of classes by exact type (``float`` admits ``int``),
    ``Tuple``/``List``/``Dict`` items in turn, ``Any`` anything, and a plain
    dict of hints a dict of exactly its keys."""
    types = _exact_types(type(None) if hint is None else hint)
    if types is not None:
        return lambda value: type(value) in types
    if hint is Any:
        return lambda _value: True
    if type(hint) is dict:
        fields = {name: checker(of) for name, of in hint.items()}
        return lambda value: (type(value) is dict and value.keys() == fields.keys()
                              and all(valid(value[name]) for name, valid in fields.items()))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    checks = [checker(arg) for arg in args if arg is not Ellipsis]
    if origin is list and checks or origin is tuple and args[1:] == (Ellipsis,):
        return lambda value: type(value) is origin and all(map(checks[0], value))
    if origin is tuple and checks:
        return lambda value: (type(value) is tuple and len(value) == len(checks)
                              and all(valid(item) for valid, item in zip(checks, value)))
    if origin is dict and checks:
        return lambda value: (type(value) is dict and all(map(checks[0], value))
                              and all(map(checks[1], value.values())))
    raise CodecError(f"no checker for the annotation {hint!r}")


_HINTS = {cls: typing.get_type_hints(cls) for cls in WIRE_CLASSES}
#: Per wire class: (position, name, predicate) of each field not annotated ``Any``.
_CHECKS = {cls: tuple((index, name, checker(_HINTS[cls][name]))
                      for index, name in enumerate(_FIELDS[cls])
                      if _HINTS[cls][name] is not Any)
           for cls in WIRE_CLASSES}


def _check_fields(cls: type, items: Any) -> None:
    for index, name, valid in _CHECKS.get(cls, ()):  # an enum: its constructor checks
        if not valid(items[index]):
            raise CodecError(f"{cls.__name__}.{name} cannot be a {type(items[index]).__name__}")


def check(value: Any) -> None:
    """Raise :class:`CodecError` unless every field of the wire object
    ``value`` matches its annotation, as :func:`decode` requires."""
    _check_fields(type(value), _GETTERS[type(value)](value))


def encode(value: Any) -> Any:
    """The primitive form of ``value`` (see the module docstring)."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is tuple:
        return (_TUPLE, *[item if type(item) in _SCALARS else encode(item)
                          for item in value])
    if kind is list:
        return [item if type(item) in _SCALARS else encode(item) for item in value]
    if kind is dict:
        return {encode(key): item if type(item) in _SCALARS else encode(item)
                for key, item in value.items()}
    getter = _GETTERS.get(kind)
    if getter is not None:
        return (kind.__name__, *[item if type(item) in _SCALARS else encode(item)
                                 for item in getter(value)])
    if kind in WIRE_ENUMS:
        return (kind.__name__, value.value)
    raise CodecError(f"{kind.__name__} is not a wire type")


def decode(form: Any, budget: Optional[int] = None) -> Any:
    """Rebuild the value whose primitive form is ``form``.

    ``budget`` caps the number of containers and objects decoded (``None``:
    no cap).
    """
    left = float("inf") if budget is None else budget

    def decode_one(form: Any) -> Any:
        nonlocal left
        left -= 1
        if left < 0:
            raise CodecError(f"wire data decodes to more than {budget} objects")
        kind = type(form)
        if kind is list:
            return [item if type(item) in _SCALARS else decode_one(item)
                    for item in form]
        if kind is dict:
            return {key if type(key) in _SCALARS else decode_one(key):
                    item if type(item) in _SCALARS else decode_one(item)
                    for key, item in form.items()}
        if kind is not tuple or not form or type(form[0]) is not str:
            raise CodecError(f"{kind.__name__} is not a primitive wire form")
        tag = form[0]
        items = [item if type(item) in _SCALARS else decode_one(item)
                 for item in form[1:]]
        if tag == _TUPLE:
            return tuple(items)
        cls = _BY_TAG.get(tag)
        if cls is None:
            raise CodecError(f"unknown wire tag {tag!r}")
        if len(items) != _ARITY[cls]:
            raise CodecError(f"{tag} carries {len(items)} fields, not {_ARITY[cls]}")
        _check_fields(cls, items)
        return cls(*items)

    return form if type(form) in _SCALARS else decode_one(form)


def _refuse_global(_unpickler: Any, module: str, name: str) -> Any:
    raise CodecError(f"wire data names the global {module}.{name}")


class _NoGlobals(pickle.Unpickler):
    """Loads primitives only: every global a body names is refused."""

    #: The hook pickle calls, by name, for every global a body names (bound
    #: by assignment: detlint's DEAD001 cannot see a call made by name).
    find_class = _refuse_global


def dumps(value: Any) -> bytes:
    """``value`` as bytes: its primitive form, pickled."""
    return pickle.dumps(encode(value), protocol=pickle.HIGHEST_PROTOCOL)


def loads(data: bytes) -> Any:
    """Inverse of :func:`dumps` that never resolves a global.

    Any malformed input raises (``CodecError`` or whatever the unpickler
    makes of the bytes); nothing in ``data`` can make it run code.
    """
    return decode(_NoGlobals(io.BytesIO(data)).load(), budget=len(data))
