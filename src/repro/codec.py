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
  An unknown tag or a wrong field count is a :class:`CodecError`; decoding
  never resolves a global, so it never runs code the sender chose.

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
from typing import Any, Dict, Optional, Tuple

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
