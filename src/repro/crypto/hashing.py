"""Hashing helpers.

Blocks, transactions and attested-log entries are identified by SHA-256
digests over a canonical serialisation; :func:`digest_of` provides that
canonical form for arbitrary JSON-like Python values (dataclasses included).

The two steps are separate so a fixed-shape record can skip the first:
:func:`canonical_json` is the general pass (a recursive ``_canonical`` walk
plus one encoder run) and :func:`sha256_hex` the hash.  The hot records —
attestation body, block header, transaction — write their canonical JSON as
a template over :func:`json_string` and decimal ``int``/``float`` reprs, which
is what the encoder emits for exactly those types; any other field type falls
through to :func:`digest_of`, so the bytes hashed are the same either way.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

#: One encoder for every call (``json.dumps`` with non-default options builds
#: a fresh ``JSONEncoder`` each time).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Canonical JSON of one ``str``: the encoder's own string escaper.
json_string = json.encoder.encode_basestring_ascii


def _canonical(value: Any) -> Any:
    """Convert a value into a JSON-serialisable canonical form.

    The exact-type fast paths below cover the overwhelmingly common shapes on
    the hot path (transaction dicts, digest strings, numeric fields) without
    touching the general chain; their output is bit-identical to
    :func:`_canonical_general`.  Two equivalences make the shortcuts safe:

    * ``json.dumps(..., sort_keys=True)`` re-sorts mapping keys at dump time,
      so a dict whose keys are already all ``str`` needs no pre-sorting (the
      seed pre-sorted by ``str(key)`` only so that mixed-type keys stringify
      deterministically);
    * exact ``type(...) is int`` excludes ``bool`` (a subclass), so the
      bool-before-int ordering of the general chain is preserved.
    """
    kind = type(value)
    if kind is str or kind is int or kind is float:
        return value
    if value is None:
        return None
    if kind is bool:
        return int(value)
    if kind is dict:
        if all(type(key) is str for key in value):
            return {key: _canonical(item) for key, item in value.items()}
        return _canonical_general(value)
    if kind is list or kind is tuple:
        return [_canonical(item) for item in value]
    return _canonical_general(value)


def _canonical_general(value: Any) -> Any:
    """The general canonicalisation chain (dataclasses, subclasses, bytes, sets)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__dc__": type(value).__name__,
                "fields": _canonical(dataclasses.asdict(value))}
    if isinstance(value, dict):
        return {str(key): _canonical(val) for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, bool):
        # Python equality conflates bools with their integer values
        # (False == 0, True == 1); canonicalise the same way so equal values
        # always produce equal digests.
        return int(value)
    if isinstance(value, (str, int, float)) or value is None:
        return value
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(item) for item in value)
    return {"__repr__": repr(value)}


def sha256_hex(data: bytes | str) -> str:
    """SHA-256 digest of raw bytes (or UTF-8 encoded text), as a hex string."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def canonical_json(value: Any) -> str:
    """Canonical JSON text of an arbitrary JSON-like Python value."""
    return _ENCODER.encode(_canonical(value))


def digest_of(value: Any) -> str:
    """Deterministic SHA-256 digest of an arbitrary JSON-like Python value."""
    if type(value) is str:  # a digest or Merkle root: its JSON is one literal
        return sha256_hex(json_string(value))
    return sha256_hex(canonical_json(value))


def short_digest(value: Any, length: int = 12) -> str:
    """Truncated digest, convenient for logging and identifiers."""
    return digest_of(value)[:length]
