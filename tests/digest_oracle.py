"""The seed's ``digest_of`` and adversarial field strategies for the hasher tests.

``seed_digest_of`` is the definition every specialised hasher must reproduce
byte for byte: the isinstance canonicalisation chain, a fresh
``json.dumps(..., sort_keys=True, separators=(",", ":"))`` and SHA-256.  It
shares no code with ``repro.crypto.hashing``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

from hypothesis import strategies as st

from repro.ledger.transaction import Transaction


def seed_canonical(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__dc__": type(value).__name__,
                "fields": seed_canonical(dataclasses.asdict(value))}
    if isinstance(value, dict):
        return {str(key): seed_canonical(val)
                for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [seed_canonical(item) for item in value]
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (str, int, float)) or value is None:
        return value
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (set, frozenset)):
        return sorted(seed_canonical(item) for item in value)
    return {"__repr__": repr(value)}


def seed_digest_of(value) -> str:
    canonical = json.dumps(seed_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Quotes, backslashes, control, non-ASCII and astral characters, empty strings.
texts = st.sampled_from(["", '"', "\\", '\\"', "\x00\n\t\x1f", "\x7f", "é", " ",
                         "\U0001f600", "a" * 64]) | st.text(max_size=12)
#: Every numeric type the canonical form distinguishes (or conflates).
numbers = (st.booleans() | st.integers(-5, 5) | st.integers(2**53, 2**70)
           | st.sampled_from([0.0, -0.0, 1e-07, 1e22, 1.5, float("nan"),
                              float("inf"), float("-inf")])
           | st.floats())
#: What a field that is normally a ``str`` may also hold.
loose = texts | numbers | st.none() | st.tuples(texts, numbers)
json_args = st.dictionaries(
    st.text(max_size=6),
    st.recursive(texts | numbers | st.none(),
                 lambda children: st.lists(children, max_size=3)
                 | st.tuples(children, children)
                 | st.dictionaries(st.text(max_size=4), children, max_size=3),
                 max_leaves=8),
    max_size=4)


def count_calls(monkeypatch, module, name, counts):
    """Count calls of ``module.name`` wherever a ``repro`` module imported it."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for holder in list(sys.modules.values()):
        if (getattr(holder, "__name__", "").startswith("repro")
                and getattr(holder, name, None) is original):
            monkeypatch.setattr(holder, name, counted)


def count_creates(monkeypatch, counts):
    """Count entries into ``Transaction.create`` under ``counts["create"]``."""
    create = Transaction.create

    def counted(*args, **kwargs):
        counts["create"] += 1
        return create(*args, **kwargs)

    monkeypatch.setattr(Transaction, "create", staticmethod(counted))
