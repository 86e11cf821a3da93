"""Bit-exact numpy acceleration for the workload generators' RNG hot path.

The scalar workload path draws uniforms one at a time from a
``random.Random``.  CPython's ``random.Random`` and numpy's legacy
``RandomState`` share the same core generator (MT19937) *and* the same
53-bit double construction (``(a >> 5) * 2**26 + (b >> 6)) / 2**53`` from two
consecutive 32-bit outputs), so a block of ``n`` uniforms drawn through
numpy from a transplanted state is **bit-identical** to ``n`` scalar
``rng.random()`` calls — and leaves the generator in the identical state.

:func:`bulk_uniforms` implements that state transplant:

1. ``random.Random.getstate()`` exposes ``(version, key[624] + (pos,),
   gauss_next)``; the 624-word key and the position are exactly the MT19937
   state ``RandomState.set_state`` accepts.
2. ``RandomState.random_sample(n)`` consumes ``2n`` 32-bit outputs, the same
   words in the same order as ``n`` scalar ``random()`` calls.
3. The advanced state is written back with ``setstate``, so scalar and
   vectorized draws can interleave freely on one generator.

When numpy is missing (it is an optional accelerator, never a dependency)
or the block is too small to amortise the transplant, the scalar loop runs
instead — producing, by construction, the same values.  Callers therefore
never need to know which path executed.
"""

from __future__ import annotations

import random
from typing import Any, List, Sequence, Union

#: numpy once :func:`numpy_available` has looked for it (``...`` until then);
#: ``None`` when it is not installed — everything here has an exact scalar
#: fallback — or when a test forces it off.  Imported on first use because
#: only block sampling calls it, and every process that imports ``repro``
#: would otherwise pay its import time and memory.
np: Any = ...

#: Blocks smaller than this run the scalar loop: two state conversions cost
#: more than a few dozen vectorized draws save.
MIN_VECTOR_DRAWS = 32


def numpy_available() -> bool:
    """Whether the numpy fast path is active (tests force it off); imports numpy."""
    global np
    if np is ...:
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - exercised by forcing np to None in tests
            np = None
    return np is not None


def bulk_uniforms(rng: random.Random, count: int) -> Union[List[float], "np.ndarray"]:
    """Draw ``count`` U[0,1) doubles, bit-identical to ``count`` ``rng.random()`` calls.

    Advances ``rng`` exactly as the scalar loop would, so subsequent draws
    (scalar or bulk) continue the same stream.  Returns a numpy array on the
    fast path and a plain list on the scalar fallback.
    """
    if count < MIN_VECTOR_DRAWS or not numpy_available():
        return [rng.random() for _ in range(count)]
    version, internal, gauss_next = rng.getstate()
    key, pos = internal[:624], internal[624]
    # detlint: disable=DET002 -- constructor state is discarded: set_state() transplants the seeded caller rng's Mersenne Twister state on the next line
    state = np.random.RandomState()
    state.set_state(("MT19937", np.asarray(key, dtype=np.uint32), int(pos)))
    draws = state.random_sample(count)
    _, new_key, new_pos = state.get_state()[:3]
    rng.setstate((version,
                  tuple(int(word) for word in new_key) + (int(new_pos),),
                  gauss_next))
    return draws


def bulk_bisect_left(cdf: Sequence[float], values: Union[List[float], "np.ndarray"],
                     cdf_array: "np.ndarray" = None) -> List[int]:
    """``[bisect_left(cdf, v) for v in values]`` via ``np.searchsorted`` when possible.

    ``np.searchsorted(cdf, v, side="left")`` computes exactly
    ``bisect.bisect_left(cdf, v)``, so the two paths agree element-for-element.
    ``cdf_array`` lets callers pass a pre-converted array for reuse.
    """
    if isinstance(values, list) or not numpy_available():
        import bisect

        return [bisect.bisect_left(cdf, value) for value in values]
    if cdf_array is None:
        cdf_array = np.asarray(cdf)
    return np.searchsorted(cdf_array, values, side="left").tolist()
