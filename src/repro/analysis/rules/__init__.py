"""detlint rule modules.

Importing this package registers every rule with the registry (the
``@register`` decorator runs at import time); :func:`repro.analysis.registry
.all_rules` imports it lazily so rule modules can import registry freely.
"""

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    dead_code,
    det_hash,
    det_order,
    det_rng,
    det_setiter,
    det_time,
    pkl_barrier,
)
