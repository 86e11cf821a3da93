"""PoET timer enclave (Section 4.2).

Each node asks its enclave for a randomised ``waitTime``.  Only after that
time has elapsed (by trusted time) does the enclave issue a **wait
certificate**; the node with the shortest wait time for a given block height
becomes the leader.  PoET+ additionally draws an ``l``-bit value ``q`` bound
to the certificate and only certificates with ``q == 0`` are valid, which
subsamples the candidate set to ``n * 2^-l`` nodes and reduces the stale
block rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.crypto.signatures import Signature, verify_signature
from repro.errors import EnclaveError
from repro.tee.enclave import Enclave


@dataclass(frozen=True)
class WaitCertificate:
    """A signed certificate that the enclave waited ``wait_time`` for ``height``."""

    enclave_id: str
    height: int
    wait_time: float
    q: int
    signature: Signature

    @property
    def valid_for_poet_plus(self) -> bool:
        """PoET+ validity condition: the bound filter value q must be zero."""
        return self.q == 0

    def verify(self) -> bool:
        body = {"height": self.height, "wait_time": self.wait_time, "q": self.q}
        return verify_signature(self.signature, body)


class PoETEnclave(Enclave):
    """Proof-of-Elapsed-Time enclave.

    Parameters
    ----------
    mean_wait:
        Mean of the exponential wait-time distribution (the protocol's
        target block interval divided by the network size).
    q_bits:
        Filter bit length ``l``; 0 reproduces plain PoET (every certificate
        valid), ``l > 0`` gives PoET+ subsampling.
    """

    CODE_IDENTITY = "repro.tee.PoETEnclave/v1"

    def __init__(self, enclave_id: str, mean_wait: float = 10.0, q_bits: int = 0,
                 **kwargs) -> None:
        super().__init__(enclave_id, **kwargs)
        if mean_wait <= 0:
            raise EnclaveError("mean_wait must be positive")
        if q_bits < 0:
            raise EnclaveError("q_bits must be non-negative")
        self.mean_wait = mean_wait
        self.q_bits = q_bits
        self._pending: Dict[int, tuple[float, float, int]] = {}

    def request_wait_time(self, height: int) -> float:
        """Draw a wait time for block ``height``; one draw per height."""
        if height in self._pending:
            return self._pending[height][1]
        started = self.trusted_time()
        # Exponential draw via inverse CDF on an enclave random value.
        uniform = (self.read_rand(53) + 1) / float(1 << 53)
        import math
        wait_time = -self.mean_wait * math.log(uniform)
        q = self.read_rand(self.q_bits) if self.q_bits > 0 else 0
        self._pending[height] = (started, wait_time, q)
        return wait_time

    def get_wait_certificate(self, height: int) -> Optional[WaitCertificate]:
        """Return a certificate once the wait time has elapsed, else None."""
        if height not in self._pending:
            raise EnclaveError("request_wait_time must be called before requesting a certificate")
        started, wait_time, q = self._pending[height]
        if self.trusted_time() < started + wait_time:
            return None
        body = {"height": height, "wait_time": wait_time, "q": q}
        return WaitCertificate(
            enclave_id=self.enclave_id,
            height=height,
            wait_time=wait_time,
            q=q,
            signature=self.sign(body),
        )
