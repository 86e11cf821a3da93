"""Base enclave model: measurement, enclave-held keys, quotes and sealing."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.crypto.hashing import digest_of, sha256_hex
from repro.crypto.signatures import KeyPair, Signature, register_keypair
from repro.errors import EnclaveError


@dataclass(frozen=True)
class EnclaveQuote:
    """An attestation quote: the enclave measurement signed by the platform key."""

    enclave_id: str
    measurement: str
    report_data: str
    signature: Signature


@dataclass(frozen=True)
class SealedBlob:
    """Sealed (encrypted-to-measurement) enclave state.

    The simulation does not actually encrypt; instead the blob records the
    sealing measurement and an integrity digest, which captures the security
    property that matters for the protocols: only an enclave with the same
    measurement can unseal, and tampering is detected — but **staleness is
    not** (rollback attacks are possible, as in real SGX).
    """

    measurement: str
    payload: Any
    integrity: str
    version: int


class Enclave:
    """A software-modelled SGX enclave.

    Parameters
    ----------
    enclave_id:
        Unique identifier, typically derived from the hosting node id.
    code_identity:
        A string describing the trusted code; the measurement is its digest,
        so two enclaves running the same code have the same measurement.
    time_source:
        Callable returning the current trusted time (``sgx_get_trusted_time``);
        in simulations this is ``simulator.now``.
    rng:
        Source for ``sgx_read_rand``.  Defaults to a generator seeded from the
        enclave id so runs are reproducible.
    """

    CODE_IDENTITY = "repro.tee.Enclave/v1"

    def __init__(self, enclave_id: str, code_identity: Optional[str] = None,
                 time_source: Optional[Callable[[], float]] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.enclave_id = enclave_id
        self.code_identity = code_identity or self.CODE_IDENTITY
        self.measurement = sha256_hex(f"measurement:{self.code_identity}")
        self._time_source = time_source or (lambda: 0.0)
        self._rng = rng or random.Random(f"enclave:{enclave_id}")
        self._key = KeyPair(owner=f"enclave:{enclave_id}", seed=self.measurement)
        register_keypair(self._key)
        self._seal_version = 0

    # ------------------------------------------------------------------ time
    def trusted_time(self) -> float:
        """``sgx_get_trusted_time``: elapsed time from a trusted reference point."""
        return self._time_source()

    def read_rand(self, bits: int = 64) -> int:
        """``sgx_read_rand``: an unbiased random integer of the given bit length."""
        if bits <= 0:
            raise EnclaveError("bits must be positive")
        return self._rng.getrandbits(bits)

    # ------------------------------------------------------------- signatures
    def sign(self, message: Any = None, *, digest: Optional[str] = None) -> Signature:
        """Sign a message (or its digest) with the enclave-held key (never leaves the enclave)."""
        return self._key.sign(message, digest=digest)

    def quote(self, report_data: Any = "") -> EnclaveQuote:
        """Produce an attestation quote binding ``report_data`` to the measurement."""
        data_digest = digest_of(report_data)
        signature = self._key.sign({"measurement": self.measurement, "report_data": data_digest})
        return EnclaveQuote(
            enclave_id=self.enclave_id,
            measurement=self.measurement,
            report_data=data_digest,
            signature=signature,
        )

    # ---------------------------------------------------------------- sealing
    def seal(self, payload: Any) -> SealedBlob:
        """Seal state to persistent storage (recoverable only by same-measurement enclaves)."""
        self._seal_version += 1
        return SealedBlob(
            measurement=self.measurement,
            payload=payload,
            integrity=digest_of({"m": self.measurement, "p": payload, "v": self._seal_version}),
            version=self._seal_version,
        )

    def unseal(self, blob: SealedBlob) -> Any:
        """Unseal a blob; raises if it was sealed by a different measurement or tampered with."""
        if blob.measurement != self.measurement:
            raise EnclaveError("sealed blob was produced by a different enclave measurement")
        expected = digest_of({"m": blob.measurement, "p": blob.payload, "v": blob.version})
        if expected != blob.integrity:
            raise EnclaveError("sealed blob integrity check failed")
        return blob.payload

    def restart(self) -> None:
        """Model an enclave restart: volatile state is lost.

        Subclasses override to clear their volatile state; the base class
        keeps the key (re-derived from measurement on real hardware).
        """
