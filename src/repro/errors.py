"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so that
callers can catch a single base class at API boundaries while the library
itself raises precise subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration value is missing, out of range or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class NetworkError(SimulationError):
    """A message was sent to an unknown node or over a broken link."""


class CryptoError(ReproError):
    """A signature, digest or Merkle proof failed verification."""


class EnclaveError(ReproError):
    """A TEE enclave rejected an operation (bad invocation, replay, rollback)."""


class LedgerError(ReproError):
    """The blockchain or state store rejected an operation."""


class InvalidBlockError(LedgerError):
    """A block failed structural or hash-chain validation."""


class InvalidTransactionError(LedgerError):
    """A transaction is malformed or references unknown state."""


class ChaincodeError(LedgerError):
    """A chaincode invocation failed (unknown function, bad arguments)."""


class ShardingError(ReproError):
    """Shard formation or reconfiguration failed."""


class CommitteeSizeError(ShardingError):
    """No committee size satisfies the requested failure probability."""


class TransactionAbortedError(ReproError):
    """A distributed transaction was aborted (lock conflict or vote-abort)."""


class CoordinatorFailureError(ReproError):
    """A transaction coordinator failed or blocked indefinitely."""


class WorkloadError(ReproError):
    """A workload generator or client driver was misconfigured."""
