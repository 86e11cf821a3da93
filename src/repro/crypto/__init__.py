"""Cryptographic substrate (simulated, with the paper's measured cost model).

The paper runs the Intel SGX SDK in simulation mode and injects the latency
of every enclave/crypto operation measured on a real SGX CPU (Table 2).
This package does the same: :mod:`repro.crypto.costs` is that cost table,
:mod:`repro.crypto.signatures` provides deterministic simulated ECDSA
key pairs whose signing/verification correctness is real (HMAC-based) while
their *cost* is charged by the protocols through the cost model, and
:mod:`repro.crypto.merkle` provides Merkle trees for block construction.
"""

from repro.crypto.costs import DEFAULT_COSTS, OperationCosts
from repro.crypto.hashing import sha256_hex, digest_of
from repro.crypto.signatures import KeyPair, Signature, verify_signature
from repro.crypto.merkle import MerkleTree, MerkleProof

__all__ = [
    "OperationCosts",
    "DEFAULT_COSTS",
    "sha256_hex",
    "digest_of",
    "KeyPair",
    "Signature",
    "verify_signature",
    "MerkleTree",
    "MerkleProof",
]
