"""Simulated digital signatures.

The protocols need signatures that (a) verify correctly only for the signer
and message they were created for, and (b) can be forged by nobody who lacks
the private key.  For the simulation we realise this with HMAC-SHA256 over a
per-key secret: unforgeable within the simulation because the secret never
leaves the :class:`KeyPair`, and deterministic so runs are reproducible.
Signing/verification *time* is charged separately by the protocols through
:class:`~repro.crypto.costs.OperationCosts`.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.hashing import digest_of
from repro.errors import CryptoError


@dataclass(frozen=True)
class Signature:
    """A signature over a message digest by a named signer."""

    signer: str
    digest: str
    mac: str

    def covers(self, message: Any) -> bool:
        """True if this signature was computed over ``message``."""
        return self.digest == digest_of(message)


#: Cap on each key pair's digest->mac memo; cleared wholesale when exceeded.
_MAC_CACHE_MAX = 65536


class KeyPair:
    """A simulated signing key pair identified by ``owner``.

    The "private key" is an HMAC secret derived from the owner identity and a
    key seed; the "public key" is the owner identity itself.  Within the
    simulation, only the holder of the :class:`KeyPair` object can produce
    valid signatures for that owner.

    MAC computation is memoized per digest: when a committee of N replicas
    verifies the same signature (through the shared registry), the HMAC is
    computed once at signing time and the N verifications are cache hits.
    """

    def __init__(self, owner: str, seed: str = "") -> None:
        self.owner = owner
        self._secret = hashlib.sha256(f"key:{owner}:{seed}".encode("utf-8")).digest()
        self._mac_cache: dict[str, str] = {}

    def _mac_for(self, digest: str) -> str:
        cache = self._mac_cache
        mac = cache.get(digest)
        if mac is None:
            mac = hmac.new(self._secret, digest.encode("utf-8"), hashlib.sha256).hexdigest()
            if len(cache) >= _MAC_CACHE_MAX:
                cache.clear()
            cache[digest] = mac
        return mac

    def sign(self, message: Any = None, *, digest: Optional[str] = None) -> Signature:
        """Sign an arbitrary JSON-like message, or its precomputed ``digest_of``."""
        if digest is None:
            digest = digest_of(message)
        return Signature(signer=self.owner, digest=digest, mac=self._mac_for(digest))

    def verify_own(self, signature: Signature, message: Any = None, *,
                   digest: Optional[str] = None) -> bool:
        """Verify a signature allegedly produced by this key.

        ``digest`` is the caller's own ``digest_of(message)`` when it has a
        cheaper way to compute it than handing over the message.
        """
        if signature.signer != self.owner:
            return False
        if digest is None:
            digest = digest_of(message)
        if digest != signature.digest:
            return False
        return hmac.compare_digest(self._mac_for(digest), signature.mac)


class SignatureVerifier:
    """A registry of public keys that can verify signatures from any registered signer."""

    def __init__(self) -> None:
        self._keys: dict[str, KeyPair] = {}

    def register(self, keypair: KeyPair) -> None:
        self._keys[keypair.owner] = keypair

    def verify(self, signature: Signature, message: Any = None, *,
               digest: Optional[str] = None) -> bool:
        keypair = self._keys.get(signature.signer)
        if keypair is None:
            return False
        return keypair.verify_own(signature, message, digest=digest)


#: A process-wide registry used when protocols verify each other's signatures.
_GLOBAL_VERIFIER = SignatureVerifier()

#: Bumped on every (re-)registration; caches of verification *results* key on
#: this so a verdict computed against an older registry state is never reused
#: after key material changes (see repro.tee.attested_log).
_REGISTRY_GENERATION = 0


def registry_generation() -> int:
    """Current generation of the global key registry."""
    return _REGISTRY_GENERATION


def register_keypair(keypair: KeyPair) -> None:
    """Register a key pair with the global verifier."""
    global _REGISTRY_GENERATION
    _REGISTRY_GENERATION += 1
    _GLOBAL_VERIFIER.register(keypair)


def verify_signature(signature: Signature, message: Any = None,
                     keypair: KeyPair | None = None, *,
                     digest: Optional[str] = None) -> bool:
    """Verify ``signature`` over ``message`` (or over its precomputed ``digest``).

    If ``keypair`` is given it must be the signer's key pair; otherwise the
    global registry is consulted.
    """
    if keypair is not None:
        return keypair.verify_own(signature, message, digest=digest)
    return _GLOBAL_VERIFIER.verify(signature, message, digest=digest)


def require_valid_signature(signature: Signature, message: Any,
                            keypair: KeyPair | None = None) -> None:
    """Raise :class:`CryptoError` unless the signature verifies."""
    if not verify_signature(signature, message, keypair):
        raise CryptoError(f"invalid signature from {signature.signer!r}")
