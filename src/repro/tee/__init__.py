"""Trusted Execution Environment (TEE) substrate.

The paper provisions every node with an Intel SGX enclave and uses three
trusted components:

* an **attested append-only memory** (Chun et al.) that prevents Byzantine
  nodes from equivocating, turning PBFT's ``3f + 1`` requirement into
  ``2f + 1`` (:mod:`repro.tee.attested_log`);
* a **RandomnessBeacon** enclave that produces unbiased epoch seeds for shard
  formation (:mod:`repro.tee.randomness_beacon`);
* a **PoET timer** enclave issuing wait certificates
  (:mod:`repro.tee.poet_enclave`).

We model enclaves in software: integrity is an assumption (as in the paper's
threat model), confidentiality is limited to key material, and every enclave
carries a measurement that sealing binds to.  Data sealing and the
rollback-attack recovery procedure of Appendix A are modelled in the enclave
and the attested log.
"""

from repro.tee.enclave import Enclave, SealedBlob
from repro.tee.attested_log import AttestedAppendOnlyLog, LogAttestation
from repro.tee.randomness_beacon import BeaconCertificate, RandomnessBeaconEnclave
from repro.tee.poet_enclave import PoETEnclave, WaitCertificate

__all__ = [
    "Enclave",
    "SealedBlob",
    "AttestedAppendOnlyLog",
    "LogAttestation",
    "RandomnessBeaconEnclave",
    "BeaconCertificate",
    "PoETEnclave",
    "WaitCertificate",
]
