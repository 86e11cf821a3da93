"""Tests for the TEE substrate: enclaves, attested logs, beacon, PoET timer."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.errors import EnclaveError
from repro.tee.attested_log import AttestedAppendOnlyLog, _body_digest
from repro.tee.enclave import Enclave
from repro.tee.poet_enclave import PoETEnclave
from repro.tee.randomness_beacon import RandomnessBeaconEnclave

from digest_oracle import json_args, loose, numbers, seed_digest_of, texts


class TestEnclaveBasics:
    def test_same_code_same_measurement(self):
        assert Enclave("a").measurement == Enclave("b").measurement

    def test_seal_unseal_roundtrip(self):
        enclave = Enclave("node-1")
        blob = enclave.seal({"height": 7})
        assert enclave.unseal(blob) == {"height": 7}

    def test_unseal_by_different_measurement_fails(self):
        blob = Enclave("a").seal("secret")
        other = Enclave("b", code_identity="other-code")
        with pytest.raises(EnclaveError):
            other.unseal(blob)

    def test_read_rand_respects_bit_length(self):
        enclave = Enclave("node-1")
        for _ in range(50):
            assert 0 <= enclave.read_rand(8) < 256
        with pytest.raises(EnclaveError):
            enclave.read_rand(0)


class TestAttestedLog:
    def test_append_returns_verifiable_attestation(self):
        log = AttestedAppendOnlyLog("a2m-1")
        attestation = log.append("prepare", 1, {"digest": "x"})
        assert attestation.verify()
        assert attestation.position == 1

    def test_equivocation_is_rejected(self):
        log = AttestedAppendOnlyLog("a2m-1")
        log.append("prepare", 5, "value-A")
        with pytest.raises(EnclaveError):
            log.append("prepare", 5, "value-B")

    def test_re_appending_same_value_is_idempotent(self):
        log = AttestedAppendOnlyLog("a2m-1")
        first = log.append("prepare", 5, "value-A")
        second = log.append("prepare", 5, "value-A")
        assert first.digest == second.digest

    @given(texts | loose, st.integers() | numbers, texts | loose)
    def test_body_template_is_digest_of_the_body_dict(self, log_name, position, digest):
        """Exact ``(str, int, str)`` takes the template, anything else falls through."""
        assert _body_digest(log_name, position, digest) == seed_digest_of(
            {"log": log_name, "position": position, "digest": digest})

    @given(texts, st.integers(0, 2**70), texts | json_args, texts | json_args)
    def test_attestation_binds_slot_and_digest(self, log_name, position, message, other):
        log = AttestedAppendOnlyLog("a2m-7")
        attestation = log.append(log_name, position, message)
        assert attestation.digest == seed_digest_of(message)
        assert attestation.signature.digest == seed_digest_of(
            {"log": log_name, "position": position, "digest": attestation.digest})
        assert attestation.verify()
        # Forged, re-positioned or re-labelled: the body no longer matches
        # what the enclave signed.
        for field, value in (("digest", seed_digest_of([message])),
                             ("position", position + 1), ("log_name", log_name + "x")):
            assert not dataclasses.replace(attestation, **{field: value}).verify()
        # Right body, wrong MAC or unknown signer: the signature check still runs.
        for field, value in (("mac", "0" * 64), ("signer", "enclave:nobody")):
            signature = dataclasses.replace(attestation.signature, **{field: value})
            assert not dataclasses.replace(attestation, signature=signature).verify()
        if seed_digest_of(other) == attestation.digest:
            assert log.append(log_name, position, other) == attestation
        else:
            with pytest.raises(EnclaveError):
                log.append(log_name, position, other)
            assert log.lookup(log_name, position) == attestation.digest

    def test_different_logs_are_independent(self):
        log = AttestedAppendOnlyLog("a2m-1")
        log.append("prepare", 5, "value-A")
        log.append("commit", 5, "value-B")  # different log name, no conflict
        assert log.lookup("prepare", 5) != log.lookup("commit", 5)

    def test_restart_freezes_appends_until_recovery(self):
        log = AttestedAppendOnlyLog("a2m-1")
        log.append("prepare", 1, "a")
        log.restart()
        assert log.recovering
        with pytest.raises(EnclaveError):
            log.append("prepare", 2, "b")

    def test_recovery_floor_estimation_appendix_a(self):
        """The recovery floor H_M must be at least the highest attested sequence."""
        log = AttestedAppendOnlyLog("a2m-1")
        for position in range(1, 21):
            log.append("prepare", position, f"v{position}")
        log.restart()
        # Peers report their last stable checkpoints; f = 2, watermark window 10.
        responses = [("p1", 10), ("p2", 10), ("p3", 20), ("p4", 10), ("p5", 0)]
        floor = log.begin_recovery(responses, quorum_f=2, watermark_window=10)
        assert floor >= 20
        with pytest.raises(EnclaveError):
            log.complete_recovery(stable_checkpoint_seq=floor - 1)
        log.complete_recovery(stable_checkpoint_seq=floor)
        assert not log.recovering
        log.append("prepare", floor + 1, "new")

    def test_rollback_attack_with_stale_seal_detected_by_recovery(self):
        log = AttestedAppendOnlyLog("a2m-1")
        log.append("prepare", 1, "v1")
        stale = log.seal_logs()  # the untrusted store keeps every version
        log.append("prepare", 2, "v2")
        log.seal_logs()
        # Attacker restarts the enclave and feeds the stale (first) version.
        log.restart()
        log.restore_from_seal(stale)
        # The log state is stale, but the enclave still refuses appends until
        # recovery completes against a sufficiently recent stable checkpoint.
        assert log.recovering
        with pytest.raises(EnclaveError):
            log.append("prepare", 2, "conflicting-v2")

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=3, max_size=9))
    def test_recovery_floor_at_least_any_quorum_supported_checkpoint(self, checkpoints):
        log = AttestedAppendOnlyLog("a2m-p")
        log.restart()
        responses = [(f"p{i}", ckp) for i, ckp in enumerate(checkpoints)]
        quorum_f = len(checkpoints) // 2
        floor = log.begin_recovery(responses, quorum_f=quorum_f, watermark_window=0)
        # ckp_M is supported by at least quorum_f other replicas, hence >= the
        # (quorum_f+1)-th smallest value.
        assert floor >= sorted(checkpoints)[0]


class TestRandomnessBeacon:
    def test_single_invocation_per_epoch(self):
        beacon = RandomnessBeaconEnclave("b1", q_bits=0)
        first = beacon.invoke(0)
        assert first is not None and first.verify()
        with pytest.raises(EnclaveError):
            beacon.invoke(0)

    def test_q_filter_suppresses_most_certificates(self):
        hits = 0
        for node in range(64):
            beacon = RandomnessBeaconEnclave(f"b{node}", q_bits=4)
            if beacon.invoke(0) is not None:
                hits += 1
        # Expected 64 / 16 = 4 certificates; allow generous slack.
        assert hits <= 16

    def test_q_bits_zero_always_produces_certificate(self):
        beacon = RandomnessBeaconEnclave("b1", q_bits=0)
        assert beacon.invoke(7) is not None

    def test_restart_without_guard_allows_regrinding_and_with_guard_blocks_it(self):
        vulnerable = RandomnessBeaconEnclave("v", q_bits=0, startup_guard=0.0)
        vulnerable.invoke(3)
        vulnerable.restart()
        assert vulnerable.invoke(3) is not None  # the rollback attack surface
        protected = RandomnessBeaconEnclave("p", q_bits=0, startup_guard=10.0)
        protected.invoke(3)
        protected.restart()
        with pytest.raises(EnclaveError):
            protected.invoke(3)

    def test_negative_epoch_rejected(self):
        with pytest.raises(EnclaveError):
            RandomnessBeaconEnclave("b1").invoke(-1)


class TestPoETEnclave:
    def test_certificate_only_after_wait_elapsed(self):
        clock = {"now": 0.0}
        enclave = PoETEnclave("p1", mean_wait=5.0, time_source=lambda: clock["now"])
        wait = enclave.request_wait_time(1)
        assert enclave.get_wait_certificate(1) is None
        clock["now"] = wait + 0.01
        certificate = enclave.get_wait_certificate(1)
        assert certificate is not None and certificate.verify()

    def test_wait_time_is_stable_per_height(self):
        enclave = PoETEnclave("p1", mean_wait=5.0)
        assert enclave.request_wait_time(1) == enclave.request_wait_time(1)

    def test_certificate_before_request_raises(self):
        enclave = PoETEnclave("p1")
        with pytest.raises(EnclaveError):
            enclave.get_wait_certificate(9)

    def test_poet_plus_filter_bound_to_certificate(self):
        clock = {"now": 1e9}
        valid = 0
        for node in range(64):
            enclave = PoETEnclave(f"p{node}", mean_wait=1.0, q_bits=3,
                                  time_source=lambda: clock["now"])
            enclave.request_wait_time(1)
            certificate = enclave.get_wait_certificate(1)
            if certificate is not None and certificate.valid_for_poet_plus:
                valid += 1
        assert valid < 32  # roughly 64/8 expected
