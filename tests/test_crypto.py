"""Tests for the crypto substrate: hashing, signatures, Merkle trees, cost model."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from repro.crypto.costs import DEFAULT_COSTS, OperationCosts, TABLE2_PAPER_VALUES_US, TABLE2_ROWS
from repro.crypto.hashing import canonical_json, digest_of, json_string, sha256_hex, short_digest
from repro.crypto.merkle import EMPTY_ROOT, MerkleTree, verify_membership
from repro.crypto.signatures import KeyPair, verify_signature, require_valid_signature
from repro.errors import CryptoError

from digest_oracle import json_args, loose, seed_canonical, seed_digest_of

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=15,
)


class TestHashing:
    def test_sha256_known_value(self):
        assert sha256_hex(b"abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_digest_is_deterministic_and_order_insensitive_for_dicts(self):
        assert digest_of({"a": 1, "b": 2}) == digest_of({"b": 2, "a": 1})

    def test_digest_differs_for_different_values(self):
        assert digest_of({"a": 1}) != digest_of({"a": 2})

    def test_short_digest_prefix(self):
        value = {"x": [1, 2, 3]}
        assert digest_of(value).startswith(short_digest(value))

    @given(json_values, json_values)
    def test_digest_collision_free_on_distinct_values(self, left, right):
        if left != right:
            assert digest_of(left) != digest_of(right)
        else:
            assert digest_of(left) == digest_of(right)

    @given(loose | json_args | st.lists(loose, max_size=3) | st.binary(max_size=4))
    def test_digest_of_is_the_seed_definition(self, value):
        """The reused encoder and the one-literal ``str`` path change no byte."""
        assert digest_of(value) == seed_digest_of(value)
        assert canonical_json(value) == json.dumps(
            seed_canonical(value), sort_keys=True, separators=(",", ":"))
        if type(value) is str:
            assert json_string(value) == json.dumps(value)


class TestSignatures:
    def test_sign_and_verify_roundtrip(self):
        key = KeyPair("node-1")
        signature = key.sign({"msg": "hello"})
        assert verify_signature(signature, {"msg": "hello"}, key)

    def test_verification_fails_for_tampered_message(self):
        key = KeyPair("node-1")
        signature = key.sign({"msg": "hello"})
        assert not verify_signature(signature, {"msg": "bye"}, key)

    def test_verification_fails_for_wrong_signer(self):
        alice, bob = KeyPair("alice"), KeyPair("bob")
        signature = alice.sign("payload")
        assert not verify_signature(signature, "payload", bob)

    def test_global_registry_verification(self):
        key = KeyPair("enclave:42")
        from repro.crypto.signatures import register_keypair

        register_keypair(key)
        signature = key.sign([1, 2, 3])
        assert verify_signature(signature, [1, 2, 3])

    def test_require_valid_signature_raises(self):
        key = KeyPair("node-2")
        signature = key.sign("a")
        with pytest.raises(CryptoError):
            require_valid_signature(signature, "b", key)

    @given(json_args)
    def test_precomputed_digest_signs_and_verifies_like_the_message(self, message):
        """``digest=`` is the same signature, and no shortcut past the checks."""
        key = KeyPair("node-4")
        signature = key.sign(digest=digest_of(message))
        assert signature == key.sign(message)
        assert verify_signature(signature, message, key)
        assert verify_signature(signature, keypair=key, digest=digest_of(message))
        assert not verify_signature(signature, keypair=key, digest=digest_of([message]))
        assert not verify_signature(signature, keypair=KeyPair("node-5"),
                                    digest=digest_of(message))
        forged = dataclasses.replace(signature, mac="0" * 64)
        assert not verify_signature(forged, keypair=key, digest=digest_of(message))

    def test_signature_covers_helper(self):
        key = KeyPair("node-3")
        signature = key.sign({"v": 1})
        assert signature.covers({"v": 1})
        assert not signature.covers({"v": 2})


class TestMerkle:
    def test_empty_tree_has_canonical_root(self):
        assert MerkleTree([]).root == EMPTY_ROOT

    def test_single_leaf_root_is_leaf_digest(self):
        tree = MerkleTree(["x"])
        assert tree.root == digest_of("x")

    def test_proofs_verify_for_every_leaf(self):
        items = [f"tx-{i}" for i in range(7)]
        tree = MerkleTree(items)
        for index, item in enumerate(items):
            proof = tree.proof(index)
            assert tree.verify(proof, item)
            assert verify_membership(tree.root, proof, item)

    def test_proof_fails_for_wrong_item(self):
        tree = MerkleTree(["a", "b", "c"])
        proof = tree.proof(0)
        assert not tree.verify(proof, "z")

    def test_out_of_range_proof_raises(self):
        with pytest.raises(CryptoError):
            MerkleTree(["a"]).proof(3)

    def test_root_changes_when_any_leaf_changes(self):
        base = MerkleTree(["a", "b", "c", "d"]).root
        assert MerkleTree(["a", "b", "c", "e"]).root != base

    @given(st.lists(st.integers(), min_size=1, max_size=32), st.data())
    def test_membership_proofs_hold_for_random_trees(self, items, data):
        tree = MerkleTree(items)
        index = data.draw(st.integers(min_value=0, max_value=len(items) - 1))
        proof = tree.proof(index)
        assert verify_membership(tree.root, proof, items[index])


class TestCostModel:
    def test_table2_values_match_paper_within_tolerance(self):
        for operation, model_us in TABLE2_ROWS:
            paper_us = TABLE2_PAPER_VALUES_US[operation]
            assert model_us == pytest.approx(paper_us, rel=0.01)

    def test_aggregation_scales_with_quorum(self):
        assert DEFAULT_COSTS.ahlr_aggregation(10) > DEFAULT_COSTS.ahlr_aggregation(2)
        with pytest.raises(ValueError):
            DEFAULT_COSTS.ahlr_aggregation(-1)

    def test_block_execution_scales_linearly(self):
        one = DEFAULT_COSTS.block_execution(1)
        hundred = DEFAULT_COSTS.block_execution(100)
        assert hundred == pytest.approx(100 * one)
        with pytest.raises(ValueError):
            DEFAULT_COSTS.block_execution(-5)

    def test_with_overrides_returns_new_instance(self):
        custom = DEFAULT_COSTS.with_overrides(tx_execution=1.0)
        assert custom.tx_execution == 1.0
        assert DEFAULT_COSTS.tx_execution != 1.0
        assert isinstance(custom, OperationCosts)

    def test_attested_append_includes_enclave_switch(self):
        assert DEFAULT_COSTS.attested_append() == pytest.approx(
            DEFAULT_COSTS.enclave_switch + DEFAULT_COSTS.ahl_append
        )
