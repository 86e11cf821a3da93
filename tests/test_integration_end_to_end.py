"""End-to-end integration tests across the whole stack.

These mirror the running example of Section 3.1: a consortium of financial
institutions sharding a shared ledger, processing both local and cross-border
(cross-shard) payments, under honest and Byzantine conditions.
"""

from __future__ import annotations


from repro.consensus.byzantine import SilentLeader
from repro.core.client_api import attach_clients
from repro.core.config import ShardedSystemConfig
from repro.core.system import ShardedBlockchain
from repro.sharding.assignment import assign_committees
from repro.sharding.sizing import faulty_committee_probability
from repro.txn.coordinator import DistributedTxOutcome
from repro.workloads.smallbank import SmallbankChaincode, account_key

FAST = {"batch_size": 20, "view_change_timeout": 5.0}


class TestConsortiumScenario:
    def test_full_deployment_processes_mixed_workload(self):
        """Committees formed from a seeded permutation process a Smallbank workload."""
        config = ShardedSystemConfig(
            num_shards=3, committee_size=3, protocol="AHL+",
            use_reference_committee=True, benchmark="smallbank", num_keys=300,
            consensus_overrides=dict(FAST), seed=11,
        )
        system = ShardedBlockchain(config)
        # The node-to-committee assignment is a partition of all nodes.
        members = [node for committee in system.assignment.committees
                   for node in committee.members]
        assert sorted(members) == list(range(config.total_nodes))
        clients = attach_clients(system, count=4, outstanding=8)
        result = system.run(20.0)
        assert result.committed_transactions > 20
        assert result.cross_shard_fraction > 0.3
        # Every shard made progress and the chains all verify.
        for cluster in system.shards.values():
            observer = cluster.honest_observer()
            assert observer.blockchain.height > 0
            assert observer.blockchain.verify_suffix(0)
        # Client-side and system-side accounting agree.
        total_client_commits = sum(client.stats.committed for client in clients)
        assert total_client_commits == result.committed_transactions

    def test_money_is_conserved_across_the_whole_deployment(self):
        config = ShardedSystemConfig(
            num_shards=2, committee_size=3, protocol="AHL+",
            use_reference_committee=True, benchmark="smallbank", num_keys=100,
            consensus_overrides=dict(FAST), seed=13,
        )
        system = ShardedBlockchain(config)
        attach_clients(system, count=3, outstanding=5)
        system.run(25.0)

        def total_balance() -> int:
            total = 0
            for index in range(config.num_keys):
                key = account_key(str(index))
                shard = system.shards[system.shard_of_key(key)]
                total += shard.honest_observer().state.get(key, 0)
            return total

        # A cut taken mid-way through a cross-shard commit (one shard has
        # applied its deltas, the other has not yet) is transiently
        # unbalanced by design; conservation is the *quiescent* invariant.
        # Step the clock in small increments until a cut with no half-applied
        # commit comes around.
        expected = config.num_keys * 10_000
        for _ in range(40):
            if total_balance() == expected:
                break
            system.run(0.25)
        assert total_balance() == expected

    def test_no_locks_left_behind_after_the_run_completes(self):
        config = ShardedSystemConfig(
            num_shards=2, committee_size=3, protocol="AHL+",
            use_reference_committee=False, benchmark="smallbank", num_keys=100,
            consensus_overrides=dict(FAST), seed=17,
        )
        system = ShardedBlockchain(config)
        clients = attach_clients(system, count=2, outstanding=3)
        system.run(20.0)
        # Stop issuing new work and let in-flight transactions drain.
        for client in clients:
            client.outstanding = 0
        system.run(20.0)
        leaked = []
        for cluster in system.shards.values():
            state = cluster.honest_observer().state
            leaked.extend(key for key, value in state.items()
                          if key.startswith("L_acc_") and value is not None)
        assert leaked == []

    def test_byzantine_committee_member_does_not_stop_the_shard(self):
        config = ShardedSystemConfig(
            num_shards=1, committee_size=5, protocol="AHL+",
            use_reference_committee=False, benchmark="smallbank", num_keys=100,
            consensus_overrides=dict(FAST), seed=19,
        )
        system = ShardedBlockchain(config)
        # Corrupt two members (f = 2 tolerated with n = 5 under AHL+).
        cluster = system.shards[0]
        attacker = SilentLeader([cluster.committee[3], cluster.committee[4]])
        for node_id in (cluster.committee[3], cluster.committee[4]):
            replica = cluster.replica_by_id(node_id)
            replica.byzantine = attacker
        attach_clients(system, count=2, outstanding=5)
        result = system.run(25.0)
        assert result.committed_transactions > 0

    def test_committee_sizing_matches_deployment_risk(self):
        """The sizing module's guarantee applies to the formed committees."""
        nodes = list(range(400))
        assignment = assign_committees(nodes, num_shards=4, seed=23)
        committee_size = assignment.committees[0].size
        probability = faulty_committee_probability(400, 0.25, committee_size, resilience=0.5)
        # 100-node committees with a 25% adversary and 1/2 resilience are safe.
        assert probability < 1e-6

    def test_explicit_cross_shard_payment_story(self):
        """The running example: a payment between institutions in different shards."""
        config = ShardedSystemConfig(
            num_shards=2, committee_size=3, protocol="AHL+",
            use_reference_committee=True, benchmark="smallbank", num_keys=64,
            consensus_overrides=dict(FAST), seed=29,
        )
        system = ShardedBlockchain(config)
        chaincode = SmallbankChaincode()
        payer, payee = None, None
        for a in range(64):
            for b in range(64):
                if a != b and system.shard_of_key(account_key(str(a))) != \
                        system.shard_of_key(account_key(str(b))):
                    payer, payee = str(a), str(b)
                    break
            if payer:
                break
        outcomes = []
        tx = chaincode.new_transaction("sendPayment",
                                       {"from": payer, "to": payee, "amount": 250})
        system.submit_transaction(tx, on_complete=lambda r: outcomes.append(r))
        system.run(30.0)
        assert len(outcomes) == 1
        record = outcomes[0]
        assert record.outcome is DistributedTxOutcome.COMMITTED
        assert record.is_cross_shard
        assert record.latency is not None and record.latency > 0
