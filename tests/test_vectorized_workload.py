"""Vectorized workload generation (workloads/vectorized.py) equivalence tests.

The contract has two halves:

* ``ZipfGenerator.sample_block`` is **bit-identical** to the scalar
  ``sample()`` loop for the same seed — the numpy path transplants the
  stdlib Mersenne-Twister state into ``numpy.random.RandomState``, draws the
  block, and writes the advanced state back, so the underlying random stream
  is exactly the one the scalar loop would have consumed.
* ``SmallbankWorkload.sample_payments`` (the block-layout payment sampler
  behind ``WorkloadGenerator(vectorized=True)``) produces the same stream
  with and without numpy installed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.errors import WorkloadError
from repro.workloads import vectorized
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.smallbank import SmallbankWorkload
from repro.workloads.zipf import ZipfGenerator


@pytest.fixture
def no_numpy(monkeypatch):
    """Force the scalar fallback paths, as on a box without numpy."""
    monkeypatch.setattr(vectorized, "np", None)


def _zipf_pair(population=1000, coefficient=0.9, seed=42):
    return (ZipfGenerator(population, coefficient, seed=seed),
            ZipfGenerator(population, coefficient, seed=seed))


@pytest.mark.parametrize("coefficient", [0.0, 0.6, 1.2])
def test_sample_block_matches_scalar_stream(coefficient):
    block_gen, scalar_gen = _zipf_pair(coefficient=coefficient)
    assert block_gen.sample_block(500) == [scalar_gen.sample() for _ in range(500)]
    # The numpy draw wrote the advanced MT state back, so the streams stay
    # aligned across the block boundary and under interleaving.
    assert block_gen.sample() == scalar_gen.sample()
    assert block_gen.sample_block(64) == [scalar_gen.sample() for _ in range(64)]


def test_sample_block_matches_scalar_stream_without_numpy(no_numpy):
    block_gen, scalar_gen = _zipf_pair()
    assert block_gen.sample_block(200) == [scalar_gen.sample() for _ in range(200)]


def test_small_blocks_use_scalar_path():
    """Below MIN_VECTOR_DRAWS the state transplant is not worth it."""
    count = vectorized.MIN_VECTOR_DRAWS - 1
    rng_a, rng_b = random.Random(7), random.Random(7)
    assert vectorized.bulk_uniforms(rng_a, count) == [rng_b.random()
                                                      for _ in range(count)]
    assert rng_a.getstate() == rng_b.getstate()


@pytest.mark.skipif(not vectorized.numpy_available(), reason="needs numpy")
def test_bulk_uniforms_restores_stdlib_state():
    """After a numpy block draw the stdlib RNG continues its own stream."""
    rng_vector, rng_scalar = random.Random(3), random.Random(3)
    vector_draws = vectorized.bulk_uniforms(rng_vector, 100)
    scalar_draws = [rng_scalar.random() for _ in range(100)]
    assert list(vector_draws) == scalar_draws
    assert rng_vector.random() == rng_scalar.random()


def test_sample_payments_identical_with_and_without_numpy(monkeypatch):
    with_numpy = SmallbankWorkload(num_accounts=500, zipf_coefficient=1.1,
                                   seed=9).sample_payments(400)
    monkeypatch.setattr(vectorized, "np", None)
    without_numpy = SmallbankWorkload(num_accounts=500, zipf_coefficient=1.1,
                                      seed=9).sample_payments(400)
    assert with_numpy == without_numpy
    assert all(source != destination for source, destination, _ in with_numpy)


def test_vectorized_generator_stream_is_deterministic():
    """Same seed and batch size reproduce the same stream, numpy or not.

    Note the batch size is part of the stream definition (ranks and amounts
    share one RNG, and a block of ``2 * vector_batch`` ranks is drawn before
    that batch's amounts), so only (seed, vector_batch) pins the stream.
    """
    def keys(vector_batch):
        generator = WorkloadGenerator(benchmark="smallbank", num_shards=4,
                                      zipf_coefficient=0.8, num_keys=300,
                                      seed=21, vectorized=True,
                                      vector_batch=vector_batch)
        return [(tx.args["from"], tx.args["to"], tx.args["amount"])
                for tx in generator.stream(150)]

    reference = keys(64)
    assert reference == keys(64)
    assert len(reference) == 150


def test_vectorized_generator_stream_numpy_invariant(monkeypatch):
    def keys():
        generator = WorkloadGenerator(benchmark="smallbank", num_shards=4,
                                      zipf_coefficient=0.8, num_keys=300,
                                      seed=21, vectorized=True, vector_batch=64)
        return [(tx.args["from"], tx.args["to"], tx.args["amount"])
                for tx in generator.stream(150)]

    with_numpy = keys()
    monkeypatch.setattr(vectorized, "np", None)
    assert keys() == with_numpy


def test_vectorized_generator_interface_unchanged():
    generator = WorkloadGenerator(benchmark="smallbank", num_shards=2,
                                  num_keys=100, seed=5, vectorized=True)
    tx = generator.next_transaction(client_id="c7", now=1.5)
    assert tx.function == "sendPayment"
    assert tx.client_id == "c7"
    assert tx.submitted_at == 1.5
    assert generator.mix.total == 1


def test_vectorized_rejects_kvstore():
    with pytest.raises(WorkloadError):
        WorkloadGenerator(benchmark="kvstore", vectorized=True)
    with pytest.raises(WorkloadError):
        WorkloadGenerator(benchmark="smallbank", vectorized=True, vector_batch=0)


def test_numpy_is_imported_on_first_block_draw_only():
    """Importing the engine or the service must not pull the accelerator in.

    A ``repro-serve`` process and a scalar simulation never call it; the
    first block draw (or the process-mode executor, before it forks) does.
    """
    code = ("import repro.core, repro.service.serve, sys\n"
            "assert 'numpy' not in sys.modules, 'numpy imported at import time'\n"
            "from repro.workloads import vectorized\n"
            "from repro.workloads.generator import WorkloadGenerator\n"
            "WorkloadGenerator(num_keys=100, seed=1).batch(40)\n"
            "assert 'numpy' not in sys.modules, 'scalar stream imported numpy'\n"
            "WorkloadGenerator(num_keys=100, seed=1, vectorized=True).batch(40)\n"
            "assert ('numpy' in sys.modules) == vectorized.numpy_available()\n")
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(vectorized.__file__))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
