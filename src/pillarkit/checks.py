"""Batch property suites: invariance, sort contract, and reduction identities.

These are the machine-checkable guarantees of the descriptor stage. Each suite
generates its own random cells, runs the relevant comparison at zero
tolerance, and reports case/failure counts. The CLI ``prop-test`` command and
the acceptance tests both drive these functions; only the case counts differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptor import (
    DESCRIPTOR_KINDS,
    AggregationWeights,
    MlpParams,
    descriptor_forward,
)
from .errors import ValidationError
from .gridding import cell_batch_from_arrays

N_CHOICES = (5, 32)  # slots per cell, drawn per block
BLOCK_SIZE = 50  # cells per block


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_doc(self) -> dict:
        return {
            "suite": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "passed": self.passed,
        }


def _random_blocks(num_cells: int, seed: int, c_max: int):
    """Yield (rng, data, counts, params, weights) blocks of random cells.

    Cells within a block share N, drawn from ``N_CHOICES``, and C, the
    embedded width in 1..``c_max``, so the whole block can run batched, and
    every block holds each fill level 1..N at least once, so each fill-level
    group of the ragged descriptor is exercised. Alternating blocks use the
    identity embedding and a random one-layer ReLU MLP, so the suites cover
    the descriptor with and without ``h``.
    """
    made = 0
    block = 0
    while made < num_cells:
        rng = np.random.default_rng([seed, block])
        n = int(rng.choice(N_CHOICES))
        k = max(min(BLOCK_SIZE, num_cells - made), n)
        c_embed = int(rng.integers(1, c_max + 1))
        if block % 2 == 0:
            c_in = c_embed
            params = MlpParams([])
        else:
            c_in = int(rng.integers(2, 10))
            params = MlpParams.create(c_in, (c_embed,), activation="relu", seed=block)
        data = rng.standard_normal((k, n, c_in))
        counts = rng.permutation(
            np.concatenate([np.arange(1, n + 1), rng.integers(1, n + 1, size=k - n)])
        )
        weights = AggregationWeights(rng.standard_normal(n))
        yield rng, data, counts, params, weights
        made += k
        block += 1


def _shuffle_valid_slots(
    data: np.ndarray, counts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    out = data.copy()
    for k in range(data.shape[0]):
        n_valid = int(counts[k])
        out[k, :n_valid] = data[k, rng.permutation(n_valid)]
    return out


def run_invariance_suite(num_cells: int = 1000, shuffles: int = 20, seed: int = 0) -> SuiteResult:
    """Descriptor outputs of every kind must be bitwise unchanged under valid-slot shuffles."""
    cases = failures = 0
    for rng, data, counts, params, weights in _random_blocks(num_cells, seed, c_max=64):
        batch = cell_batch_from_arrays(data, counts)
        reference = {
            kind: descriptor_forward(
                params, weights if kind == "weighted" else None, batch, kind, need_cache=False
            )[0]
            for kind in DESCRIPTOR_KINDS
        }
        for _ in range(shuffles):
            shuffled = cell_batch_from_arrays(_shuffle_valid_slots(data, counts, rng), counts)
            for kind in DESCRIPTOR_KINDS:
                w = weights if kind == "weighted" else None
                features, _ = descriptor_forward(params, w, shuffled, kind, need_cache=False)
                same = np.all(
                    features.view(np.uint64) == reference[kind].view(np.uint64), axis=1
                )
                cases += features.shape[0]
                failures += int(features.shape[0] - same.sum())
    return SuiteResult("permutation-invariance", cases, failures)


def run_sorted_contract_suite(num_cells: int = 1000, seed: int = 1) -> SuiteResult:
    """The dense sorted matrices of a batched forward, at every fill level.

    Per cell: padding rows first and zero, occupied rows bitwise equal to an
    independent ascending sort of the cell's embedded valid slots (columns
    non-decreasing, multisets preserved). Where the backward reads ranks (the
    blocks with an MLP), each cell's ranks are a bijection per channel, and
    scattering its embedded rows to their ranks gives its sorted rows bitwise.
    """
    cases = failures = 0
    for _, data, counts, params, weights in _random_blocks(num_cells, seed, c_max=16):
        _, cache = descriptor_forward(params, weights, cell_batch_from_arrays(data, counts))
        n = data.shape[1]
        expected = np.full((data.shape[0], n, cache.embedded.shape[1]), np.inf)
        for group in cache.groups:
            expected[group.cells, : group.count] = group.block(cache.embedded)
        expected = np.sort(expected, axis=1)  # occupied values ascending, padding last
        row = np.arange(n)[None, :]
        pad = n - counts[:, None]
        rotate = (row - pad) % n  # move the padding rows first
        expected = np.take_along_axis(expected, rotate[:, :, None], axis=1)
        expected[row < pad] = 0.0
        ok = np.all(cache.sorted_values.view(np.uint64) == expected.view(np.uint64), axis=(1, 2))
        for group in cache.groups:
            if group.rank is None:  # the identity embedding routes no gradient
                continue
            slots = np.arange(group.count)[:, None]
            bijective = (np.sort(group.rank, axis=1) == slots).all(axis=(1, 2))
            scattered = np.zeros_like(group.values)
            np.put_along_axis(scattered, group.rank, group.block(cache.embedded), axis=1)
            same = scattered.view(np.uint64) == group.values.view(np.uint64)
            ok[group.cells] &= bijective & same.all(axis=(1, 2))
        cases += ok.size
        failures += int(ok.size - ok.sum())
    return SuiteResult("sorted-matrix-contract", cases, failures)


def run_max_special_case_suite(num_cells: int = 1000, seed: int = 2) -> SuiteResult:
    """Unit weight on the last sorted row must equal max pooling bitwise.

    Blocks here always embed through a ReLU MLP (the default configuration),
    so the identity holds on partially filled cells too.
    """
    cases = failures = 0
    for _, data, counts, params, _ in _random_blocks(num_cells, seed, c_max=32):
        if not params.layers:
            params = MlpParams.create(data.shape[2], (8,), activation="relu", seed=seed)
        n = data.shape[1]
        unit = AggregationWeights.max_pool_init(n)
        batch = cell_batch_from_arrays(data, counts)
        weighted, _ = descriptor_forward(params, unit, batch, "weighted", need_cache=False)
        pooled, _ = descriptor_forward(params, None, batch, "max", need_cache=False)
        same = np.all(weighted.view(np.uint64) == pooled.view(np.uint64), axis=1)
        cases += weighted.shape[0]
        failures += int(weighted.shape[0] - same.sum())
    return SuiteResult("max-pool-special-case", cases, failures)


def run_mean_consistency_suite(num_cells: int = 1000, seed: int = 3) -> SuiteResult:
    """Uniform 1/n weights on the occupied rows must equal the mean exactly.

    Weights are shared by a batch, so each fill level n of a block runs the
    weighted descriptor with those weights over the whole block, and its
    n-point cells are compared with the same cells of one mean pass.
    """
    cases = failures = 0
    for _, data, counts, params, _ in _random_blocks(num_cells, seed, c_max=32):
        batch = cell_batch_from_arrays(data, counts)
        means, _ = descriptor_forward(params, None, batch, "mean", need_cache=False)
        n = data.shape[1]
        for level in np.unique(counts):
            w = np.zeros(n)
            w[n - level :] = 1.0 / level
            via_weighted, _ = descriptor_forward(
                params, AggregationWeights(w), batch, need_cache=False
            )
            cells = counts == level
            same = np.all(
                via_weighted[cells].view(np.uint64) == means[cells].view(np.uint64), axis=1
            )
            cases += same.size
            failures += int(same.size - same.sum())
    return SuiteResult("mean-consistency", cases, failures)


def run_property_suites(
    num_cells: int = 300,
    shuffles: int = 5,
    seed: int = 0,
) -> list[SuiteResult]:
    if num_cells < 1 or shuffles < 1:  # a suite of zero cases would pass vacuously
        raise ValidationError("num_cells and shuffles must be >= 1")
    return [
        run_invariance_suite(num_cells=num_cells, shuffles=shuffles, seed=seed),
        run_sorted_contract_suite(num_cells=num_cells, seed=seed + 1),
        run_max_special_case_suite(num_cells=num_cells, seed=seed + 2),
        run_mean_consistency_suite(num_cells=num_cells, seed=seed + 3),
    ]
