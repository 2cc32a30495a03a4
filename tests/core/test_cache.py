"""Tests for the pruning + fingerprint cache."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    AlphaProgram,
    CandidateScorer,
    FingerprintCache,
    INPUT_MATRIX,
    Mutator,
    Operand,
    Operation,
    PREDICTION,
    domain_expert_alpha,
    fingerprint,
    get_initialization,
    prune_program,
)
from repro.core import cache as cache_module
from repro.core.fitness import FitnessReport
from strategies import mutation_chains


def expert(dims):
    return domain_expert_alpha(dims)


def expert_with_redundant_op(dims):
    program = domain_expert_alpha(dims)
    program.predict.insert(
        0, Operation.make("s_abs", (Operand.scalar(7),), Operand.scalar(8))
    )
    return program


def redundant_program():
    return AlphaProgram(
        setup=[Operation.make("s_const", (), Operand.scalar(2), {"constant": 1.0})],
        predict=[Operation.make("s_abs", (Operand.scalar(2),), PREDICTION)],
        update=[Operation.make("s_const", (), Operand.scalar(3), {"constant": 0.0})],
    )


def make_report(fitness=0.5):
    return FitnessReport(fitness=fitness, ic_valid=fitness,
                         daily_ic_valid=np.empty(0), is_valid=True)


class TestFingerprint:
    def test_stable(self, dims):
        assert fingerprint(expert(dims)) == fingerprint(expert(dims))

    def test_differs_for_different_programs(self, dims):
        a = expert(dims)
        b = expert(dims)
        b.predict.pop()
        assert fingerprint(a) != fingerprint(b)

    def test_pruned_programs_collide(self, dims):
        """Alphas differing only in redundant operations share a fingerprint."""
        plain = prune_program(expert(dims)).program
        noisy = prune_program(expert_with_redundant_op(dims)).program
        assert fingerprint(plain) == fingerprint(noisy)


class TestFingerprintCache:
    def test_miss_then_hit(self, dims):
        cache = FingerprintCache()
        _, key, cached = cache.prepare(expert(dims))
        assert cached is None
        cache.record(key, make_report(0.4))
        _, _, second = cache.prepare(expert(dims))
        assert second is not None
        assert second.fitness == 0.4
        assert cache.stats.evaluated == 1
        assert cache.stats.fingerprint_hits == 1

    def test_redundant_alpha_short_circuits(self, dims):
        cache = FingerprintCache()
        _, key, cached = cache.prepare(redundant_program())
        assert key is None
        assert cached is not None
        assert not cached.is_valid
        assert cache.stats.redundant_alphas == 1

    def test_redundant_operations_share_entry(self, dims):
        cache = FingerprintCache()
        _, key, _ = cache.prepare(expert(dims))
        cache.record(key, make_report(0.7))
        _, _, cached = cache.prepare(expert_with_redundant_op(dims))
        assert cached is not None
        assert cached.fitness == 0.7

    def test_pruned_operation_counter(self, dims):
        cache = FingerprintCache()
        cache.prepare(expert_with_redundant_op(dims))
        # the inserted junk op plus the two placeholder setup/update constants
        assert cache.stats.pruned_operations == 3

    def test_disabled_cache_never_prunes_or_hits(self, dims):
        cache = FingerprintCache(enabled=False)
        prune_result, key, cached = cache.prepare(expert(dims))
        assert prune_result is None and key is None and cached is None
        cache.record(key, make_report())
        assert cache.stats.evaluated == 1
        assert len(cache) == 0

    def test_searched_counts_all_dispatch_paths(self, dims):
        cache = FingerprintCache()
        _, key, _ = cache.prepare(expert(dims))
        cache.record(key, make_report())
        cache.prepare(expert(dims))            # hit
        cache.prepare(redundant_program())     # redundant
        assert cache.stats.searched == 3
        assert cache.stats.skipped == 2
        as_dict = cache.stats.as_dict()
        assert as_dict["searched"] == 3
        assert as_dict["evaluated"] == 1

    def test_clear_keeps_stats(self, dims):
        cache = FingerprintCache()
        _, key, _ = cache.prepare(expert(dims))
        cache.record(key, make_report())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.evaluated == 1


    def test_clear_drops_memoised_keys(self, dims):
        cache = FingerprintCache()
        cache.prepare(expert(dims))
        assert cache.keyed == 1
        cache.clear()
        assert cache.keyed == 0


# ---------------------------------------------------------------------------
# The per-search fingerprint memo: a lookup never changes a key
# ---------------------------------------------------------------------------

S2, S3, S4 = Operand.scalar(2), Operand.scalar(3), Operand.scalar(4)


def scaled_by_constant(constant):
    """``s1 = m0[0, 12] * s2`` with ``s2 = s_const(constant)`` in Setup."""
    return AlphaProgram(
        setup=[Operation.make("s_const", (), S2, {"constant": constant})],
        predict=[
            Operation.make("get_scalar", (INPUT_MATRIX,), S3, {"row": 0, "col": 12}),
            Operation.make("s_mul", (S3, S2), PREDICTION),
        ],
    )


def uniform_weighted(low):
    """The mean of ``m0`` weighted by a ``matrix_uniform(low, 1.0)`` draw."""
    weights, weighted = Operand.matrix(1), Operand.matrix(2)
    return AlphaProgram(
        setup=[Operation.make("matrix_uniform", (), weights,
                              {"low": low, "high": 1.0})],
        predict=[
            Operation.make("m_mul", (INPUT_MATRIX, weights), weighted),
            Operation.make("m_mean", (weighted,), PREDICTION),
        ],
    )


def mirrored(op, first, second):
    """``s1 = op(first, second)`` over two scalars read from ``m0``."""
    return AlphaProgram(predict=[
        Operation.make("get_scalar", (INPUT_MATRIX,), S2, {"row": 0, "col": 12}),
        Operation.make("get_scalar", (INPUT_MATRIX,), S3, {"row": 2, "col": 12}),
        Operation.make(op, (first, second), PREDICTION),
    ])


def direct_key(program):
    """The fingerprint computed without the memo."""
    return fingerprint(prune_program(program).program)


#: Pairs whose operations compare (and hash) equal, yet whose fingerprints
#: differ: a memo keyed on ``Operation`` equality would hand the second the
#: first one's key.  ``init_rng`` seeds ``-0.0`` and ``+0.0`` bounds apart.
EQUAL_OPERATIONS_OTHER_KEYS = {
    "s_const -0.0 vs +0.0": (scaled_by_constant(-0.0), scaled_by_constant(0.0)),
    "matrix_uniform low -0.0 vs +0.0": (uniform_weighted(-0.0),
                                        uniform_weighted(0.0)),
    "s_const 1 vs 1.0": (scaled_by_constant(1), scaled_by_constant(1.0)),
    "s_const np.float64 vs float": (scaled_by_constant(np.float64(0.5)),
                                    scaled_by_constant(0.5)),
}


class TestFingerprintMemo:
    @pytest.mark.parametrize("first, second",
                             EQUAL_OPERATIONS_OTHER_KEYS.values(),
                             ids=EQUAL_OPERATIONS_OTHER_KEYS)
    def test_equal_operations_keep_their_own_keys(self, first, second):
        assert first.setup[0] == second.setup[0]
        assert hash(first.setup[0]) == hash(second.setup[0])
        assert first.setup[0].exact_key != second.setup[0].exact_key
        assert direct_key(first) != direct_key(second)
        cache = FingerprintCache()
        for program in (first, second, first, second):
            assert cache.prepare(program)[1] == direct_key(program)
        assert cache.keyed == 2

    def test_mirrored_min_keeps_two_keys(self):
        first, second = mirrored("s_min", S2, S3), mirrored("s_min", S3, S2)
        assert direct_key(first) != direct_key(second)
        cache = FingerprintCache()
        for program in (first, second, second, first):
            assert cache.prepare(program)[1] == direct_key(program)
        assert cache.keyed == 2

    def test_renamed_registers_share_one_key(self):
        """The exact key sees a renamed intermediate; the pipeline does not."""
        first = mirrored("s_add", S2, S3)
        second = AlphaProgram(predict=[
            Operation.make("get_scalar", (INPUT_MATRIX,), S4, {"row": 0, "col": 12}),
            Operation.make("get_scalar", (INPUT_MATRIX,), S3, {"row": 2, "col": 12}),
            Operation.make("s_add", (S4, S3), PREDICTION),
        ])
        assert first.exact_key() != second.exact_key()
        cache = FingerprintCache()
        keys = {cache.prepare(program)[1] for program in (first, second, first)}
        assert keys == {direct_key(first)} == {direct_key(second)}
        assert cache.keyed == 2

    @settings(max_examples=60)
    @given(chain=mutation_chains(max_length=30))
    def test_memoised_keys_equal_direct_keys(self, chain):
        """On first sight and on every repeat, ``prepare`` returns the key
        of the pruned program, and repeats run no pipeline."""
        cache = FingerprintCache()
        distinct = set()
        for _ in range(2):
            for program in chain:
                result, key, _ = cache.prepare(program)
                if result.is_redundant:
                    assert key is None
                    continue
                assert key == fingerprint(result.program)
                distinct.add(result.program.exact_key())
            assert cache.keyed == len(distinct)


def repeating_stream(dims, count=48):
    """Candidates whose pruned programs repeat: the four initialisations,
    then mutants of earlier non-redundant candidates (many change only
    dead code), and the whole stream again in reverse."""
    mutator = Mutator(dims, seed=7)
    stream = [get_initialization(code, dims, seed=3)
              for code in ("D", "NOOP", "R", "NN")]
    parents = [program for program in stream
               if not prune_program(program).is_redundant]
    while len(stream) < count:
        child = mutator.mutate(parents[int(mutator.rng.integers(len(parents)))])
        stream.append(child)
        if not prune_program(child).is_redundant:
            parents.append(child)
    return stream + stream[::-1]


class TestMemoCounts:
    @staticmethod
    def score(evaluator, stream):
        """Score the stream's first half as one batch, the rest one by one."""
        scorer = CandidateScorer(evaluator)
        half = len(stream) // 2
        reports = scorer.score_batch(stream[:half])
        reports += [scorer.score(program) for program in stream[half:]]
        return scorer, reports

    def test_pipeline_runs_once_per_distinct_pruned_program(
            self, evaluator, dims, monkeypatch):
        stream = repeating_stream(dims)
        pruned = [prune_program(program) for program in stream]
        distinct = {result.program.exact_key() for result in pruned
                    if not result.is_redundant}
        keyable = sum(not result.is_redundant for result in pruned)
        assert len(distinct) < keyable  # the stream does repeat

        keyed = []
        real_fingerprint = cache_module.fingerprint

        def counting_fingerprint(program):
            keyed.append(program.exact_key())
            return real_fingerprint(program)

        monkeypatch.setattr(cache_module, "fingerprint", counting_fingerprint)
        scorer, reports = self.score(evaluator, stream)
        assert len(keyed) == len(set(keyed)) == len(distinct)
        assert scorer.cache.keyed == len(distinct)

        # The reference keys every candidate: no exact key ever repeats.
        keyed.clear()
        monkeypatch.setattr(AlphaProgram, "exact_key", lambda self: object())
        direct, direct_reports = self.score(evaluator, stream)
        assert len(keyed) == keyable
        assert scorer.cache.stats == direct.cache.stats
        assert len(scorer.cache) == len(direct.cache)
        assert [pickle.dumps(report) for report in reports] == \
            [pickle.dumps(report) for report in direct_reports]

        scorer.reset()
        assert scorer.cache.keyed == 0
