"""Canonical-fingerprint tests: mirror collisions and search hit rate.

The canonical key is checked against the written-order key (each
operation rendered as written, commutative operands unsorted), which the
tests compute themselves: the canonical key must merge every pair the
written-order key merges, and mirror pairs merge only under it.
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    AlphaEvaluator,
    AlphaProgram,
    CandidateScorer,
    Dimensions,
    EvolutionConfig,
    FingerprintCache,
    INPUT_MATRIX,
    Operand,
    Operation,
    PREDICTION,
    domain_expert_alpha,
    fingerprint,
)
from repro.core.pruning import prune_program
from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset
from repro.parallel import IslandEvolutionController

S2, S3 = Operand.scalar(2), Operand.scalar(3)


def written_order_key(program):
    """The key of ``program`` with every operation rendered as written."""
    text = "|".join(
        f"{component}:" + ";".join(op.render() for op in operations)
        for component, operations in program.components().items()
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mirrored_pair():
    """Two programs identical up to commutative operand order."""
    def build(first, second):
        return AlphaProgram(
            setup=[],
            predict=[
                Operation.make("get_scalar", (INPUT_MATRIX,), S2,
                               {"row": 0, "col": 2}),
                Operation.make("get_scalar", (INPUT_MATRIX,), S3,
                               {"row": 1, "col": 2}),
                Operation.make("s_add", (first, second), PREDICTION),
            ],
            update=[],
        )

    return build(S2, S3), build(S3, S2)


class TestMirroredPrograms:
    def test_structural_key_canonicalizes(self):
        left, right = mirrored_pair()
        assert left.structural_key() == right.structural_key()
        assert written_order_key(left) != written_order_key(right)
        assert left == right

    def test_canonical_fingerprint_collides(self):
        left, right = mirrored_pair()
        assert fingerprint(left) == fingerprint(right)
        assert written_order_key(left) != written_order_key(right)

    def test_mirrored_pair_shares_cache_entry(self):
        """Regression: mirrors must stop consuming duplicate evaluations."""
        left, right = mirrored_pair()
        cache = FingerprintCache()
        _, key, cached = cache.prepare(left)
        assert cached is None
        from repro.core.fitness import FitnessReport
        cache.record(key, FitnessReport(fitness=0.25, ic_valid=0.25,
                                        daily_ic_valid=np.empty(0), is_valid=True))
        _, _, hit = cache.prepare(right)
        assert hit is not None and hit.fitness == 0.25
        assert cache.stats.fingerprint_hits == 1

    def test_scorer_evaluates_mirror_once(self, small_taskset):
        left, right = mirrored_pair()
        scorer = CandidateScorer(
            AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        )
        reports = scorer.score_batch([left, right])
        assert scorer.cache.stats.evaluated == 1
        assert scorer.cache.stats.fingerprint_hits == 1
        assert reports[0].fitness == reports[1].fitness


@pytest.fixture(scope="module")
def tiny_taskset():
    market = SyntheticMarket(MarketConfig(num_stocks=12, num_days=160), seed=9)
    return build_taskset(market.generate(), split=Split(train=60, valid=20, test=20))


def mirror(program):
    """``program`` pruned, with the operands of its first commutative
    two-input operation swapped; ``None`` when it has none to swap."""
    pruned = prune_program(program)
    if pruned.is_redundant:
        return None
    components = {name: list(ops) for name, ops in pruned.program.components().items()}
    for ops in components.values():
        for index, op in enumerate(ops):
            if op.spec.commutative and len(op.inputs) == 2 and \
                    op.inputs[0] != op.inputs[1]:
                ops[index] = Operation(op=op.op, inputs=op.inputs[::-1],
                                       output=op.output, params=op.params)
                return AlphaProgram(**components)
    return None


def keys_by_canonical_key(programs):
    """Canonical fingerprint → the written-order keys of the pruned,
    non-redundant ``programs`` that fall under it."""
    keys = {}
    for program in programs:
        pruned = prune_program(program)
        if not pruned.is_redundant:
            keys.setdefault(fingerprint(pruned.program), set()).add(
                written_order_key(pruned.program))
    return keys


class TestSearchHitRate:
    """Acceptance: canonical fingerprints raise the cache hit rate of a
    seeded evolutionary search over written-order keys, by one hit per
    written-order key they merge.
    """

    def run_search(self, taskset, seed=13, budget=400):
        """Cache stats of a seeded one-island search, and every program it
        handed its scorer, in order."""
        dims = Dimensions(taskset.num_features, taskset.window)
        controller = IslandEvolutionController(
            evaluator=AlphaEvaluator(taskset, seed=0, max_train_steps=5),
            dims=dims,
            config=EvolutionConfig(population_size=12, tournament_size=4,
                                   max_candidates=budget),
            seed=seed,
        )
        scorer = controller.scorer
        stream = []
        score_batch = scorer.score_batch

        def recording(programs):
            stream.extend(programs)
            return score_batch(programs)

        scorer.score_batch = recording
        result = controller.run(domain_expert_alpha(dims))
        return result.cache_stats, stream

    def test_canonical_strictly_increases_hit_rate(self, tiny_taskset):
        """A search's candidate stream plus a mirror of each candidate that
        has one: canonical keys merge every mirror pair, so they gain
        exactly one hit per written-order key they merge, whatever the
        seed."""
        _, stream = self.run_search(tiny_taskset)
        # A search may propose no candidate with a commutative operation to
        # mirror; one known pair keeps the gain strict for every seed.
        originals = stream + [mirrored_pair()[0]]
        pairs = [(index, image) for index, image in enumerate(map(mirror, originals))
                 if image is not None]
        candidates = originals + [image for _, image in pairs]
        written_keys_of = keys_by_canonical_key(candidates)
        # every written-order key falls into exactly one canonical key
        written_keys = set().union(*written_keys_of.values())
        assert sum(map(len, written_keys_of.values())) == len(written_keys)
        merged = len(written_keys) - len(written_keys_of)
        assert merged > 0

        scorer = CandidateScorer(
            AlphaEvaluator(tiny_taskset, seed=0, max_train_steps=5))
        reports = scorer.score_batch(candidates)
        canonical = scorer.cache.stats
        # Written-order keys would evaluate each of their keys once and
        # hit on every other non-redundant candidate.
        written_evaluated = len(written_keys)
        written_hits = len(candidates) - canonical.redundant_alphas - written_evaluated
        assert canonical.searched == len(candidates)
        assert canonical.evaluated == len(written_keys_of)
        assert canonical.fingerprint_hits - written_hits == merged
        assert written_evaluated - canonical.evaluated == merged
        # each mirror reuses its original's canonical cache entry
        for offset, (index, _) in enumerate(pairs):
            assert reports[len(originals) + offset].fitness == reports[index].fitness

    def test_hit_rate_never_decreases_across_seeds(self, tiny_taskset):
        """In every seeded search, the cache's hits are exactly what its
        canonical keys predict, and each canonical key covers one or more
        written-order keys: written-order keys could only hit less."""
        for seed in (1, 5, 13):
            stats, stream = self.run_search(tiny_taskset, seed=seed, budget=150)
            written_keys_of = keys_by_canonical_key(stream)
            written_keys = set().union(*written_keys_of.values())
            assert sum(map(len, written_keys_of.values())) == len(written_keys)
            non_redundant = stats.searched - stats.redundant_alphas
            assert stats.evaluated == len(written_keys_of)
            assert stats.fingerprint_hits == non_redundant - len(written_keys_of)
            assert non_redundant - len(written_keys) <= stats.fingerprint_hits
