"""Canonical-fingerprint tests: mirror collisions and search hit rate."""

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
        assert left.structural_key(canonical=False) != \
            right.structural_key(canonical=False)
        assert left == right

    def test_canonical_fingerprint_collides(self):
        left, right = mirrored_pair()
        assert fingerprint(left) == fingerprint(right)
        assert fingerprint(left, canonical=False) != \
            fingerprint(right, canonical=False)

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

    def test_legacy_cache_misses_mirror(self):
        left, right = mirrored_pair()
        cache = FingerprintCache(canonical=False)
        _, key, _ = cache.prepare(left)
        from repro.core.fitness import FitnessReport
        cache.record(key, FitnessReport(fitness=0.25, ic_valid=0.25,
                                        daily_ic_valid=np.empty(0), is_valid=True))
        _, _, hit = cache.prepare(right)
        assert hit is None

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


class TestSearchHitRate:
    """Acceptance: canonical fingerprints raise the cache hit rate of a
    seeded evolutionary search versus the historical fingerprint, by one hit
    per historical key they merge.
    """

    def run_search(self, taskset, canonical, seed=13, budget=400):
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
        scorer.canonical_fingerprint = canonical
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
        exactly one hit per historical key they merge, whatever the seed."""
        _, stream = self.run_search(tiny_taskset, canonical=True)
        # A search may propose no candidate with a commutative operation to
        # mirror; one known pair keeps the gain strict for every seed.
        originals = stream + [mirrored_pair()[0]]
        pairs = [(index, image) for index, image in enumerate(map(mirror, originals))
                 if image is not None]
        candidates = originals + [image for _, image in pairs]
        legacy_keys_of = {}
        for program in candidates:
            pruned = prune_program(program)
            if not pruned.is_redundant:
                legacy_keys_of.setdefault(fingerprint(pruned.program), set()).add(
                    fingerprint(pruned.program, canonical=False))
        # every historical key falls into exactly one canonical key
        legacy_keys = set().union(*legacy_keys_of.values())
        assert sum(map(len, legacy_keys_of.values())) == len(legacy_keys)
        merged = len(legacy_keys) - len(legacy_keys_of)
        assert merged > 0

        def score(canonical):
            scorer = CandidateScorer(
                AlphaEvaluator(tiny_taskset, seed=0, max_train_steps=5),
                canonical_fingerprint=canonical,
            )
            return scorer.score_batch(candidates), scorer.cache.stats

        _, legacy = score(canonical=False)
        reports, canonical = score(canonical=True)
        assert canonical.searched == legacy.searched == len(candidates)
        assert canonical.fingerprint_hits - legacy.fingerprint_hits == merged
        assert legacy.evaluated - canonical.evaluated == merged
        assert canonical.fingerprint_hits / canonical.searched > \
            legacy.fingerprint_hits / legacy.searched
        # each mirror reuses its original's canonical cache entry
        for offset, (index, _) in enumerate(pairs):
            assert reports[len(originals) + offset].fitness == reports[index].fitness

    def test_hit_rate_never_decreases_across_seeds(self, tiny_taskset):
        """Canonical keys only merge render-identical keys further."""
        for seed in (1, 5, 13):
            legacy, _ = self.run_search(tiny_taskset, canonical=False,
                                        seed=seed, budget=150)
            canonical, _ = self.run_search(tiny_taskset, canonical=True,
                                           seed=seed, budget=150)
            assert canonical.fingerprint_hits >= legacy.fingerprint_hits
