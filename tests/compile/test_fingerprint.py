"""Fingerprint tests: the tape-key identity and the search hit rate.

A pruned program's fingerprint is its tape's key.  The fingerprint is
checked against the written-order key (each operation rendered as
written), which the tests compute themselves: the fingerprint must merge
every pair the written-order key merges, and pairs that differ only in the
register of an intermediate value merge only under it.
"""

import hashlib

import pytest
from hypothesis import given, settings

from repro.compile import compile_program, tape_key_for
from repro.config import DEFAULT_ADDRESS_SPACE
from repro.core import (
    AlphaEvaluator,
    AlphaProgram,
    CandidateScorer,
    Dimensions,
    EvolutionConfig,
    INPUT_MATRIX,
    Operand,
    OperandType,
    Operation,
    PREDICTION,
    domain_expert_alpha,
    fingerprint,
)
from repro.core.pruning import prune_program
from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset
from repro.parallel import IslandEvolutionController

from strategies import programs

S2, S3, S4 = Operand.scalar(2), Operand.scalar(3), Operand.scalar(4)


def written_order_key(program):
    """The key of ``program`` with every operation rendered as written."""
    text = "|".join(
        f"{component}:" + ";".join(op.render() for op in operations)
        for component, operations in program.components().items()
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def renamed_pair():
    """Two programs identical up to the register of one intermediate."""
    def build(temp):
        return AlphaProgram(
            setup=[],
            predict=[
                Operation.make("get_scalar", (INPUT_MATRIX,), temp,
                               {"row": 0, "col": 2}),
                Operation.make("get_scalar", (INPUT_MATRIX,), S3,
                               {"row": 1, "col": 2}),
                Operation.make("s_add", (temp, S3), PREDICTION),
            ],
            update=[],
        )

    return build(S2), build(S4)


class TestTapeIdentity:
    @settings(max_examples=60)
    @given(program=programs())
    def test_fingerprint_is_the_tape_key(self, program):
        """Equal keys run the same tape: a pruned program's fingerprint is
        the key of the tape it compiles to."""
        pruned = prune_program(program).program
        assert fingerprint(pruned) == tape_key_for(compile_program(pruned).ir)

    def test_renamed_pair_shares_one_tape(self):
        left, right = renamed_pair()
        assert fingerprint(left) == fingerprint(right)
        assert written_order_key(left) != written_order_key(right)
        assert compile_program(left).ir.render() == \
            compile_program(right).ir.render()


@pytest.fixture(scope="module")
def tiny_taskset():
    market = SyntheticMarket(MarketConfig(num_stocks=12, num_days=160), seed=9)
    return build_taskset(market.generate(), split=Split(train=60, valid=20, test=20))


#: Operand type → the addresses of the default address space.
ADDRESSES = {
    OperandType.SCALAR: DEFAULT_ADDRESS_SPACE.num_scalars,
    OperandType.VECTOR: DEFAULT_ADDRESS_SPACE.num_vectors,
    OperandType.MATRIX: DEFAULT_ADDRESS_SPACE.num_matrices,
}


def operands_of(operations):
    return {operand for op in operations for operand in (*op.inputs, op.output)}


def renamed(program):
    """``program`` pruned, with one intermediate register renamed to an
    address the program never uses; ``None`` when it has none to rename.

    An intermediate is written by one component before that component
    reads it and is mentioned by no other component, so no day reads its
    old value: the rename changes the written program, not its tape.
    """
    pruned = prune_program(program)
    if pruned.is_redundant:
        return None
    components = pruned.program.components()
    used = operands_of(op for ops in components.values() for op in ops)
    for name, ops in components.items():
        elsewhere = operands_of(op for other, other_ops in components.items()
                                if other != name for op in other_ops)
        for op in ops:
            temp = op.output
            first = next(o for o in ops if temp in (*o.inputs, o.output))
            free = [Operand(temp.type, index) for index in range(ADDRESSES[temp.type])
                    if Operand(temp.type, index) not in used]
            if temp == PREDICTION or temp in elsewhere or temp in first.inputs \
                    or not free:
                continue
            swap = {temp: free[0]}
            return AlphaProgram(**{**components, name: [
                Operation(op=o.op, inputs=tuple(swap.get(x, x) for x in o.inputs),
                          output=swap.get(o.output, o.output), params=o.params)
                for o in ops
            ]})
    return None


def keys_by_fingerprint(programs):
    """Fingerprint → the written-order keys of the pruned,
    non-redundant ``programs`` that fall under it."""
    keys = {}
    for program in programs:
        pruned = prune_program(program)
        if not pruned.is_redundant:
            keys.setdefault(fingerprint(pruned.program), set()).add(
                written_order_key(pruned.program))
    return keys


class TestSearchHitRate:
    """Acceptance: fingerprints raise the cache hit rate of a seeded
    evolutionary search over written-order keys, by one hit per
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
        score_detailed = scorer.score_detailed

        def recording(programs):
            stream.extend(programs)
            return score_detailed(programs)

        scorer.score_detailed = recording
        result = controller.run(domain_expert_alpha(dims))
        return result.cache_stats, stream

    def test_canonical_strictly_increases_hit_rate(self, tiny_taskset):
        """A search's candidate stream plus a copy of each candidate with
        one intermediate register renamed: fingerprints merge every renamed
        pair, so they gain exactly one hit per written-order key they
        merge, whatever the seed."""
        _, stream = self.run_search(tiny_taskset)
        # A search may propose no candidate with an intermediate to rename;
        # one known pair keeps the gain strict for every seed.
        originals = stream + [renamed_pair()[0]]
        pairs = [(index, image) for index, image in enumerate(map(renamed, originals))
                 if image is not None]
        candidates = originals + [image for _, image in pairs]
        written_keys_of = keys_by_fingerprint(candidates)
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
        # each renamed copy reuses its original's cache entry
        for offset, (index, _) in enumerate(pairs):
            assert reports[len(originals) + offset].fitness == reports[index].fitness

    def test_hit_rate_never_decreases_across_seeds(self, tiny_taskset):
        """In every seeded search, the cache's hits are exactly what its
        canonical keys predict, and each canonical key covers one or more
        written-order keys: written-order keys could only hit less."""
        for seed in (1, 5, 13):
            stats, stream = self.run_search(tiny_taskset, seed=seed, budget=150)
            written_keys_of = keys_by_fingerprint(stream)
            written_keys = set().union(*written_keys_of.values())
            assert sum(map(len, written_keys_of.values())) == len(written_keys)
            non_redundant = stats.searched - stats.redundant_alphas
            assert stats.evaluated == len(written_keys_of)
            assert stats.fingerprint_hits == non_redundant - len(written_keys_of)
            assert non_redundant - len(written_keys) <= stats.fingerprint_hits
