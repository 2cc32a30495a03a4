"""Fingerprint cache for candidate alphas (Section 4.2).

AutoML-Zero fingerprints a candidate by its predictions on a small sample set,
which requires (partially) evaluating it.  The paper's optimisation instead
fingerprints the candidate *without evaluation*: redundant operations are
pruned first, the remaining operations are rendered into a canonical string,
and that string is hashed.  Here the string is the rendering of the IR the
compiled tape executes, so the fingerprint is the pruned program's tape
key.  If the fingerprint is already in the cache the stored fitness score
is reused; otherwise the alpha is evaluated and the score is stored.

The cache also counts how many candidates were handled without evaluation —
redundant alphas and fingerprint hits — which is what Table 6 reports as the
benefit of the technique (number of searched alphas = pruned + evaluated).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fitness import FitnessReport
from .program import AlphaProgram
from .pruning import PruneResult, prune_program

__all__ = ["CacheStats", "FingerprintCache", "fingerprint"]


def fingerprint(program: AlphaProgram) -> str:
    """Hash the canonical string of a (pruned) program.

    The key is the program's tape key
    (:func:`~repro.compile.executor.tape_key_for` of
    :func:`~repro.compile.tape_ir`, the IR the compiled tape executes):
    values proven zero from zero-initialised memory are replaced by
    canonical zeros, scalar constants folded, duplicated subexpressions
    merged and values named by position, so equivalent programs — e.g.
    ``v4 = v11 + v8`` in ``Setup()`` vs a never-written ``v4``, or two
    spellings that differ only in an intermediate register — share one
    fingerprint and never consume duplicate evaluations.  Operand order is
    kept as written.  Equal keys mean the same tape, so bit-for-bit equal
    predictions, which is what lets a hit reuse the stored report.

    Cost: a search keys each distinct pruned program once
    (:class:`FingerprintCache` looks repeats up).  In two traced runs of
    the perfbench ``mine`` workload (seed 11, a 2-CPU x86-64 host) that
    was 1,494 keys for 6,013 non-redundant candidates, 0.50-0.64 s in
    all against 1.20-1.57 s when every such candidate was keyed, or
    0.33-0.43 ms per key against 4.0-5.4 ms per evaluation.  A first
    sighting costs more than a repeat did (0.31 against 0.17 ms in
    process: a repeat ran on warm data), so the lookups save about 60% of
    the key time, not 75%.
    """
    # Imported lazily: repro.compile depends on repro.core submodules.
    from ..compile import tape_ir, tape_key_for

    return tape_key_for(tape_ir(program))


@dataclass
class CacheStats:
    """Counters describing how candidates were dispatched."""

    evaluated: int = 0
    fingerprint_hits: int = 0
    redundant_alphas: int = 0
    pruned_operations: int = 0

    @property
    def searched(self) -> int:
        """Total number of candidate alphas processed (Table 6's metric)."""
        return self.evaluated + self.fingerprint_hits + self.redundant_alphas

    @property
    def skipped(self) -> int:
        """Candidates that never reached the (expensive) evaluator."""
        return self.fingerprint_hits + self.redundant_alphas

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view used by experiment reports."""
        return {
            "evaluated": self.evaluated,
            "fingerprint_hits": self.fingerprint_hits,
            "redundant_alphas": self.redundant_alphas,
            "pruned_operations": self.pruned_operations,
            "searched": self.searched,
        }


@dataclass
class FingerprintCache:
    """Cache of fitness reports keyed by pruned-program fingerprints.

    A search prunes many candidates back to a program it has already keyed
    (a mutation that lands in dead code prunes back to its parent), so
    the cache also memoises each pruned program's fingerprint under its
    exact identity (:meth:`~repro.core.program.AlphaProgram.exact_key`):
    the compile pipeline runs once per distinct pruned program, and
    every later sighting costs a lookup; :meth:`clear` drops the memo.
    A cache lives in the process of the scorer that owns it: checkpoints
    and pool dispatches never carry one (:mod:`repro.parallel`).

    Parameters
    ----------
    enabled:
        When False the cache neither prunes nor memoises — candidates always
        go to the evaluator.  This is the ``*_N`` ablation of Table 6 (the
        baseline then fingerprints by predictions, i.e. only after paying the
        evaluation cost, so nothing is saved).
    """

    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: dict[str, FitnessReport] = field(default_factory=dict)
    _keys: dict[tuple, str] = field(default_factory=dict, init=False,
                                    repr=False, compare=False)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def keyed(self) -> int:
        """Distinct pruned programs keyed so far: one pipeline run each."""
        return len(self._keys)

    # ------------------------------------------------------------------
    def prepare(self, program: AlphaProgram) -> tuple[PruneResult | None, str | None,
                                                      FitnessReport | None]:
        """Prune + fingerprint ``program`` and look it up.

        Returns ``(prune_result, fingerprint, cached_report)``.  When the
        cache is disabled all three are ``None`` and the caller must evaluate
        the candidate directly.  When the candidate is redundant, a synthetic
        invalid report is returned (and counted) without touching the
        evaluator.
        """
        if not self.enabled:
            return None, None, None
        result = prune_program(program)
        self.stats.pruned_operations += result.removed_operations
        if result.is_redundant:
            self.stats.redundant_alphas += 1
            return result, None, FitnessReport.invalid("redundant alpha (pruned)")
        identity = result.program.exact_key()
        key = self._keys.get(identity)
        if key is None:
            key = self._keys[identity] = fingerprint(result.program)
        cached = self._entries.get(key)
        if cached is not None:
            self.stats.fingerprint_hits += 1
            return result, key, cached
        return result, key, None

    def record(self, key: str | None, report: FitnessReport) -> None:
        """Store the report of a freshly evaluated candidate."""
        self.stats.evaluated += 1
        if self.enabled and key is not None:
            self._entries[key] = report

    def seed(self, entries) -> None:
        """Store ``(key, report)`` pairs scored elsewhere, uncounted."""
        if self.enabled:
            for key, report in entries:
                self._entries.setdefault(key, report)

    def clear(self) -> None:
        """Drop all cached entries and memoised keys (the statistics are kept)."""
        self._entries.clear()
        self._keys.clear()
