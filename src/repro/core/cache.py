"""Fingerprint cache for candidate alphas (Section 4.2).

AutoML-Zero fingerprints a candidate by its predictions on a small sample set,
which requires (partially) evaluating it.  The paper's optimisation instead
fingerprints the candidate *without evaluation*: redundant operations are
pruned first, the remaining operations are rendered into a canonical string,
and that string is hashed.  If the fingerprint is already in the cache the
stored fitness score is reused; otherwise the alpha is evaluated and the
score is stored.

The cache also counts how many candidates were handled without evaluation —
redundant alphas and fingerprint hits — which is what Table 6 reports as the
benefit of the technique (number of searched alphas = pruned + evaluated).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .fitness import FitnessReport
from .program import AlphaProgram
from .pruning import PruneResult, prune_program

__all__ = ["CacheStats", "FingerprintCache", "fingerprint"]


def fingerprint(program: AlphaProgram) -> str:
    """Hash the canonical string of a (pruned) program.

    The key is the canonicalised-IR rendering from
    :func:`repro.compile.canonical_key`: commutative operands are sorted,
    scalar constants folded, duplicated subexpressions merged and values
    named by position, so trivially equivalent programs — e.g.
    ``add(s2, s3)`` vs ``add(s3, s2)`` — share one fingerprint and never
    consume duplicate evaluations.

    Cost: the canonical pipeline is ~0.3 ms per candidate on laptop-class
    hardware versus ~8 ms for one evaluation on the smoke task set, so every
    extra cache hit it produces repays its overhead ~25x.
    """
    # Imported lazily: repro.compile depends on repro.core submodules.
    from ..compile import canonical_key

    return hashlib.sha256(canonical_key(program).encode("utf-8")).hexdigest()


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

    def __len__(self) -> int:
        return len(self._entries)

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
        key = fingerprint(result.program)
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

    def clear(self) -> None:
        """Drop all cached entries (the statistics are kept)."""
        self._entries.clear()
