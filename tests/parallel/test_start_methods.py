"""A pool under the ``fork``, ``spawn`` and ``forkserver`` start methods: the
shared panel's lifecycle and bitwise parity with serial scoring.

On POSIX, CPython hands ``spawn`` and ``forkserver`` children the parent's
``resource_tracker`` (``multiprocessing/popen_spawn_posix.py``,
``multiprocessing/forkserver.py``), so the publisher and every worker
register the panel segment with one tracker, whose registry is a set.  A
worker that withdrew its attach-side registration withdrew the publisher's:
the tracker then printed ``KeyError: '/repro-panel-…'`` when the publisher
unlinked the segment, and nothing was left to unlink the segment of a
killed publisher.  Each start method runs one pool in a fresh interpreter,
because the tracker reports on the stderr of the process tree that started
it.

``spawn`` and ``forkserver`` workers also start with their own string-hash
salt, so an NN-family batch, whose initialiser draws are seeded per
operation, scores bitwise equal to serial only if those seeds do not depend
on the process.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.parallel import shared_segment_names

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Publishes a panel, scores an NN-family batch on a 1-worker pool started
#: with ``argv[1]`` and serially, closes the pool, and prints one JSON line:
#: the segment name and the fitness bits of both scorings.
SCRIPT = textwrap.dedent("""
    import json
    import sys
    from repro.core import AlphaEvaluator, Dimensions, Mutator, get_initialization
    from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset
    from repro.parallel import EvaluationPool

    market = SyntheticMarket(MarketConfig(num_stocks=12, num_days=100), seed=5)
    taskset = build_taskset(market.generate(),
                            split=Split(train=30, valid=10, test=10))
    dims = Dimensions(taskset.num_features, taskset.window)
    mutator = Mutator(dims, seed=2)
    batch = [get_initialization("NN", dims)]
    while len(batch) < 4:
        batch.append(mutator.mutate(batch[-1]))
    serial = AlphaEvaluator(taskset, seed=0, max_train_steps=5)
    pool = EvaluationPool(taskset, num_workers=1, start_method=sys.argv[1])
    pooled = pool.evaluate(batch, evaluator=serial)
    name = pool.spec.panel.name
    pool.close()
    expected = [serial.evaluate(program).report for program in batch]

    def bits(report):
        return [report.fitness.hex(), report.daily_ic_valid.tobytes().hex()]

    print(json.dumps({"segment": name,
                      "pooled": [bits(report) for report in pooled],
                      "serial": [bits(report) for report in expected]}))
""")


@pytest.fixture(scope="module", params=["fork", "spawn", "forkserver"])
def child(request):
    """One run of :data:`SCRIPT` per start method."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    # Workers must not share a pinned salt with the parent: parity has to
    # hold when every process hashes strings differently.
    env.pop("PYTHONHASHSEED", None)
    return subprocess.run(
        [sys.executable, "-c", SCRIPT, request.param],
        capture_output=True, text=True, timeout=120, cwd=REPO_ROOT, env=env,
    )


def test_pool_segment_is_unlinked_once(child):
    """The publisher's close unlinks the segment, and its tracker still
    holds the registration to withdraw: no ``KeyError`` on stderr."""
    assert child.returncode == 0, child.stderr
    name = json.loads(child.stdout)["segment"]
    assert name.startswith("repro-panel-")
    assert "KeyError" not in child.stderr, child.stderr
    assert name not in shared_segment_names()


def test_pool_scores_nn_batch_bitwise_equal_to_serial(child):
    assert child.returncode == 0, child.stderr
    scored = json.loads(child.stdout)
    assert scored["pooled"] == scored["serial"]
