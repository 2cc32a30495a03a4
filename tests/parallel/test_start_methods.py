"""The shared panel's lifecycle under the ``spawn`` and ``forkserver`` start
methods.

On POSIX, CPython hands ``spawn`` and ``forkserver`` children the parent's
``resource_tracker`` (``multiprocessing/popen_spawn_posix.py``,
``multiprocessing/forkserver.py``), so the publisher and every worker
register the panel segment with one tracker, whose registry is a set.  A
worker that withdrew its attach-side registration withdrew the publisher's:
the tracker then printed ``KeyError: '/repro-panel-…'`` when the publisher
unlinked the segment, and nothing was left to unlink the segment of a
killed publisher.  Each test runs a pool in a fresh interpreter, because
the tracker reports on the stderr of the process tree that started it.

Only the segment's lifecycle is checked here, not the evaluations.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.parallel import shared_segment_names

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Publishes a panel, evaluates one batch on a 1-worker pool started with
#: ``argv[1]``, prints the segment name and closes the pool.
SCRIPT = textwrap.dedent("""
    import sys
    from repro.core import Dimensions, get_initialization
    from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset
    from repro.parallel import EvaluationPool

    market = SyntheticMarket(MarketConfig(num_stocks=12, num_days=100), seed=5)
    taskset = build_taskset(market.generate(),
                            split=Split(train=30, valid=10, test=10))
    dims = Dimensions(taskset.num_features, taskset.window)
    pool = EvaluationPool(taskset, num_workers=1, max_train_steps=5,
                          start_method=sys.argv[1])
    pool.evaluate([get_initialization("D", dims, seed=1)])
    print(pool.spec.panel.name, flush=True)
    pool.close()
""")


@pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
def test_pool_segment_is_unlinked_once(start_method):
    """The publisher's close unlinks the segment, and its tracker still
    holds the registration to withdraw: no ``KeyError`` on stderr."""
    child = subprocess.run(
        [sys.executable, "-c", SCRIPT, start_method],
        capture_output=True, text=True, timeout=120, cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert child.returncode == 0, child.stderr
    name = child.stdout.strip()
    assert name.startswith("repro-panel-")
    assert "KeyError" not in child.stderr, child.stderr
    assert name not in shared_segment_names()
