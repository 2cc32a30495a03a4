"""Streaming alpha-serving subsystem: incremental compiled execution.

Search (:mod:`repro.parallel`) and compilation (:mod:`repro.compile`)
produce a portfolio of compiled alphas; this package is where they get
*used*: evaluating arriving market data day by day without recomputing full
history, the incremental-evaluation-under-updates shape of serving systems.
The day-at-a-time unit underneath is the engine layer's
:class:`~repro.engine.incremental.IncrementalExecutor`, which advances the
lanes of one compiled tape one day per ``step`` and persists their rolling
state as per-lane :class:`~repro.compile.executor.TapeState`\ s.

* :mod:`repro.stream.server`      — :class:`AlphaServer` registers the
  top-K mined programs and evaluates each new day's bar across all of them
  in one pass, with shared feature tensors and canonical-IR fingerprint
  deduplication of equivalent programs;
* :mod:`repro.stream.driver`      — :class:`OnlineBacktestDriver` feeds
  simulated market ticks through the server into the backtest engine,
  asserting bitwise parity with the offline batch path;
* :mod:`repro.stream.state`       — atomic save/load of suspended state,
  so a serving process survives restarts without replaying history; since
  server-state v2 a snapshot also carries the served-bar history, the
  correction log and the delta-replay payloads, so late corrections keep
  working after a restart.

Late data corrections are first-class: :meth:`AlphaServer.correct_bar`
rewrites one already-served bar and **delta-replays** only the invalidated
suffix — bounded by the compile-time lookback analysis
(:mod:`repro.compile.lookback`) and the engine layer's snapshot rings
(:mod:`repro.engine.replay`) — bitwise-identically to a full warm-start
recompute.  The driver's :class:`BarCorrection` + ``repro serve --correct``
inject and verify corrections end to end.

The online path is the *same code* as the offline backtest path — executor
contexts, training subsamples and label-reveal ordering all come from
:class:`repro.core.interpreter.AlphaEvaluator` — so research results and
served results can never diverge.  The CLI front door is ``repro serve``.
"""

from .driver import (
    BarCorrection,
    OnlineBacktestDriver,
    ServeReport,
    ServedAlphaRow,
    run_serve,
)
from .server import AlphaServer, CorrectionRecord, Registration, ServerState
from .state import load_state, save_state

__all__ = [
    "AlphaServer",
    "BarCorrection",
    "CorrectionRecord",
    "OnlineBacktestDriver",
    "Registration",
    "ServeReport",
    "ServedAlphaRow",
    "ServerState",
    "load_state",
    "save_state",
    "run_serve",
]
