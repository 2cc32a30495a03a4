"""Span-based tracing plus the process-wide telemetry switchboard.

A *span* is one timed region of work with a name, optional attributes and
children — ``with trace.span("compile.passes", program=fp):`` — and the
spans of a run form a tree that mirrors the mine → compile → serve
pipeline.  The tracer is exception-safe (a span closes and records its
elapsed time even when its body raises, tagging itself ``error``) and
**near-zero overhead when disabled**: a disabled ``span()`` call is one
attribute check plus the return of a shared no-op context manager — no
allocation, no clock read.

:class:`Telemetry` bundles the tracer with a
:class:`~repro.obs.metrics.MetricsRegistry` and an enabled flag behind one
process-wide instance, :data:`TELEMETRY`.  Instrumented hot paths guard
with ``if TELEMETRY.enabled:`` so the disabled cost is a single boolean
test per *stage* (never per day or per element); enabling changes timings
only, never results — bitwise parity on/off is a tested contract.

:func:`telemetry_session` is how runs collect: it resets the registry and
tracer, enables telemetry for the ``with`` body, and restores the previous
state afterwards.  Sessions are re-entrancy safe — an inner session inside
an already enabled outer one is a passthrough, so ``run_scenario`` can wrap
``run_serve`` without wiping its own instruments.

Structured events ride on stdlib :mod:`logging` (logger ``repro.obs``):
:func:`log_event` emits one ``key=value`` formatted record per call, only
while telemetry is enabled, so operators can wire the event stream into any
logging backend without this package growing an I/O layer.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager

from .metrics import MetricsRegistry

__all__ = [
    "Span",
    "Tracer",
    "Telemetry",
    "TELEMETRY",
    "get_telemetry",
    "telemetry_session",
    "log_event",
    "render_span_tree",
]

#: The structured-event logger; attach handlers/levels like any stdlib logger.
EVENT_LOGGER = logging.getLogger("repro.obs")


class Span:
    """One timed region: name, attributes, elapsed seconds and children."""

    __slots__ = ("name", "attrs", "seconds", "children", "error", "_started")

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.seconds = 0.0
        self.children: list[Span] = []
        self.error = False
        self._started = 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable form (what a RunRecord stores)."""
        state: dict = {"name": self.name, "seconds": self.seconds}
        if self.attrs:
            state["attrs"] = dict(self.attrs)
        if self.error:
            state["error"] = True
        if self.children:
            state["children"] = [child.to_dict() for child in self.children]
        return state


class _NullSpan:
    """The shared no-op context manager returned while tracing is off."""

    __slots__ = ()
    #: An untraced region records no time.
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that opens/closes one :class:`Span` on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._open(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span.error = exc_type is not None
        self._tracer._close(self._span)
        return None  # never swallow the exception


class Tracer:
    """Builds the span tree of one run.

    Spans nest by runtime containment: a span opened while another is
    active becomes its child.  Closing is exception-safe and order-checked
    (spans are strictly LIFO, which the context-manager protocol
    guarantees).
    """

    def __init__(self) -> None:
        self.enabled = False
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs):
        """A context manager timing ``name``; no-op while disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, Span(name, attrs))

    def _open(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        span._started = time.perf_counter()

    def _close(self, span: Span) -> None:
        span.seconds = time.perf_counter() - span._started
        # Exception safety: unwind to *this* span even if a child was left
        # open (e.g. its body raised straight through a bare yield).
        while self._stack:
            if self._stack.pop() is span:
                break

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    def tree(self) -> list[dict]:
        """The completed span tree as JSON-serialisable dicts."""
        return [span.to_dict() for span in self.roots]

    def reset(self) -> None:
        """Drop all recorded spans (open spans included)."""
        self.roots = []
        self._stack = []


def render_span_tree(tree: list[dict], indent: int = 0) -> str:
    """A printable rendering of :meth:`Tracer.tree` (``repro stats``)."""
    if not tree and indent == 0:
        return "(no spans recorded)"
    lines: list[str] = []
    for node in tree:
        attrs = node.get("attrs") or {}
        suffix = "".join(
            f" {key}={value}" for key, value in attrs.items()
        )
        if node.get("error"):
            suffix += " [error]"
        lines.append(
            f"{'  ' * indent}{node['name']}  "
            f"{node.get('seconds', 0.0) * 1e3:.3f} ms{suffix}"
        )
        children = node.get("children") or []
        if children:
            lines.append(render_span_tree(children, indent + 1))
    return "\n".join(lines)


class Telemetry:
    """The registry + tracer pair behind one enabled flag.

    Instrumented code holds a reference to the process-wide
    :data:`TELEMETRY` and guards every recording with
    ``if TELEMETRY.enabled:`` — one boolean test on the disabled path.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()

    # ------------------------------------------------------------------
    def enable(self) -> None:
        """Turn recording on (idempotent)."""
        self.enabled = True
        self.tracer.enabled = True

    def disable(self) -> None:
        """Turn recording off (idempotent); recorded data is kept."""
        self.enabled = False
        self.tracer.enabled = False

    def reset(self) -> None:
        """Drop every instrument and span (the enabled flag is kept)."""
        self.registry.reset()
        self.tracer.reset()

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs):
        """A tracer span (no-op context manager while disabled)."""
        return self.tracer.span(name, **attrs)

    def counter(self, name: str):
        """The registry counter named ``name``."""
        return self.registry.counter(name)

    def gauge(self, name: str):
        """The registry gauge named ``name``."""
        return self.registry.gauge(name)

    def histogram(self, name: str, **kwargs):
        """The registry histogram named ``name``."""
        return self.registry.histogram(name, **kwargs)

    def snapshot(self) -> dict[str, dict]:
        """The registry snapshot (name → instrument state)."""
        return self.registry.snapshot()


#: The process-wide telemetry instance every instrumented module consults.
TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-wide :class:`Telemetry` instance."""
    return TELEMETRY


@contextmanager
def telemetry_session(enabled: bool = True):
    """Collect telemetry for one run: reset, enable, restore on exit.

    Yields :data:`TELEMETRY`.  Re-entrant: when telemetry is *already*
    enabled (an outer session is collecting), the inner session is a pure
    passthrough — it neither resets nor disables, so nested pipelines
    (scenario → serve) aggregate into one record.  With ``enabled=False``
    the session only guarantees telemetry is off for the body.
    """
    if enabled and TELEMETRY.enabled:
        yield TELEMETRY
        return
    previous = TELEMETRY.enabled
    if enabled:
        TELEMETRY.reset()
        TELEMETRY.enable()
    else:
        TELEMETRY.disable()
    try:
        yield TELEMETRY
    finally:
        TELEMETRY.enable() if previous else TELEMETRY.disable()


def log_event(event: str, **fields) -> None:
    """Emit one structured ``key=value`` event on the ``repro.obs`` logger.

    Events are only emitted while telemetry is enabled, and formatting cost
    is deferred to the logging framework's lazy ``%s`` interpolation — an
    unhandled event costs one enabled check.
    """
    if not TELEMETRY.enabled:
        return
    EVENT_LOGGER.info(
        "%s", " ".join(
            [event] + [f"{key}={value}" for key, value in fields.items()]
        )
    )
