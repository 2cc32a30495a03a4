"""Zero-copy shared panels for the evaluation workers.

The expensive state of a worker pool is the task-set panel — the
``(N, K, f, w)`` feature tensor and the ``(N, K)`` label matrix.  The
historical pool shipped both to every worker through the executor
initializer, which re-materialises the full panel once per worker (and once
per executor rebuild).  :class:`SharedPanelStore` publishes them instead
into **one** :class:`multiprocessing.shared_memory.SharedMemory` block,
exactly once per pool; workers attach read-only NumPy views in their
initializer, so however many workers (or restarts) the pool sees, physical
memory holds a single copy of the data and nothing panel-sized ever crosses
the pickle IPC channel.

The feature tensor is published as the bytes it spans, with its shape and
strides, not as ``N * K * f * w`` values: a task set's window view spans
its ``(N + w - 1, K, f)`` panel rows, so the block holds each panel value
once, and a worker rebuilds the same read-only ``(N, K, f, w)`` view over
it.  A plain C-ordered array spans exactly its own bytes, so one path
serves both.

Layout of the block::

    [0:8]   little-endian uint64: header length L
    [8:8+L] JSON header: version, content signature, shapes, strides,
            dtypes, offsets
    [features_offset : ...]  the bytes the feature tensor spans
                             (64-byte aligned)
    [labels_offset   : ...]  the label matrix bytes  (64-byte aligned)

**Content-signature echo.**  The publisher hashes the published bytes
(SHA-256 over shapes, strides, dtypes and raw data) and writes the digest
both into the block header and into the :class:`SharedPanelHandle` it
hands to workers.  An attaching worker compares the two: a handle
pointing at a stale or recycled store — a name reused after an unlink, a
store republished with different data — fails loudly with
:class:`~repro.errors.SharedPanelMismatchError` instead of computing on
wrong data.

**Cleanup.**  Owners unlink on every exit path:

* context-manager / explicit :meth:`close` — the normal path;
* interpreter exit — a ``weakref.finalize`` guard unlinks stores the caller
  leaked;
* ``SIGTERM`` / ``SIGINT`` — a chaining signal hook unlinks every live
  owner store before the previous handler (or the default action) runs;
* hard crash (``SIGKILL``) — the stdlib ``resource_tracker`` the block is
  registered with unlinks it when the process tree dies.

Attached (non-owner) stores only ever detach; they never unlink.  Every
owner-side guard is PID-checked, so a ``fork``-context worker — which
inherits the owner's live-store set, signal handlers and finalizers — can
never unlink a segment its parent still serves from.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import signal
import threading
import uuid
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np
from numpy.lib.array_utils import byte_bounds
from numpy.lib.stride_tricks import as_strided

from ..errors import ParallelError, SharedPanelMismatchError

__all__ = [
    "SharedPanelHandle",
    "SharedPanelStore",
    "panel_signature",
    "shared_segment_names",
]

_LAYOUT_VERSION = 2
_ALIGNMENT = 64
#: Every store name carries this prefix, so tests (and operators) can scan
#: ``/dev/shm`` for leaked segments without false positives.
SEGMENT_PREFIX = "repro-panel-"


def _publishable(array) -> np.ndarray:
    """``array`` as published: itself, or a C-ordered copy when a stride is
    negative or not a whole number of items (its span would not start at
    its first element, or would not be a run of items)."""
    array = np.asarray(array)
    if any(stride < 0 or stride % array.itemsize for stride in array.strides):
        return np.ascontiguousarray(array)
    return array


def _span(array: np.ndarray) -> np.ndarray:
    """The memory ``array`` spans, from its first to its last byte, as a
    flat read-only array of its dtype (a view, never a copy)."""
    low, high = byte_bounds(array)
    return as_strided(array, shape=((high - low) // array.itemsize,),
                      strides=(array.itemsize,), writeable=False)


def panel_signature(features: np.ndarray, labels: np.ndarray) -> str:
    """SHA-256 content signature of a feature/label panel pair.

    Covers shapes, strides, dtypes and the bytes each array spans, so two
    panels share a signature exactly when attaching to either rebuilds the
    same arrays over the same bytes.  A window view is hashed over its
    panel rows: its windows are never materialised.
    """
    digest = hashlib.sha256()
    for array in (features, labels):
        array = _publishable(array)
        digest.update(str(array.shape).encode())
        digest.update(str(array.strides).encode())
        digest.update(str(array.dtype).encode())
        digest.update(_span(array))
    return digest.hexdigest()


@dataclass(frozen=True)
class SharedPanelHandle:
    """Everything a worker needs to attach: name, signature, geometry.

    Tiny and picklable — this is what rides in :class:`~.pool.PoolSpec`
    instead of the panel arrays themselves.
    """

    name: str
    signature: str
    features_shape: tuple[int, ...]
    labels_shape: tuple[int, ...]
    features_strides: tuple[int, ...]
    labels_strides: tuple[int, ...]
    features_dtype: str
    labels_dtype: str
    features_offset: int
    labels_offset: int
    nbytes: int


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


# ----------------------------------------------------------------------
# Process-wide cleanup guards for owner stores
# ----------------------------------------------------------------------
_LIVE_OWNERS: "weakref.WeakSet[SharedPanelStore]" = weakref.WeakSet()
_HOOKS_INSTALLED = False
_HOOK_LOCK = threading.Lock()


def _unlink_live_owners() -> None:
    for store in list(_LIVE_OWNERS):
        store.close()


def _signal_cleanup(signum, frame):  # pragma: no cover - exercised in a subprocess
    previous = _PREVIOUS_HANDLERS.get(signum)
    _unlink_live_owners()
    if callable(previous):
        previous(signum, frame)
    else:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)


_PREVIOUS_HANDLERS: dict[int, object] = {}


def _install_cleanup_hooks() -> None:
    """Install the atexit and signal guards once per process.

    Signal hooks chain: an application handler registered before the first
    store was published still runs after the unlink.  Installation is
    skipped quietly off the main thread (``signal.signal`` would raise).
    """
    global _HOOKS_INSTALLED
    with _HOOK_LOCK:
        if _HOOKS_INSTALLED:
            return
        atexit.register(_unlink_live_owners)
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    _PREVIOUS_HANDLERS[signum] = signal.getsignal(signum)
                    signal.signal(signum, _signal_cleanup)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        _HOOKS_INSTALLED = True


def shared_segment_names() -> list[str]:
    """Names of live ``repro-panel-*`` segments under ``/dev/shm`` (POSIX).

    The leak oracle of the fault-injection tests and the benchmark's
    cleanup gate; returns ``[]`` where ``/dev/shm`` does not exist.
    """
    try:
        return sorted(
            entry for entry in os.listdir("/dev/shm")
            if entry.startswith(SEGMENT_PREFIX)
        )
    except (FileNotFoundError, NotADirectoryError):  # pragma: no cover
        return []


class SharedPanelStore:
    """One published (or attached) feature/label panel in shared memory.

    Use :meth:`publish` in the pool owner and :meth:`attach` in workers;
    both return a store exposing zero-copy :attr:`features` / :attr:`labels`
    views (read-only, so a buggy worker cannot corrupt the shared panel for
    its siblings).  The owner is a context manager whose exit unlinks the
    segment; attached stores detach only.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 handle: SharedPanelHandle, owner: bool) -> None:
        self._shm = shm
        self.handle = handle
        self.owner = owner
        self._owner_pid = os.getpid() if owner else None
        self._closed = False
        self.features = self._view(
            handle.features_shape, handle.features_strides,
            handle.features_dtype, handle.features_offset,
        )
        self.labels = self._view(
            handle.labels_shape, handle.labels_strides,
            handle.labels_dtype, handle.labels_offset,
        )
        if owner:
            _LIVE_OWNERS.add(self)
            _install_cleanup_hooks()
            # Last-resort guard: unlink when the store object is collected
            # without close() ever running.
            self._finalizer = weakref.finalize(
                self, SharedPanelStore._unlink_quietly, shm.name, os.getpid()
            )
        else:
            self._finalizer = None

    def _view(self, shape, strides, dtype, offset) -> np.ndarray:
        array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=self._shm.buf,
                           offset=offset, strides=strides)
        array.flags.writeable = False
        return array

    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, features: np.ndarray, labels: np.ndarray) -> "SharedPanelStore":
        """Copy the bytes the panel spans into a fresh shared segment and
        own it; the attached arrays keep the published shapes and strides."""
        features = _publishable(features)
        labels = _publishable(labels)
        spans = (_span(features), _span(labels))
        signature = panel_signature(features, labels)
        name = f"{SEGMENT_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:12]}"
        # The header length depends only on field values whose rendered
        # width is fixed once computed, so lay it out with placeholder
        # offsets first, then patch.
        header = {
            "version": _LAYOUT_VERSION,
            "signature": signature,
            "features_shape": list(features.shape),
            "labels_shape": list(labels.shape),
            "features_strides": list(features.strides),
            "labels_strides": list(labels.strides),
            "features_dtype": str(features.dtype),
            "labels_dtype": str(labels.dtype),
        }
        header_blob = json.dumps(header, sort_keys=True).encode()
        features_offset = _align(8 + len(header_blob))
        labels_offset = _align(features_offset + spans[0].nbytes)
        nbytes = labels_offset + spans[1].nbytes
        handle = SharedPanelHandle(
            name=name,
            signature=signature,
            features_shape=tuple(features.shape),
            labels_shape=tuple(labels.shape),
            features_strides=tuple(features.strides),
            labels_strides=tuple(labels.strides),
            features_dtype=str(features.dtype),
            labels_dtype=str(labels.dtype),
            features_offset=features_offset,
            labels_offset=labels_offset,
            nbytes=nbytes,
        )
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        except OSError as exc:  # pragma: no cover - exhausted /dev/shm
            raise ParallelError(
                f"cannot create a {nbytes}-byte shared panel segment: {exc}"
            ) from exc
        shm.buf[0:8] = len(header_blob).to_bytes(8, "little")
        shm.buf[8:8 + len(header_blob)] = header_blob
        store = cls(shm, handle, owner=True)
        # Publish through writable staging views, then the constructor's
        # read-only views are the only way back in.
        for span, offset in zip(spans, (features_offset, labels_offset)):
            staging = np.ndarray(span.shape, span.dtype,
                                 buffer=shm.buf, offset=offset)
            staging[...] = span
        return store

    @classmethod
    def attach(cls, handle: SharedPanelHandle) -> "SharedPanelStore":
        """Attach read-only views to a published store, verifying identity.

        The handle's signature must echo the one the publisher wrote into
        the block header; any disagreement (stale handle, recycled name,
        torn header) raises :class:`SharedPanelMismatchError`.

        :class:`~multiprocessing.shared_memory.SharedMemory` registers the
        attached name with the ``resource_tracker`` unconditionally.  Under
        every start method the workers share the publisher's tracker
        process (``fork`` children inherit it; on POSIX, CPython hands
        ``spawn`` and ``forkserver`` children its fd), whose registry is a
        set, so the attach-side registration deduplicates harmlessly.  It
        must stay: withdrawing it would withdraw the publisher's own, the
        one that lets the tracker unlink the segment after a crash.
        """
        try:
            shm = shared_memory.SharedMemory(name=handle.name)
        except FileNotFoundError as exc:
            raise SharedPanelMismatchError(
                f"shared panel store {handle.name!r} does not exist "
                "(unlinked before this worker attached?)"
            ) from exc
        try:
            header_length = int.from_bytes(bytes(shm.buf[0:8]), "little")
            try:
                header = json.loads(bytes(shm.buf[8:8 + header_length]))
            except (ValueError, UnicodeDecodeError) as exc:
                raise SharedPanelMismatchError(
                    f"shared panel store {handle.name!r} has a corrupt header"
                ) from exc
            if header.get("version") != _LAYOUT_VERSION:
                raise SharedPanelMismatchError(
                    f"shared panel store {handle.name!r} has layout version "
                    f"{header.get('version')}, this build reads "
                    f"{_LAYOUT_VERSION}"
                )
            if header.get("signature") != handle.signature:
                raise SharedPanelMismatchError(
                    f"shared panel store {handle.name!r} holds content "
                    f"signature {header.get('signature')!r} but the pool "
                    f"spec expects {handle.signature!r}; refusing to attach "
                    "to a stale store"
                )
            echoed = (
                tuple(header.get("features_shape", ())),
                tuple(header.get("labels_shape", ())),
                tuple(header.get("features_strides", ())),
                tuple(header.get("labels_strides", ())),
                header.get("features_dtype"),
                header.get("labels_dtype"),
            )
            expected = (
                handle.features_shape, handle.labels_shape,
                handle.features_strides, handle.labels_strides,
                handle.features_dtype, handle.labels_dtype,
            )
            if echoed != expected:
                raise SharedPanelMismatchError(
                    f"shared panel store {handle.name!r} geometry {echoed} "
                    f"does not match the handle's {expected}"
                )
        except SharedPanelMismatchError:
            shm.close()
            raise
        return cls(shm, handle, owner=False)

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Size of the shared segment in bytes."""
        return self.handle.nbytes

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` already ran."""
        return self._closed

    @staticmethod
    def _unlink_quietly(name: str, owner_pid: int) -> None:
        if os.getpid() != owner_pid:  # pragma: no cover - forked copy
            return
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        try:
            segment.unlink()
        finally:
            segment.close()

    def close(self) -> None:
        """Detach; owners also unlink the segment (idempotent).

        Live NumPy views pin the underlying mapping, so the detach is
        best-effort (the mapping falls with the process); the **unlink** —
        what actually releases ``/dev/shm`` space — always runs for owners.
        A forked copy of an owner store (a ``fork``-context worker inherits
        them) only ever detaches: the unlink belongs to the publishing PID.
        """
        if self._closed:
            return
        self._closed = True
        self.features = None
        self.labels = None
        if self.owner:
            _LIVE_OWNERS.discard(self)
            if self._finalizer is not None:
                self._finalizer.detach()
            if os.getpid() == self._owner_pid:
                try:
                    self._shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller still holds views
            pass

    def __enter__(self) -> "SharedPanelStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
