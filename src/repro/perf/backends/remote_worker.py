"""Worker-side program of the remote sweep backend's stdio protocol.

Launched as ``python -m repro.perf.backends.remote_worker`` (one process
per remote lane; in tests and CI the "remote host" is localhost).  The
parent speaks length-prefixed pickle frames over the worker's
stdin/stdout — each frame is a 4-byte big-endian payload length followed
by a pickled tuple:

* worker -> parent on startup: ``("hello", pid)`` — the readiness
  handshake;
* parent -> worker: ``("cell", index, spec, attempt, chaos, observe)`` —
  execute one cell through :func:`repro.perf.runtime.execute_cell`
  (chaos injectors first, exactly like a pool worker);
* worker -> parent: ``("ok", index, result)`` on success, or
  ``("err", index, error_type, message)`` when the cell raised;
* parent -> worker: ``("exit",)`` — drain finished, terminate cleanly.

The worker is deliberately trusting and minimal: policy (watchdog,
retry, backoff) lives entirely on the parent side, so a worker is just
"run this cell, send back what happened".  EOF on stdin means the parent
is gone and the worker exits; EOF on stdout as seen by the *parent*
means the worker crashed or was partitioned, and the parent contains it
as a ``crash`` :class:`~repro.exceptions.CellFailure`.

Protocol frames are pickles between processes running the same repo
checkout — the standard multiprocessing trust model, same as the pool.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
from typing import Any, BinaryIO, Optional

#: 4-byte big-endian payload length prefixed to every protocol frame.
FRAME_HEADER = struct.Struct(">I")

#: Pickle protocol of the frames (matches the journal's pinned protocol).
FRAME_PICKLE_PROTOCOL = 4


def read_frame(stream: BinaryIO) -> Optional[Any]:
    """One length-prefixed frame from ``stream``, or ``None`` on EOF.

    A partial header or payload (the peer died mid-write) also reads as
    EOF: there is no way to finish the frame, so the connection is over.
    """
    header = stream.read(FRAME_HEADER.size)
    if header is None or len(header) < FRAME_HEADER.size:
        return None
    (length,) = FRAME_HEADER.unpack(header)
    payload = b""
    while len(payload) < length:
        chunk = stream.read(length - len(payload))
        if not chunk:
            return None
        payload += chunk
    return pickle.loads(payload)


def write_frame(stream: BinaryIO, message: Any) -> None:
    """Write one length-prefixed frame and flush it."""
    payload = pickle.dumps(message, protocol=FRAME_PICKLE_PROTOCOL)
    stream.write(FRAME_HEADER.pack(len(payload)) + payload)
    stream.flush()


def worker_main(
    stdin: Optional[BinaryIO] = None, stdout: Optional[BinaryIO] = None
) -> int:
    """Serve cells until ``("exit",)`` or EOF; returns the exit status."""
    # Imported here (not at module top) so the protocol helpers stay
    # importable without dragging in the whole simulation stack.
    from repro.perf.runtime import execute_cell

    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer
    try:
        write_frame(stdout, ("hello", os.getpid()))
    except OSError:
        return 0  # parent already gone
    while True:
        message = read_frame(stdin)
        if message is None:
            return 0  # parent went away; nothing left to serve
        kind = message[0] if isinstance(message, tuple) and message else None
        if kind == "exit":
            return 0
        if kind == "cell":
            _, index, spec, attempt, chaos, observe = message
            try:
                result = execute_cell(index, spec, attempt, chaos, observe)
                response = ("ok", index, result)
            except Exception as exc:
                response = ("err", index, type(exc).__name__, str(exc))
        else:
            response = (
                "err", -1, "BackendError", f"unknown frame kind {kind!r}"
            )
        try:
            write_frame(stdout, response)
        except OSError:
            return 0  # parent died (or killed us) mid-cell; exit quietly


if __name__ == "__main__":
    sys.exit(worker_main())
