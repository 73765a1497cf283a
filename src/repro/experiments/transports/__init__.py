"""Pluggable queue transports for the distributed runner.

The :class:`~repro.experiments.transports.base.Transport` protocol is the
seam between the ``enqueue``/``work``/``collect`` lifecycle (which lives
in :mod:`repro.experiments.distributed`) and the coordination backend.
Two backends ship — a single-file SQLite database for one host, and an
HTTP client speaking to a coordinator serving one for many hosts — and
:func:`resolve_transport` picks one from the queue location alone: an
``http://``/``https://`` URL is a coordinator, anything else a SQLite
database.
"""

from __future__ import annotations

import os
from typing import Union

from repro.experiments.transports.base import (
    QUEUE_VERSION,
    Claim,
    CorruptTask,
    QueueBusy,
    QueueCorrupt,
    QueueIncomplete,
    Transport,
)
from repro.experiments.transports.http import (
    HTTP_PROTOCOL_VERSION,
    HttpTransport,
    make_server,
    serve,
)
from repro.experiments.transports.sqlite import SQLITE_MAGIC, SqliteTransport, queue_db_path

__all__ = [
    "HTTP_PROTOCOL_VERSION",
    "QUEUE_VERSION",
    "Claim",
    "CorruptTask",
    "HttpTransport",
    "QueueBusy",
    "QueueCorrupt",
    "QueueIncomplete",
    "SqliteTransport",
    "TRANSPORT_KINDS",
    "Transport",
    "make_server",
    "queue_db_path",
    "resolve_transport",
    "serve",
]

#: The backend names a caller may force instead of ``"auto"``.
TRANSPORT_KINDS = ("sqlite", "http")

#: File extensions of an empty file still accepted as a fresh SQLite queue
#: (any other existing file must carry the SQLite magic header).
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def resolve_transport(queue: Union[str, Transport], kind: str = "auto") -> Transport:
    """Resolve a queue location (or a ready transport) to a transport.

    ``kind`` may force a backend (``"sqlite"`` / ``"http"``); ``"auto"``
    reads it off the location: an ``http://``/``https://`` URL is a
    coordinator, anything else a SQLite queue database (an existing file
    must carry the SQLite magic header).  A directory is refused loudly:
    it is a queue of the removed directory transport.
    """
    if isinstance(queue, Transport):
        return queue
    if kind not in ("auto",) + TRANSPORT_KINDS:
        raise ValueError(f"unknown transport kind {kind!r}; expected one of {TRANSPORT_KINDS}")
    if kind == "http" or (kind == "auto" and queue.startswith(("http://", "https://"))):
        return HttpTransport(queue)
    if os.path.isdir(queue):
        raise QueueCorrupt(
            f"{queue!r} is a directory queue; the directory transport was removed. "
            f"Collect it with the build that wrote it, or re-enqueue the sweep into "
            f"QUEUE_<name>.sqlite (records are deterministic, so a re-run gives "
            f"identical rows)"
        )
    if kind == "auto" and os.path.isfile(queue):
        with open(queue, "rb") as handle:
            magic = handle.read(len(SQLITE_MAGIC))
        if magic != SQLITE_MAGIC and (magic or not queue.endswith(_SQLITE_SUFFIXES)):
            raise QueueCorrupt(f"{queue!r} is not a SQLite queue database")
    return SqliteTransport(queue)
