"""Blocking client for the query server.

One :class:`ServeClient` wraps one TCP connection and issues one
request at a time (the closed-loop shape the load generator and the
tests want).  Server-side typed errors are raised as exceptions:
``overloaded`` → :class:`OverloadedError`, ``deadline_exceeded`` →
:class:`DeadlineError`, ``draining`` → :class:`DrainingError`,
``bad_request``/``internal`` → :class:`RemoteError`.

**Idempotent retries** (:class:`RetryPolicy`): with a policy attached,
a dropped connection is not an error the caller sees — the client
reconnects with jittered exponential backoff and resends.  Queries are
pure, so resending is always safe; updates are made safe by a client-
generated request id (``req``) attached to every ``insert``/``delete``:
the server logs the id in its write-ahead log and answers a replayed id
from its dedupe map instead of applying the update twice.  A ``kill
-9`` of the server mid-burst is therefore invisible to callers — the
supervisor restarts it, the client reconnects, and every in-flight
update lands exactly once.
"""

from __future__ import annotations

import random
import socket
import time
import uuid
from dataclasses import dataclass, field
from typing import Any

from . import protocol
from .backoff import BackoffPolicy, retry_deadline

__all__ = [
    "ConnectionLostError",
    "DeadlineError",
    "DrainingError",
    "OverloadedError",
    "RemoteError",
    "RetryPolicy",
    "ServeClient",
    "ServeClientError",
    "ShardUnavailableError",
    "SubscriptionStream",
    "wait_until_healthy",
]


class ServeClientError(Exception):
    """Base class of client-side failures; carries the error ``code``."""

    code = "client"

    def __init__(self, message: str, code: str | None = None) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code


class OverloadedError(ServeClientError):
    """The server's admission control refused the request."""

    code = "overloaded"


class DeadlineError(ServeClientError):
    """The request's deadline passed before the engine ran it."""

    code = "deadline_exceeded"


class DrainingError(ServeClientError):
    """The server is shutting down gracefully."""

    code = "draining"


class ConnectionLostError(ServeClientError):
    """The connection dropped (and retries, if any, were exhausted)."""

    code = "connection_lost"


class ShardUnavailableError(ServeClientError):
    """A sharded coordinator could not reach a required shard worker."""

    code = "shard_unavailable"


class RemoteError(ServeClientError):
    """Any other server-reported failure (bad request, internal)."""


_ERROR_TYPES = {
    "overloaded": OverloadedError,
    "deadline_exceeded": DeadlineError,
    "draining": DrainingError,
    "shard_unavailable": ShardUnavailableError,
}


def _request(op: str, **fields: Any) -> dict[str, Any]:
    """A request frame: ``op`` plus the ``fields`` that are not ``None``."""
    return {"op": op} | {key: value for key, value in fields.items()
                         if value is not None}


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Reconnect-and-resend behaviour of one client.

    Attributes:
        max_attempts: Total tries per request (1 = no retry).
        backoff: Jittered delay schedule between tries.

    A request a *draining* server refused is retried too: a supervisor
    boots a replacement on the same port.
    """

    max_attempts: int = 6
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")


class ServeClient:
    """A blocking NDJSON client; usable as a context manager."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7654,
                 timeout_s: float = 30.0,
                 retry: RetryPolicy | None = None,
                 seed: int | None = None) -> None:
        """Connect to a server.

        Args:
            host, port: Server address.
            timeout_s: Socket timeout for connect and each request.
            retry: Reconnect-and-resend policy; ``None`` (default) fails
                fast on the first connection error, preserving strict
                one-shot semantics.
            seed: Seeds backoff jitter and request-id generation — for
                deterministic tests only.
        """
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retry = retry
        self.retries = 0      # resends after a connection failure
        self.reconnects = 0   # successful re-establishments
        self._rng = random.Random(seed)
        self._sock: socket.socket | None = None
        self._file = None
        self._rbuf = bytearray()
        self._connect()

    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout_s)
        try:
            self._file = sock.makefile("rwb")
        except BaseException:
            # Nothing else owns the socket yet: close it here or leak it.
            sock.close()
            raise
        self._sock = sock
        self._rbuf = bytearray()

    def _disconnect(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._rbuf = bytearray()

    def _request_id(self) -> str:
        # Drawn from the client's own rng so seeded tests get a
        # deterministic id stream; unseeded clients get uuid4-quality ids.
        return uuid.UUID(int=self._rng.getrandbits(128), version=4).hex

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def call(self, payload: dict[str, Any],
             idempotent: bool = True) -> dict[str, Any]:
        """Send one request and return the (``ok: true``) response.

        Raises the typed exception matching the server's error code on
        ``ok: false``.  Connection failures raise
        :class:`ConnectionLostError` — unless a :class:`RetryPolicy` is
        attached and ``idempotent`` is true, in which case the client
        reconnects with jittered backoff and resends, surfacing the
        error only once every attempt is spent.  Pass
        ``idempotent=False`` for requests that must not be resent
        (updates without a ``req`` id).
        """
        attempts = (self.retry.max_attempts
                    if self.retry is not None and idempotent else 1)
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                self.retries += 1
                time.sleep(self.retry.backoff.delay(attempt - 1, self._rng))
            try:
                if self._sock is None:
                    self._connect()
                    self.reconnects += 1
                return self._call_once(payload)
            except (ConnectionLostError, OSError) as exc:
                self._disconnect()
                last_error = exc
            except DrainingError as exc:
                if self.retry is None:
                    raise
                self._disconnect()
                last_error = exc
        raise ConnectionLostError(
            f"request failed after {attempts} attempt(s): {last_error}")

    def _readline(self, timeout_s: float | None = None) -> bytes | None:
        """One NDJSON line from the connection.

        Reads raw socket chunks into a client-owned buffer rather than
        through the buffered ``_file`` reader: a read timeout poisons a
        buffered reader for good (CPython refuses further reads from a
        timed-out object), whereas a timed-out ``recv`` loses nothing —
        a partially received frame stays buffered and the next call
        resumes it.  Returns ``b""`` on EOF; ``None`` when ``timeout_s``
        elapses first (only possible when one was given — with
        ``timeout_s=None`` the socket's default timeout propagates as
        the usual :class:`TimeoutError`).
        """
        assert self._sock is not None
        newline = self._rbuf.find(b"\n")
        previous = self._sock.gettimeout()
        if timeout_s is not None:
            self._sock.settimeout(timeout_s)
        try:
            while newline < 0:
                try:
                    chunk = self._sock.recv(65536)
                except TimeoutError:
                    if timeout_s is not None:
                        return None
                    raise
                if not chunk:
                    return b""
                self._rbuf += chunk
                newline = self._rbuf.find(
                    b"\n", len(self._rbuf) - len(chunk))
        finally:
            if timeout_s is not None and self._sock is not None:
                self._sock.settimeout(previous)
        line = bytes(self._rbuf[:newline + 1])
        del self._rbuf[:newline + 1]
        return line

    def _call_once(self, payload: dict[str, Any]) -> dict[str, Any]:
        self._file.write(protocol.encode_line(payload))
        self._file.flush()
        line = self._readline()
        if not line:
            raise ConnectionLostError("connection closed by server")
        response = protocol.decode_line(line)
        if response.get("ok"):
            return response
        error = response.get("error") or {}
        code = error.get("code", "internal")
        message = error.get("message", "unknown server error")
        raise _ERROR_TYPES.get(code, RemoteError)(message, code)

    def close(self) -> None:
        """Close the connection.  Idempotent: safe to call any number
        of times, including after the server already went away."""
        self._disconnect()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        # A server draining while we exit can surface the flush of
        # buffered bytes as a connection error — shutdown must not turn
        # that race into a caller-visible failure.
        try:
            self.close()
        except (ConnectionLostError, OSError):
            pass

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def nwc(self, x: float, y: float, length: float, width: float, n: int,
            measure: str | None = None,
            deadline_ms: float | None = None,
            trace: dict[str, Any] | None = None) -> dict[str, Any]:
        return self.call(_request(
            "nwc", x=x, y=y, length=length, width=width, n=n,
            measure=measure, deadline_ms=deadline_ms, trace=trace))

    def knwc(self, x: float, y: float, length: float, width: float, n: int,
             k: int, m: int = 0, maintenance: str = "exact",
             measure: str | None = None,
             deadline_ms: float | None = None,
             trace: dict[str, Any] | None = None) -> dict[str, Any]:
        return self.call(_request(
            "knwc", x=x, y=y, length=length, width=width, n=n, k=k, m=m,
            maintenance=maintenance, measure=measure,
            deadline_ms=deadline_ms, trace=trace))

    def _update(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send an update; with retries on, a request id makes it
        idempotent (the server dedupes resends by ``req``)."""
        if self.retry is not None:
            payload["req"] = self._request_id()
            return self.call(payload, idempotent=True)
        return self.call(payload, idempotent=False)

    def insert(self, oid: int, x: float, y: float,
               deadline_ms: float | None = None) -> dict[str, Any]:
        return self._update(_request("insert", oid=oid, x=x, y=y,
                                     deadline_ms=deadline_ms))

    def delete(self, oid: int, x: float, y: float,
               deadline_ms: float | None = None) -> dict[str, Any]:
        return self._update(_request("delete", oid=oid, x=x, y=y,
                                     deadline_ms=deadline_ms))

    def snapshot(self, path: str) -> dict[str, Any]:
        return self.call({"op": "snapshot", "path": path})

    def checkpoint(self) -> dict[str, Any]:
        """Ask a durable server to checkpoint and compact its WAL."""
        return self.call({"op": "checkpoint"})

    def health(self) -> dict[str, Any]:
        return self.call({"op": "health"})

    def metrics(self, fmt: str = "json",
                scope: str | None = None) -> dict[str, Any]:
        """Scrape metrics.  ``scope="fleet"`` (coordinators only) merges
        every worker's registry into one ``shard``-labelled view."""
        return self.call(_request("metrics", format=fmt, scope=scope))

    # ------------------------------------------------------------------
    # Standing queries
    # ------------------------------------------------------------------
    def subscribe(self, x: float, y: float, length: float, width: float,
                  n: int, k: int | None = None, m: int = 0,
                  maintenance: str = "exact", measure: str | None = None,
                  sub: str | None = None,
                  deadline_ms: float | None = None) -> "SubscriptionStream":
        """Register a standing query and return its notification stream.

        Passing ``k`` makes it a kNWC subscription.  ``sub`` names the
        subscription (re-subscribing with the same id after a reconnect
        *resumes* it — the ack carries the current result and revision);
        omitted, the server generates an id and returns it in the ack.

        After this call the connection is in **streaming mode**: the
        server pushes unsolicited ``notify`` frames at any time, so
        issuing one-shot ops on the same client would race them.  Use a
        dedicated client per subscription stream (ordinary calls — and
        ``unsubscribe`` — belong on a different connection).
        """
        payload = _request("subscribe", x=x, y=y, length=length,
                           width=width, n=n, measure=measure, sub=sub,
                           deadline_ms=deadline_ms)
        if k is not None:
            payload |= {"k": k, "m": m, "maintenance": maintenance}
        if self.retry is not None:
            payload["req"] = self._request_id()
        ack = self.call(payload, idempotent=True)
        return SubscriptionStream(self, ack)

    def unsubscribe(self, sub_id: str) -> dict[str, Any]:
        """Drop a standing query by id (from any connection)."""
        return self._update({"op": "unsubscribe", "sub": sub_id})


class SubscriptionStream:
    """The notification side of one subscribed connection.

    Iterating (or :meth:`poll`-ing) yields ``notify`` frames as the
    server pushes them; frames for *any* subscription attached to the
    underlying connection are returned, and the stream's own
    ``revision``/``version``/``result`` mirror is advanced when a frame
    matches its ``sub_id``.  Iteration ends (``StopIteration``) when
    the connection closes.

    ``poll`` with a timeout is loss-free: a timeout that fires mid-frame
    leaves the partial frame in the client's receive buffer and the next
    ``poll`` resumes it, so polling with short timeouts in a loop is the
    intended idle-wait idiom.
    """

    def __init__(self, client: ServeClient, ack: dict[str, Any]) -> None:
        self.client = client
        self.ack = ack
        self.sub_id: str = ack["sub"]
        self.kind: str = ack["kind"]
        self.revision: int = ack["revision"]
        self.version: int = ack["version"]
        self.result: dict[str, Any] = ack["result"]

    def poll(self, timeout_s: float | None = None) -> dict[str, Any] | None:
        """The next pushed frame, or ``None`` when ``timeout_s`` passes
        without one (``None`` timeout blocks up to the client's socket
        timeout)."""
        if self.client._sock is None:
            raise ConnectionLostError("subscription stream is closed")
        line = self.client._readline(timeout_s)
        if line is None:
            return None
        if not line:
            raise ConnectionLostError("connection closed by server")
        frame = protocol.decode_line(line)
        if frame.get("op") != "notify":
            raise RemoteError(
                f"unexpected frame on subscription stream: {frame!r}")
        if frame.get("sub") == self.sub_id:
            self.revision = frame["revision"]
            self.version = frame["version"]
            self.result = frame["result"]
        return frame

    def __iter__(self) -> "SubscriptionStream":
        return self

    def __next__(self) -> dict[str, Any]:
        try:
            frame = self.poll()
        except ConnectionLostError:
            raise StopIteration from None
        if frame is None:
            raise StopIteration
        return frame


def wait_until_healthy(host: str, port: int, timeout_s: float = 15.0,
                       interval_s: float = 0.05,
                       shards: int | None = None) -> dict[str, Any]:
    """Poll ``health`` until the server answers (or raise ``TimeoutError``).

    Used by the load generator, the supervisor and CI to sequence "boot
    server, then drive it".  Polling backs off exponentially with
    jitter (the same :class:`~repro.serve.backoff.BackoffPolicy` the
    retry path uses) so a fleet of waiting clients does not hammer a
    server that is busy replaying its WAL.

    Args:
        host, port: Server address.
        timeout_s: Give-up deadline.
        interval_s: Initial poll delay; grows towards 1s.
        shards: When targeting a sharded coordinator, additionally wait
            until its health report fans in at least this many shard
            workers with status ``serving`` — a coordinator socket comes
            up before its workers finish WAL recovery.
    """
    policy = BackoffPolicy(initial_s=interval_s, max_s=1.0)
    deadline = time.monotonic() + timeout_s
    rng = random.Random()
    last_error: Exception | None = None
    for _attempt in retry_deadline(policy, deadline, rng):
        try:
            with ServeClient(host, port, timeout_s=timeout_s) as client:
                health = client.health()
            if shards is not None:
                serving = sum(
                    1 for entry in health.get("shards", [])
                    if entry.get("status") == "serving"
                )
                if serving < shards:
                    last_error = RemoteError(
                        f"{serving}/{shards} shard workers serving")
                    continue
            return health
        except (OSError, ServeClientError) as exc:
            last_error = exc
    raise TimeoutError(
        f"server at {host}:{port} not healthy after {timeout_s}s: {last_error}"
    )
