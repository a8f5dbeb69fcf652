"""Device-side transports to the cloud replica.

A transport sends framed network messages and yields responses in FIFO
order. The delay shim simulates a network round trip without background
threads: each request records when its response could be ready, and the
consumer sleeps only the remaining time, so client compute that happens in
between genuinely overlaps the simulated delay.
"""

from __future__ import annotations

import socket
import time

from twinfs import wire


class OfflineError(Exception):
    """The transport is severed; the operation needs the cloud."""


class LoopbackTransport:
    """In-process transport straight into a replica session (the test seam)."""

    def __init__(self, handler):
        # handler(raw message) -> raw response
        self._handler = handler
        self._responses: list[bytes] = []
        self.severed = False

    def send(self, raw: bytes) -> None:
        if self.severed:
            raise OfflineError("transport severed")
        self._responses.append(self._handler(raw))

    def recv(self) -> bytes:
        if not self._responses:
            raise OfflineError("no response pending")
        return self._responses.pop(0)

    def close(self) -> None:
        self.severed = True


class TcpTransport:
    """Plain stream socket with length-prefix framing."""

    def __init__(self, host: str, port: int, connect_timeout: float = 5.0):
        self._addr = (host, port)
        self._timeout = connect_timeout
        self._sock: socket.socket | None = None
        self.severed = False

    def _ensure(self) -> socket.socket:
        if self.severed:
            raise OfflineError("transport severed")
        if self._sock is None:
            self._sock = socket.create_connection(self._addr, timeout=self._timeout)
            self._sock.settimeout(30.0)
            # Each message is one small write awaiting a reply: without this,
            # Nagle holds it back until the peer's delayed ACK (~40 ms).
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self._sock

    def send(self, raw: bytes) -> None:
        try:
            self._ensure().sendall(raw)
        except OSError as exc:
            raise OfflineError(str(exc))

    def recv(self) -> bytes:
        if self._sock is None:
            raise OfflineError("not connected")
        try:
            raw = wire.read_net_message(self._sock.recv)
        except (OSError, wire.ChannelClosed) as exc:
            raise OfflineError(str(exc))
        return raw

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
        self.severed = True


class _Wrapper:
    """A transport layered over `inner`; severing and closing pass through."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def severed(self) -> bool:
        return self.inner.severed

    @severed.setter
    def severed(self, value: bool) -> None:
        self.inner.severed = value

    def sever(self) -> None:
        self.severed = True

    def restore(self) -> None:
        self.severed = False

    def close(self) -> None:
        self.inner.close()


class DelayedTransport(_Wrapper):
    """Wraps a transport with a simulated request-response delay.

    delay_ms models the full round trip. recv() of the i-th response waits
    until at least send_time(i) + delay, so responses consumed promptly cost
    the whole delay while responses consumed after client work cost only the
    remainder.
    """

    def __init__(self, inner, delay_ms: float = 0.0):
        super().__init__(inner)
        self.delay = delay_ms / 1000.0
        self._ready_at: list[float] = []

    def send(self, raw: bytes) -> None:
        self.inner.send(raw)
        self._ready_at.append(time.monotonic() + self.delay)

    def recv(self) -> bytes:
        raw = self.inner.recv()
        if self._ready_at:
            remaining = self._ready_at.pop(0) - time.monotonic()
            if remaining > 0:
                time.sleep(remaining)
        return raw


class RecordingTransport(_Wrapper):
    """Taps every message crossing the network boundary (taint scanning)."""

    def __init__(self, inner, tap):
        super().__init__(inner)
        self._tap = tap

    def send(self, raw: bytes) -> None:
        self._tap(raw)
        self.inner.send(raw)

    def recv(self) -> bytes:
        raw = self.inner.recv()
        self._tap(raw)
        return raw
