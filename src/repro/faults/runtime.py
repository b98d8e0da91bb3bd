"""Process-wide fault-injection seam.

Production code calls the module-level hooks (``on_connect``,
``wrap_socket``, ``maybe_stall``, ``on_snapshot_read``,
``on_snapshot_write``); while no plan is installed every hook is a
zero-overhead early return, so the seam costs one ``is None`` check on
the paths that matter.

Install/uninstall is process-global (tests use the ``injected_faults``
context manager to guarantee cleanup).  The socket wrapper delegates
everything it does not intercept, so the rest of the stack — frame
codec, pipelining, timeouts — sees an ordinary socket object.
"""

from __future__ import annotations

import contextlib
import threading
import time

from .plan import FaultPlan

__all__ = [
    "install",
    "uninstall",
    "installed",
    "active_plan",
    "injected_faults",
    "on_connect",
    "wrap_socket",
    "maybe_stall",
    "on_snapshot_read",
    "on_snapshot_write",
    "FaultSocket",
]

_INSTALL_LOCK = threading.Lock()
_PLAN: FaultPlan | None = None  # guarded-by: _INSTALL_LOCK


def install(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-wide active fault plan."""
    global _PLAN
    if not isinstance(plan, FaultPlan):
        raise TypeError(f"expected FaultPlan, got {type(plan).__name__}")
    with _INSTALL_LOCK:
        _PLAN = plan
    return plan


def uninstall() -> None:
    global _PLAN
    with _INSTALL_LOCK:
        _PLAN = None


def installed() -> bool:
    return _PLAN is not None


def active_plan() -> FaultPlan | None:
    return _PLAN


@contextlib.contextmanager
def injected_faults(plan: FaultPlan):
    """Install ``plan`` for the duration of a ``with`` block."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


# -- hook points called by production code --------------------------------------------------


def on_connect(site: str) -> None:
    """Called before a client connect attempt; may refuse or delay it."""
    plan = _PLAN
    if plan is None:
        return
    event = plan.decide(f"{site}:connect")
    if event is None:
        return
    if event.delay_s > 0:
        time.sleep(event.delay_s)
    if event.kind == "refuse":
        raise ConnectionRefusedError(f"[fault-injection] refused connect at {site}")
    if event.kind == "drop":
        raise ConnectionResetError(f"[fault-injection] dropped connect at {site}")


def wrap_socket(sock, site: str):
    """Wrap an established socket so the plan can break its send/recv."""
    if _PLAN is None:
        return sock
    return FaultSocket(sock, site)


def maybe_stall(site: str) -> None:
    """Server-side slow-shard hook: sleep if the plan says so."""
    plan = _PLAN
    if plan is None:
        return
    event = plan.decide(site)
    if event is not None and event.kind in ("stall", "delay") and event.delay_s > 0:
        time.sleep(event.delay_s)


def on_snapshot_read(site: str, raw: bytes) -> bytes:
    """Corrupt snapshot bytes on the read path (checksum seam test)."""
    plan = _PLAN
    if plan is None:
        return raw
    return plan.corrupt_bytes(f"snapshot:read:{site}", raw)


def on_snapshot_write(site: str, raw: bytes) -> bytes:
    """Corrupt snapshot bytes on the write path."""
    plan = _PLAN
    if plan is None:
        return raw
    return plan.corrupt_bytes(f"snapshot:write:{site}", raw)


class FaultSocket:
    """Socket proxy that injects plan-driven faults on send/recv.

    A ``drop`` poisons the stream: every later operation fails too, the
    same way a genuinely reset TCP connection behaves — the client must
    reconnect, it cannot limp on.
    """

    def __init__(self, sock, site: str) -> None:
        self._sock = sock
        self._site = site
        self._poisoned = False  # single-owner: one connection, its I/O thread
        self._recv_fault: str | None = None  # decided per frame, applied by recv()

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def _check_poisoned(self) -> None:
        if self._poisoned:
            raise ConnectionResetError(
                f"[fault-injection] poisoned connection at {self._site}"
            )

    def _decide(self, op: str):
        plan = _PLAN
        if plan is None:
            return None
        return plan.decide(f"{self._site}:{op}")

    def sendall(self, data, *args):
        self._check_poisoned()
        event = self._decide("send")
        if event is None:
            return self._sock.sendall(data, *args)
        if event.delay_s > 0:
            time.sleep(event.delay_s)
        if event.kind == "drop":
            self._poisoned = True
            raise ConnectionResetError(
                f"[fault-injection] dropped send at {self._site}"
            )
        if event.kind == "truncate":
            # transmit a strict prefix, then poison: the peer sees a
            # mid-frame EOF / truncated frame
            cut = max(1, len(data) // 2) if len(data) > 1 else 0
            if cut:
                self._sock.sendall(data[:cut])
            self._poisoned = True
            raise ConnectionResetError(
                f"[fault-injection] truncated send at {self._site}"
            )
        if event.kind == "bitflip" and data:
            flipped = bytearray(data)
            flipped[len(flipped) // 2] ^= 0x01
            return self._sock.sendall(bytes(flipped), *args)
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        # route single sends through the same decision stream as sendall
        self.sendall(data, *args)
        return len(data)

    def before_frame(self) -> None:
        """The recv-side decision point: the frame reader calls it once per
        frame it is about to read.  Deciding per ``recv()`` call would make
        the ``:recv`` stream follow kernel segmentation — one frame is one
        to several calls, and several frames can arrive in one — so the
        frame a fault lands on, and with it everything downstream (replays,
        reconnects, every later op index), would vary from run to run under
        one seed.  A ``drop`` breaks the connection here; ``truncate`` and
        ``bitflip`` act on the next bytes actually received."""
        self._check_poisoned()
        event = self._decide("recv")
        if event is None:
            return
        if event.delay_s > 0:
            time.sleep(event.delay_s)
        if event.kind == "drop":
            self._poisoned = True
            raise ConnectionResetError(
                f"[fault-injection] dropped recv at {self._site}"
            )
        if event.kind in ("truncate", "bitflip"):
            self._recv_fault = event.kind

    def recv(self, bufsize, *args):
        self._check_poisoned()
        kind, self._recv_fault = self._recv_fault, None
        if kind == "truncate":
            self._poisoned = True
            return b""  # mid-stream EOF
        data = self._sock.recv(bufsize, *args)
        if kind == "bitflip" and data:
            flipped = bytearray(data)
            flipped[len(flipped) // 2] ^= 0x01
            return bytes(flipped)
        return data

    def recv_into(self, buffer, nbytes=0, *args):
        # the frame reader uses recv(); keep recv_into simple and honest
        self._check_poisoned()
        return self._sock.recv_into(buffer, nbytes, *args)

    def close(self) -> None:
        self._sock.close()

    def fileno(self) -> int:
        return self._sock.fileno()

    def settimeout(self, value) -> None:
        self._sock.settimeout(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSocket(site={self._site!r}, poisoned={self._poisoned})"
