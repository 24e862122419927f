"""Wire client and process control for the daemons the benchmark drives.

Frames are a 4-byte big-endian length followed by that many bytes of JSON
(docs/SERVICE.md). Every daemon started through `Daemons` is killed and
reaped when the benchmark exits, on every path: normal return, a failed
check (an exception), or SIGTERM/SIGINT/SIGHUP.
"""

import atexit
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import time


class ServiceError(Exception):
    """A response with ok=false; `code` is the typed error code."""

    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


class Conn:
    """One blocking connection; one request in flight at a time."""

    def __init__(self, port, host="127.0.0.1", timeout_s=120):
        # A wedged daemon fails the run instead of hanging it.
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.next_id = 1
        self.last_latency_s = 0.0
        self.last_response_bytes = 0

    def close(self):
        self.sock.close()

    def _recv_exact(self, n):
        chunks = []
        while n > 0:
            chunk = self.sock.recv(min(n, 1 << 20))
            if not chunk:
                raise ConnectionError("connection closed mid-frame")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def call(self, endpoint, params=None):
        """Sends one request and returns its `result`.

        The latency (send to last response byte) and the response frame size
        are kept in `last_latency_s` / `last_response_bytes`.
        """
        request_id = self.next_id
        self.next_id += 1
        body = json.dumps({"id": request_id, "endpoint": endpoint,
                           "params": params or {}}).encode()
        start = time.perf_counter()
        self.sock.sendall(struct.pack(">I", len(body)) + body)
        (length,) = struct.unpack(">I", self._recv_exact(4))
        payload = self._recv_exact(length)
        self.last_latency_s = time.perf_counter() - start
        self.last_response_bytes = length + 4
        response = json.loads(payload)
        if response.get("id") != request_id:
            raise ConnectionError(f"response id {response.get('id')} for "
                                  f"request {request_id}")
        if not response.get("ok"):
            error = response.get("error", {})
            raise ServiceError(error.get("code"), error.get("message"))
        return response["result"]


class Daemons:
    """Starts daemons, learns their ephemeral ports, and reaps them all."""

    def __init__(self, run_dir):
        self.run_dir = run_dir
        self.procs = []
        atexit.register(self.stop_all)
        for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(sig, self._on_signal)

    def _on_signal(self, signum, _frame):
        self.stop_all()
        sys.exit(128 + signum)

    def start(self, argv, env, name):
        """Launches `argv` and returns (proc, port) once it listens.

        The daemon prints "... listening on HOST:PORT" on stdout once bound;
        its stderr goes to `<run_dir>/<name>.log`.
        """
        log = open(os.path.join(self.run_dir, name + ".log"), "ab")
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log,
                                env=env, cwd=self.run_dir)
        log.close()
        self.procs.append(proc)
        line = proc.stdout.readline().decode()
        if "listening on" not in line:
            raise RuntimeError(f"{name} did not start: {line!r} "
                               f"(see {name}.log)")
        port = int(line.rsplit(":", 1)[1])
        return proc, port

    def kill(self, proc, sig=signal.SIGKILL):
        if proc.poll() is None:
            proc.send_signal(sig)
        proc.wait()
        proc.stdout.close()
        self.procs.remove(proc)

    def stop_all(self):
        while self.procs:
            self.kill(self.procs[-1])
