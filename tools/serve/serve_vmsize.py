#!/usr/bin/env python3
"""copydetectd's address space stays flat under connection churn.

Starts a daemon, serves 1,000 `stats` connections strictly one after
another (each closed before the next opens), and requires the daemon's
VmSize (/proc/<pid>/status) after the last to be within 64 MiB of its
value after the first 10. A fast client matters: glibc adds a malloc
arena, with a 64 MiB reservation, when a connection thread allocates
while the previous one is still exiting, which a client that spawns a
process per connection is too slow to provoke.

    serve_vmsize.py <copydetectd> <work-dir>
"""

import os
import socket
import subprocess
import sys
import time

CONNECTIONS = 1000
WARMUP = 10
LIMIT_KIB = 64 * 1024


def vmsize_kib(pid):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmSize:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmSize for pid {pid}")


def stats(sock_path, deadline):
    """One connection: connect (retrying while the daemon starts), send
    a stats request, read the reply line, close."""
    while True:
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(20)
        try:
            conn.connect(sock_path)
            break
        except OSError:
            conn.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)
    with conn:
        conn.sendall(b'{"verb":"stats"}\n')
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                break
            reply += chunk
    if b'"ok":true' not in reply:
        raise RuntimeError(f"stats failed: {reply!r}")


def main():
    daemon, work_dir = sys.argv[1], sys.argv[2]
    os.makedirs(work_dir, exist_ok=True)
    sock_path = os.path.join(work_dir, "vmsize.sock")
    if os.path.exists(sock_path):
        os.unlink(sock_path)
    log_path = os.path.join(work_dir, "vmsize_daemon.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen([daemon, f"--socket={sock_path}"],
                                stdout=log, stderr=log)
    try:
        deadline = time.monotonic() + 20
        for _ in range(WARMUP):
            stats(sock_path, deadline)
        after_warmup = vmsize_kib(proc.pid)
        for _ in range(WARMUP, CONNECTIONS):
            stats(sock_path, deadline)
        after_all = vmsize_kib(proc.pid)
    finally:
        proc.terminate()
        proc.wait(timeout=30)
    print(f"VmSize {after_warmup} KiB after {WARMUP} connections, "
          f"{after_all} KiB after {CONNECTIONS}")
    growth = after_all - after_warmup
    if growth > LIMIT_KIB:
        with open(log_path) as log:
            sys.stderr.write(log.read())
        print(f"FAIL: VmSize grew {growth} KiB over {CONNECTIONS} "
              f"sequential connections (limit {LIMIT_KIB} KiB)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
