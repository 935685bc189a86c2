"""Starts the benchmark's child processes on request.

Linux charges a program started by ``exec`` with the peak RSS of the process
image it replaced, and a child started directly by the harness replaces a
copy of the harness, whose RSS grows with the generated inputs.  This small
process starts every child instead, so a child's ``ru_maxrss`` is its own.

Protocol over the ``SOCK_SEQPACKET`` socket whose descriptor is ``argv[1]``:
the harness sends ``{"argv": [...], "env": {...}}`` with the child's stdout
and stderr descriptors attached; the spawner replies ``{"pid": n}``, waits
for the child, then replies ``{"exit": code, "maxrss_kb": k}``.  It exits
when the harness closes the socket.
"""

import json
import os
import socket
import sys


def main() -> int:
    sock = socket.socket(fileno=int(sys.argv[1]))
    while True:
        try:
            msg, fds, _, _ = socket.recv_fds(sock, 1 << 20, 2, socket.MSG_CMSG_CLOEXEC)
        except ConnectionError:
            return 0
        if not msg:
            return 0
        request = json.loads(msg)
        try:
            pid = os.posix_spawn(
                request["argv"][0], request["argv"], request["env"],
                file_actions=[
                    (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                    (os.POSIX_SPAWN_DUP2, fds[0], 1),
                    (os.POSIX_SPAWN_DUP2, fds[1], 2),
                ],
            )
        finally:
            for fd in fds:
                os.close(fd)
        sock.sendall(json.dumps({"pid": pid}).encode())
        _, status, usage = os.wait4(pid, 0)
        sock.sendall(json.dumps({"exit": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss}).encode())


if __name__ == "__main__":
    sys.exit(main())
