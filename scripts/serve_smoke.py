#!/usr/bin/env python3
"""End-to-end smoke test for `sample_cli serve` (the serving daemon).

Drives the daemon over its length-prefixed stdin/stdout protocol and
asserts the response-status taxonomy, coalescing/registry counters, and
per-seed determinism. Three daemon instances:

 1. The happy path: sample draws (deterministic per seed, registry hit
    on the second request), a stats snapshot, a malformed verb (status
    1), an invalid request (status 3) — then a clean shutdown, exit 0.
 2. The typed-failure path: a scoped `symmetric.commit.pivot` failpoint
    fails every commit-path draw. Each request must fail with status 4
    (NumericalError) and never status 2 (an untyped internal error), and
    the failure must leave the session reusable: the second request
    runs on the same session (epoch unchanged, one registry miss).
 3. The framing-error path: an oversize declared length is
    unrecoverable — the daemon answers status 1 and exits 2.

Runs under the CI fault-injection leg too: the canned scoped schedule
is law-invariant (recoverable guard events only), so phase 1 still
draws successfully; phase 2 overrides PARDPP_FAILPOINTS itself.
"""

import os
import re
import signal
import struct
import subprocess
import sys


def frame(payload: str) -> bytes:
    data = payload.encode()
    return struct.pack(">I", len(data)) + data


class Daemon:
    def __init__(self, binary, env=None):
        run_env = dict(os.environ)
        if env:
            run_env.update(env)
        self.proc = subprocess.Popen(
            [binary, "serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=run_env,
        )

    def request(self, payload: str):
        """One frame out, one framed (status, body) back."""
        self.proc.stdin.write(frame(payload))
        self.proc.stdin.flush()
        return self.read_response()

    def read_response(self):
        head = self.proc.stdout.read(4)
        assert len(head) == 4, f"short frame header: {head!r}"
        (size,) = struct.unpack(">I", head)
        payload = self.proc.stdout.read(size).decode()
        status_line, _, body = payload.partition("\n")
        assert status_line.startswith("status="), payload
        return int(status_line[len("status=") :]), body

    def close(self) -> int:
        self.proc.stdin.close()
        return self.proc.wait()


def parse_kv(body: str) -> dict:
    pairs = {}
    for line in body.splitlines():
        key, eq, value = line.partition("=")
        if eq:
            pairs[key] = value
    return pairs


def session_field(stats: dict, suffix: str) -> int:
    pattern = re.compile(r"^session\.[0-9a-f]{32}\." + re.escape(suffix) + "$")
    values = [int(value) for key, value in stats.items() if pattern.match(key)]
    assert len(values) == 1, f"expected one session.<fp>.{suffix}: {stats}"
    return values[0]


def sample_lines(body: str):
    return [l for l in body.splitlines() if l.startswith("sample=")]


def kernel_request(seed, count):
    # Diagonally dominant symmetric 6x6 kernel: SymmetricKdppOracle.
    rows = []
    for i in range(6):
        rows.append(
            ",".join("4" if i == j else "0.3" for j in range(6))
        )
    return (
        "sample\n"
        f"seed={seed}\ncount={count}\nk=2\nkind=kernel\n"
        "matrix=" + ";".join(rows) + "\n"
    )


def phase_happy_path(binary):
    daemon = Daemon(binary)
    status, body = daemon.request(kernel_request(seed=11, count=3))
    assert status == 0, (status, body)
    first = sample_lines(body)
    assert len(first) == 3, body
    assert all(len(l.split("=")[1].split()) == 2 for l in first), body

    # Same seed, same kernel: bit-identical draws through the registry.
    status, body = daemon.request(kernel_request(seed=11, count=3))
    assert status == 0, (status, body)
    assert sample_lines(body) == first, "draws are not seed-deterministic"

    status, body = daemon.request("stats\n")
    assert status == 0, (status, body)
    stats = parse_kv(body)
    assert stats["draws"] == "6", stats
    assert stats["completed"] == "2", stats
    assert stats["registry.sessions"] == "1", stats
    assert stats["registry.misses"] == "1", stats
    assert stats["registry.hits"] == "1", stats

    status, body = daemon.request("bogus-verb\n")
    assert status == 1, (status, body)
    status, body = daemon.request(
        "sample\nk=99\nmatrix=" + kernel_request(1, 1).split("matrix=")[1]
    )
    assert status == 3, (status, body)  # k exceeds ground size

    status, body = daemon.request("shutdown\n")
    assert status == 0, (status, body)
    code = daemon.close()
    assert code == 0, f"clean shutdown exited {code}"
    print("phase 1 (happy path + taxonomy): ok")


def phase_typed_failure(binary):
    # Scoped so only draws (inside a FailpointScope) fail — session
    # construction and priming stay clean.
    daemon = Daemon(
        binary,
        env={"PARDPP_FAILPOINTS": "symmetric.commit.pivot=scoped,prob:1"},
    )
    epochs = []
    for seed in (5, 6):
        status, body = daemon.request(kernel_request(seed=seed, count=1))
        assert status == 4, (
            f"expected a typed NumericalError (status 4), got {status}: {body}"
        )
        status, body = daemon.request("stats\n")
        assert status == 0, (status, body)
        stats = parse_kv(body)
        epochs.append(session_field(stats, "epoch"))
    assert epochs[0] == epochs[1], f"failed draw rebuilt the session: {epochs}"
    assert stats["registry.misses"] == "1", stats
    assert stats["registry.hits"] == "1", stats
    assert stats["registry.sessions"] == "1", stats
    assert session_field(stats, "failures") == 2, stats

    status, body = daemon.request("shutdown\n")
    assert status == 0, (status, body)
    assert daemon.close() == 0
    print("phase 2 (typed failure, session reused): ok")


def phase_framing_error(binary):
    daemon = Daemon(binary)
    # Declared length 0xffffffff: beyond kMaxFrameBytes, unrecoverable.
    daemon.proc.stdin.write(b"\xff\xff\xff\xff")
    daemon.proc.stdin.flush()
    status, body = daemon.read_response()
    assert status == 1, (status, body)
    code = daemon.close()
    assert code == 2, f"framing error should exit 2, got {code}"
    print("phase 3 (unrecoverable framing error -> exit 2): ok")


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <sample_cli-binary>", file=sys.stderr)
        return 2
    binary = sys.argv[1]
    if hasattr(signal, "alarm"):
        signal.alarm(300)  # fail loudly rather than hang CI
    phase_happy_path(binary)
    phase_typed_failure(binary)
    phase_framing_error(binary)
    print("serve smoke: all phases ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
