"""Host memory-speed probe for the exchange benchmark.

The host this benchmark was tuned on slows down for tens of seconds to
minutes at a time, and slows memory-bound Python most: in one slow
phase the fastest SUDA ``assess`` on a fixed 500-row dataset went from
80 to 130-160 ms while a pure arithmetic loop slowed by only 25%.
No statistic taken inside one run removes that, because every job of
the run is slowed alike.  The probe below is slowed alike too: it reads
random slots of a list of int objects, so each read follows a pointer
to a scattered object and writes its reference count, as the
program's dictionaries and tuples do.  Over 20-second windows of that
experiment the ratio of SUDA's fastest time to the probe's fastest
time spread 0.09 (quartile distance over median) where SUDA's alone
spread 0.47-0.62.  Arrays of machine integers of 2-96 MB tracked it
worse (0.13-0.37).

The probe runs in a child process, so its 80 MB never count in the
benchmark's ``peak_rss_mb``, and only while the benchmark waits for
it, so it never competes with a job for a core.  Run as a script, it
answers each line on standard input with ``REPS`` timings, in seconds.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

#: Int objects in the probe's list: about 80 MB with the list itself.
SLOTS = 2_000_000
#: Random reads per timing.
READS = 200_000
#: Timings per request; :meth:`HostSpeed.probe` keeps the fastest.
REPS = 5
#: About the probe's fastest time, in seconds, on the host the
#: benchmark was tuned on (2-vCPU Xeon VM, Python 3.11.7) in a quiet
#: phase, where it read 38-47 ms.  Dividing by it keeps normalized
#: times close to seconds on that host.
REFERENCE_S = 0.045


def serve() -> None:
    rng = random.Random(0)
    values = list(range(SLOTS))
    order = [rng.randrange(SLOTS) for _ in range(READS)]
    for _ in sys.stdin:
        times = []
        for _ in range(REPS):
            began = time.perf_counter()
            total = 0
            for slot in order:
                total += values[slot]
            times.append(time.perf_counter() - began)
        print(" ".join(map(repr, times)), flush=True)


class HostSpeed:
    """The probe's child process."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def probe(self) -> float:
        """The probe's fastest time now, in seconds."""
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        answer = self.process.stdout.readline()
        if not answer:
            raise RuntimeError("host speed probe exited")
        return min(map(float, answer.split()))

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
