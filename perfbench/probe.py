"""Host-speed probe, run beside the program for the whole measurement.

Every 50 ms it times a fixed pure-Python loop in thread CPU time, which
descheduling does not inflate but a slower core does.  On a host whose
cores change speed by ±20% over seconds, the loop's median over an
interval tracks the program's own slowdown in that interval, so the
generator scales its timings by it (see ``run.py``).  At about 1.3 ms per
50 ms it takes some 3% of one core.

Writes one ``perf_counter cpu_seconds`` line per sample, flushed, until
its standard input closes.
"""

import sys
import threading
import time

LOOP = 20_000
PERIOD_S = 0.05


def main() -> int:
    done = threading.Event()

    def watch() -> None:
        sys.stdin.read()
        done.set()

    threading.Thread(target=watch, daemon=True).start()
    while not done.is_set():
        t0 = time.thread_time()
        acc = 0
        for i in range(LOOP):
            acc += i * i
        cpu = time.thread_time() - t0
        sys.stdout.write(f"{time.perf_counter()!r} {cpu!r}\n")
        sys.stdout.flush()
        done.wait(PERIOD_S)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
