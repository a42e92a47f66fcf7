"""How much the host itself drifts: run ``run.reference_loop``, the loop
that scales every reported time, back to back for 30 s, and report its
rate's spread between 100 ms samples and between 5 s windows.

    python3 bench/drift.py
"""
from __future__ import annotations

import statistics
import time

from run import reference_loop

SECONDS = 30
SAMPLE_S = 0.1
WINDOW_S = 5


def sample_rate() -> float:
    """Reference loops per second over one SAMPLE_S sample."""
    count, start = 0, time.perf_counter()
    while time.perf_counter() - start < SAMPLE_S:
        reference_loop()
        count += 1
    return count / (time.perf_counter() - start)


def main():
    samples = [sample_rate() for _ in range(round(SECONDS / SAMPLE_S))]
    per_window = round(WINDOW_S / SAMPLE_S)
    windows = [statistics.mean(samples[i:i + per_window])
               for i in range(0, len(samples) - per_window + 1, per_window)]
    median = statistics.median(samples)
    print(f"100 ms samples: median {median:.0f} loops/s, "
          f"min {min(samples) / median - 1:+.1%}, max {max(samples) / median - 1:+.1%}")
    wmed = statistics.median(windows)
    print(f"{WINDOW_S} s windows: " + " ".join(f"{w / wmed - 1:+.1%}" for w in windows))


if __name__ == "__main__":
    main()
