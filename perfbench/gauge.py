"""Machine pace: how slowly this machine runs Python right now.

On a shared host the same work can take a third longer for tens of
seconds at a time, longer than a whole run, so medians inside one run
cannot remove it.  The benchmark therefore times a fixed pure-Python task
(regex scanning, dict counting, string splitting and joining, the kinds of
work varlex does) between measurement windows.  Its time over
``NOMINAL_S`` is the pace: 1.0 at the nominal speed, 1.3 when everything
runs 30% slower.  Reported rates are multiplied by the pace and reported
times divided by it, which expresses them at the nominal speed.  The raw
figures are printed next to them.
"""

from __future__ import annotations

import re
import statistics
import time

# Typical time of one gauge task on a shared 2-core host with CPython 3.11.
NOMINAL_S = 0.004

_TEXT = " ".join(
    f"GENE{i % 37} p.V{i}E was seen in {i % 11} of {i % 7 + 3} cases "
    f"(c.{i * 3}T>A; rs{1000 + i}); Müller et al. reported α-{i % 5}"
    for i in range(40)
)
_TOKEN = re.compile(r"[0-9A-Za-z]+(?:[.>][0-9A-Za-z]+)*")
# Guarded patterns shaped like varlex's grammar rules, so the regex engine
# carries a share of the gauge as it does of the workloads.
_RULES = [
    re.compile(p, re.IGNORECASE) for p in (
        r"(?<![0-9A-Za-z])[ACGT]\s*>\s*[ACGT](?![0-9A-Za-z])",
        r"(?<![0-9A-Za-z])(?:p\.)?[A-Z][a-z]{2}\d+[A-Z][a-z]{2}(?![0-9A-Za-z])",
        r"(?<![0-9A-Za-z])chr\s*(?:\d+|X|Y)\s*:?\s*\d+",
        r"(?<![0-9A-Za-z])\d+\s*(?:base|bp)\s+(?:pair\s+)?(?:deletion|insertion)",
        r"(?<![0-9A-Za-z])rs\d+(?![0-9A-Za-z])",
        r"(?<![0-9A-Za-z])[A-Z]\d+[A-Z](?![0-9A-Za-z])",
    )
]


def _task() -> float:
    started = time.perf_counter()
    for _ in range(3):
        counts: dict[str, int] = {}
        for m in _TOKEN.finditer(_TEXT):
            key = m.group().lower()
            counts[key] = counts.get(key, 0) + 1
        for rule in _RULES:
            for m in rule.finditer(_TEXT):
                counts[m.group()] = 1
        words = _TEXT.split(" ")
        for _ in range(4):
            words = sorted(words, key=len)
            "|".join(w.encode("utf-8").decode("utf-8") for w in words)
    return time.perf_counter() - started


def pace() -> float:
    """Current pace: the median of three gauge tasks over the nominal."""
    return statistics.median(_task() for _ in range(3)) / NOMINAL_S
