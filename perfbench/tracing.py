"""In-memory spans around the benchmark's calls into qsp_lab.

A span is (name, start, end, parent, problem): ``name`` is
``<layer>.<stage>``, times come from ``time.perf_counter``, ``parent`` is
the index of the enclosing span (or -1) and ``problem`` the id of the
problem being solved.  With tracing off, ``call`` and ``span`` add one
Python call and record nothing.

``SpeedSampler`` times a fixed reference computation at a steady rate
while untraced passes run, so that their wall times can be converted to
seconds at a fixed host speed.
"""
from __future__ import annotations

import json
import signal
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

_REF_VECTOR = np.random.default_rng(0).standard_normal(32) + 0j

# Nominal duration of ``reference_seconds``: its time at the fast speed of a
# 2-vCPU shared x86-64 cloud host (its median there is about 2.1 ms).
# Times divided by the reference computation's time are reported in
# seconds at this speed.
REFERENCE_S = 0.0012


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, problem]
        self._stack: list[int] = []
        self.problem = ""

    @contextmanager
    def _record(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.problem])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def span(self, name: str):
        return self._record(name) if self.enabled else nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._record(name):
            return fn(*args, **kwargs)

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Seconds per span name in spans[first:last], minus time covered by children."""
        spans = self.spans[first:last]
        own = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= first:
                own[s[3] - first] -= s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for s, t in zip(spans, own):
            out[s[0]] += t
        return dict(out)

    def dump(self, path, meta: dict) -> None:
        rows = [
            {"name": n, "start": a, "end": b, "parent": p, "problem": q}
            for n, a, b, p, q in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": rows}))


def reference_seconds() -> float:
    """Wall time of one fixed computation shaped like the program's work.

    Fifty rounds of small numpy operations on a 32-vector (elementwise
    functions, a Kronecker product, a norm), about 1-2 ms.  Like qsp_lab's
    work on 5- to 7-qubit states it is dominated by numpy's cost per call,
    and the host's slow spells slow it by nearly the same share; a
    reference made of matrix products tracked them half as well.  Nothing
    in qsp_lab can change it.
    """
    t0 = time.perf_counter()
    x = _REF_VECTOR
    for _ in range(50):
        x = np.exp(1j * np.abs(x)) * x
        x = (x + np.kron(x[:4], x[:8])) / np.linalg.norm(x)
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the host's speed every ``interval`` seconds of wall time.

    A SIGALRM handler times ``reference`` and records (start, reference
    seconds, handler seconds).  Python runs the handler in the main thread
    between bytecodes, so the samples fall evenly over whatever the
    program is doing; the calls into qsp_lab are short enough (milliseconds)
    that none delays a sample by much.  Use as a context manager around
    the work to sample.
    """

    def __init__(self, interval: float = 0.03, reference=reference_seconds):
        self.interval = interval
        self.reference = reference
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        r = self.reference()
        self.samples.append((t0, r, time.perf_counter() - t0))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reference_speed_seconds(t0: float, t1: float, samples) -> tuple[float, float]:
    """Seconds of [t0, t1) at the reference speed, and the samples' own seconds in it.

    The wall time less the sampling handler's time, times the mean of
    ``REFERENCE_S / r`` over the samples taken in the interval: the share
    of the host's speed the interval ran at.  An interval with no sample
    takes the speed of the sample nearest its middle.
    """
    inside = [s for s in samples if t0 <= s[0] < t1]
    handler = sum(s[2] for s in inside)
    if not inside:
        mid = (t0 + t1) / 2
        inside = [min(samples, key=lambda s: abs(s[0] - mid))]
    speed = sum(REFERENCE_S / s[1] for s in inside) / len(inside)
    return (t1 - t0 - handler) * speed, handler
