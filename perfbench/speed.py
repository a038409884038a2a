"""Host-speed probe, to take the host's drift out of the benchmark's timings.

The benchmark runs on a few cores of a shared host.  There the same pass of
the same code, in one process, runs up to 1.5x slower for minutes at a time
while other tenants load the machine; the process's CPU time slows with its
wall time, so the loss is not steal time but slower execution.  The probe
runs a fixed pure-Python kernel, shaped like totcol's hot loops (tuple keys,
set and dict lookups and inserts over a few thousand entries).  On a 2-vCPU
VM (2.1 GHz Xeon, CPython 3.11), over 25 s windows, the log of a dense-even
pass's time followed the log of the probe's with slope 1.0 (correlation
0.95).  In loaded periods the normalized pass times of unitary-dense and
dense-even spread 3-5 times less than the measured ones (quartile distance
over median of 25 s windows: 0.29 -> 0.08, 0.36 -> 0.07); in quiet periods
normalizing can add a few percent of spread, as the probe tracks the hot
loops only approximately.  The benchmark brackets every CLI call with two
probes and, on the workloads in workloads.NORMALIZED, reports its time scaled
to the reference speed:

    normalized = measured * REFERENCE_S / mean(probe before, probe after)

REFERENCE_S is the probe's time in the quiet periods of that VM, so a
normalized time reads as the time the call takes there when the host is
quiet.  The probe shares no code with totcol, so a change to totcol moves
the normalized time as it moves the measured one.
"""
import gc
import time

REFERENCE_S = 0.001   # probe time at the reference speed
REPEATS = 3           # probe = fastest of this many kernel runs


def _kernel():
    n = 300
    seen = set()
    first = {}
    repeats = 0
    for u in range(n):
        for j in range(12):
            v = (u * 7 + j * 13 + 1) % n
            key = (u, v) if u < v else (v, u)
            if key in seen:
                repeats += 1
            else:
                seen.add(key)
                first[key] = repeats
    return repeats, len(first)


def probe():
    """Seconds the kernel takes now: the fastest of REPEATS runs.

    The cyclic garbage collector is off meanwhile (the kernel makes no
    cycles), so the objects the calls under test left alive do not slow it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            _kernel()
            seconds = time.perf_counter() - start
            if best is None or seconds < best:
                best = seconds
    finally:
        if was_enabled:
            gc.enable()
    return best


def scale(before, after):
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_S * 2 / (before + after)
