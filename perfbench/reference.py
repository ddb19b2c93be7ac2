"""The host-speed reference that every benchmark time is scaled by.

The benchmark runs on shared hosts whose speed for single-threaded Python
drifts by up to a factor of two over seconds to minutes, which no
statistic over one run can remove.  So each time is measured next to a
fixed piece of pure-Python work, `reference`, and reported at the speed
of a host on which that work takes REF_SECONDS: seconds * REF_SECONDS /
(the reference's time around it).  A change to the library moves the
scaled times as it moves the raw ones; a change of host speed moves both
the time and the reference.
"""

from time import perf_counter

REF_SECONDS = 0.005  # least time of `reference` on a quiet host (Python 3.11, x86-64)
REF_REPS = 2         # timings per measurement of the reference; the least counts


def reference():
    """Fixed pure-Python work in the library's style: extended-gcd row
    reduction of small integer matrices and tuple-keyed dict updates."""
    n, acc, bits = 9, {}, 0
    for k in range(8):
        m = [[(i * 37 + j * 101 + i * j * (k + 7)) % 89 - 44 for j in range(n)]
             for i in range(n)]
        for c in range(n):
            for r in range(c + 1, n):
                a, b = m[c][c], m[r][c]
                x0, x1, y0, y1, u, v = 1, 0, 0, 1, a, b
                while v:
                    q = u // v
                    u, v = v, u - q * v
                    x0, x1 = x1, x0 - q * x1
                    y0, y1 = y1, y0 - q * y1
                if u == 0:
                    continue
                ra, rb = m[c], m[r]
                m[c] = [x0 * p + y0 * s for p, s in zip(ra, rb)]
                m[r] = [(b // u) * p - (a // u) * s for p, s in zip(ra, rb)]
        bits += sum(abs(x).bit_length() for row in m for x in row)
        for i in range(40):
            for j in range(40):
                key = (i % 13, j % (k + 5), (i * j) % 7)
                acc[key] = acc.get(key, 0) + i * j
    return bits + len(acc)


def reference_seconds():
    """The least of REF_REPS timings of `reference`."""
    out = []
    for _ in range(REF_REPS):
        t0 = perf_counter()
        reference()
        out.append(perf_counter() - t0)
    return min(out)


def scaled(seconds, before, after):
    """`seconds` at the reference speed, given the reference's times just
    before and just after they were measured."""
    return seconds * REF_SECONDS * 2 / (before + after)


def timed(fn):
    """(fn's result, its wall seconds scaled to the reference speed)."""
    before = reference_seconds()
    t0 = perf_counter()
    result = fn()
    seconds = perf_counter() - t0
    return result, scaled(seconds, before, reference_seconds())
