"""A fixed reference computation that measures the speed of the machine.

The benchmark runs on shared machines whose speed changes by tens of
percent from one second to the next, as other tenants come and go.  run.py
times this computation in a fresh process between any two commands, and
reports each command's latency as a multiple of the reference times
measured just before and just after it.  The computation is the
benchmark's own code: it never calls `splitalg`, and runs before
`splitalg` is imported, so a change to the program does not move it.  It
is the same kind of work the program does, exact rational arithmetic on
the structure constants of an algebra in pure Python, but it imports
nothing the program imports, so that the set-up time measured in the same
process is not shortened.

    python3 perfbench/reference.py   # prints the seconds one pass takes
"""

import math
import time

DIMENSION = 5
VECTORS = 6


def _values(count: int, seed: int = 12345) -> list[int]:
    """count integers in -2..2 from a fixed linear congruential stream."""
    out = []
    for _ in range(count):
        seed = (1103515245 * seed + 12345) % 2**31
        out.append(seed % 5 - 2)
    return out


def _add(a, b):
    num, den = a[0] * b[1] + b[0] * a[1], a[1] * b[1]
    g = math.gcd(num, den)
    return (num // g, den // g)


def _mul(a, b):
    num, den = a[0] * b[0], a[1] * b[1]
    g = math.gcd(num, den)
    return (num // g, den // g)


ZERO = (0, 1)


def _product(mul, x, y):
    out = [ZERO] * DIMENSION
    for i, a in enumerate(x):
        if a[0]:
            for j, b in enumerate(y):
                if b[0]:
                    ab = _mul(a, b)
                    for k, c in enumerate(mul[i, j]):
                        if c[0]:
                            out[k] = _add(out[k], _mul(ab, c))
    return tuple(out)


def work() -> int:
    """The associator (xy)z - x(yz) of a fixed product on every triple of
    VECTORS fixed vectors; returns the number of coordinates where the two
    sides differ, a fixed number."""
    values = iter(_values(DIMENSION**3 + VECTORS * DIMENSION))
    mul = {
        (i, j): tuple((next(values), 1) for _ in range(DIMENSION))
        for i in range(DIMENSION)
        for j in range(DIMENSION)
    }
    vectors = [tuple((next(values), 1) for _ in range(DIMENSION)) for _ in range(VECTORS)]
    differ = 0
    for x in vectors:
        for y in vectors:
            xy = _product(mul, x, y)
            for z in vectors:
                left = _product(mul, xy, z)
                right = _product(mul, x, _product(mul, y, z))
                differ += sum(1 for a, b in zip(left, right) if a != b)
    return differ


def seconds() -> float:
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(seconds())
