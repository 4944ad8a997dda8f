"""Host pace for set-up times: a fixed pure-Python kernel, and the import probe.

Set-up is mostly interpreter work (importing numpy and lsnav, building a
round's problems), and it slows down with the host's speed the way solves do
(see README.md).  ``kernel_s`` times a fixed pure-Python loop; a set-up time
measured next to it is read at the reference pace with ``at_reference``:
seconds times ``REFERENCE_S`` / kernel time, so a set-up measured while the
host ran slow counts the same as on a fast host.  The kernel never touches
numpy or lsnav, so no change to lsnav moves it.

Run as a script, this module is the import probe:

    python3 perfbench/pace.py SRC

times ``import lsnav`` from ``SRC`` in this fresh interpreter, with the kernel
timed just before and just after, and prints ``<import seconds> <kernel seconds>``.
It imports nothing but ``sys`` and ``time`` itself, so numpy's import counts.
"""
import sys
import time

REFERENCE_S = 2.0e-3  # kernel time at the reference pace (the faster speed of a 2-vCPU Xeon)
PASSES = 7


def kernel_s() -> float:
    """Time of one pass of the fixed kernel (about 2 ms)."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    table = {}
    for i in range(3000):
        table[str(i)] = i
    return time.perf_counter() - start


def pace(passes: int = PASSES) -> float:
    """Median kernel time over ``passes`` passes."""
    return sorted(kernel_s() for _ in range(passes))[passes // 2]


def at_reference(seconds: float, kernel: float) -> float:
    return seconds * REFERENCE_S / kernel


if __name__ == "__main__":
    before = pace()
    sys.path.insert(0, sys.argv[1])
    start = time.perf_counter()
    import lsnav  # noqa: F401
    took = time.perf_counter() - start
    print(took, (before + pace()) / 2)
