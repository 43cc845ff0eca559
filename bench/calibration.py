"""Machine-speed calibration: the unit of every time the benchmark gates.

The shared 2-vCPU machines this benchmark was tuned on change speed by up to
1.7x within minutes, as other tenants load the cores.  Runs of any length
cannot average that out: across ten 25 s runs per workload, wall-clock
throughput and median latency spread by 19-31% (interquartile range over
median), more than the largest bound a metric may have (0.25).  So every op
and every set-up is followed, outside its timing, by the fixed kernel below,
and the runner reports its time in *reference seconds*:

    reference seconds = wall seconds * REFERENCE_S / kernel seconds

where the kernel was timed right after the op.  A faster library lowers the
op's wall time and leaves the kernel alone, so it shows in full; a slower
machine stretches both.  The kernel time used for one op is the median over
its five nearest ops, so that a disturbance of a single kernel run does not
move one op.  Wall-clock figures are reported beside them.

The kernel mixes the kinds of work the library does (small 3-operand einsums,
batched small eigendecompositions, interpreter-level dict and integer work).
It defines the unit: changing it, or REFERENCE_S, breaks comparison with
earlier results.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The kernel's time on the tuning machine in its fast state.
REFERENCE_S = 0.0016

_rng = np.random.default_rng(0)
_L = _rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2))
_RHO = _L @ _L.conj().T
_SYM = _rng.standard_normal((8, 4, 4))
_SYM = _SYM + _SYM.transpose(0, 2, 1)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    start = perf_counter()
    acc = 0j
    for _ in range(150):
        acc += np.einsum("ij,jk,lk->il", _L, _RHO, _L.conj())[0, 0]
    for _ in range(40):
        acc += np.linalg.eigvalsh(_SYM)[0, 0]
    table = {}
    for i in range(6000):
        table[i] = i * i
    return perf_counter() - start


def reference_factors(kernel_s: list[float]) -> list[float]:
    """Factor from wall to reference seconds for each of a sequence of units,
    from the kernel times measured after them."""
    return [
        REFERENCE_S / statistics.median(kernel_s[max(0, i - 2):i + 3])
        for i in range(len(kernel_s))
    ]
