"""Host-speed reference for calibrated timings.

Shared hosts have slow spells: on a 2-vCPU virtual machine the same code
ran up to 1.7 times slower for seconds to minutes at a time, interpreter
and numpy alike, and the process CPU time slowed with it.  The best of a
few passes cannot remove a spell that covers a whole run.  So every
operation is timed next to a fixed kernel that shares the program's mix of
interpreter work and small numpy calls, and its time is reported at
reference speed:

    calibrated = measured * REFERENCE_S / (mean of the kernel's times
                                           just before and just after it)

REFERENCE_S is a fixed scale, not a measurement: a calibrated second is a
second on a host where the kernel takes REFERENCE_S.  The kernel does not
touch bosewave, so no change to the program can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 3e-3

_COEFFS = np.array([0.3 + 1j, -1.2, 2.0 - 0.5j, 0.7, 1.1 + 0.2j])
_MATRIX = np.array([[2.0, 0.5 + 1j, 0.1], [0.3, 1.0 - 1j, 0.2],
                    [0.05, 0.4, 3.0 + 0.5j]])
_GRID = np.linspace(0.0, 1.0, 2000)


def reference() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = perf_counter()
    acc = 0j
    for i in range(100):
        z = 0.5 + 0.01j * i
        acc += np.polyval(_COEFFS, z)
        acc += complex(np.sum(1.0 / (1.0 + 1j * (i + 1) - 2.0 * z * z * _COEFFS.real)))
        acc += float(np.sum(np.roll(_GRID, 1) - 0.5 * _GRID))
        for k in range(10):
            acc += (z * k) ** 2 / (1 + k)
    acc += np.linalg.eigvals(_MATRIX).sum()
    return perf_counter() - start


def scales(refs) -> list[float]:
    """Calibration factor of each operation from the reference times around it.

    ``refs`` has one more entry than there are operations; operation k sits
    between ``refs[k]`` and ``refs[k + 1]``.  (Averaging more neighbours
    tracked the host's speed less well.)
    """
    return [2.0 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
