"""Host-speed calibration: rescales wall times to a quiet host.

On a shared host, neighbours slow the interpreter by up to 1.7x for tens
of seconds at a time, so a raw wall time moves by more between runs than
a change worth detecting.  :func:`calibrate` times a fixed pure-Python
loop just before and just after the measured interval; :func:`to_quiet`
scales the interval by how much slower than on a quiet host the loop ran.
A change to the program moves the interval but not the loop, so it shows
in full.
"""

from __future__ import annotations

import time

#: Iterations of the calibration loop: about 0.15 s on a quiet host,
#: long enough to average over the host's bursts of load.
CALIBRATION_STEPS = 2_500_000
#: :func:`calibrate` on a quiet 2-vCPU Sapphire Rapids-class KVM guest
#: (Python 3.11): the host speed that wall times are rescaled to.
REF_QUIET_S = 0.155


def calibrate() -> float:
    """Wall seconds of a fixed interpreter-bound loop that touches no
    memory beyond a few floats, so no program state can change its cost."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(CALIBRATION_STEPS):
        x = x * 0.999 + i % 7
    return time.perf_counter() - t0


def to_quiet(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` as a quiet host would have taken it, given the
    calibration readings just before and just after it."""
    return wall_s * REF_QUIET_S / ((before_s + after_s) / 2)
