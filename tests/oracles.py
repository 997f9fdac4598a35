"""Reference computations that the tests check the package against."""
import numpy as np

from cartanfinsler import domains

BISECTION_STEPS = 60


def bisection_gauge(spec, w, steps: int = BISECTION_STEPS) -> float:
    """Gauge by bisecting the ray boundary crossing; oracle for closed forms."""
    w = np.asarray(w, dtype=np.complex128)
    if float(np.max(np.abs(w))) == 0.0:
        return 0.0
    # gauge(w) <= sqrt(2)*frobenius on every type, so w/hi is interior
    hi = 2.0 * float(np.linalg.norm(w)) + 1e-9
    lo = 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if domains.contains(spec, w / mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
