"""The contrast-robustness check of acceptance gates 3 and 4, which their
negative controls in ``test_harness.py`` share.

A contrast sweep passes when the spread ``max / min`` of its flux errors
is at most ``SPREAD_BOUND``.
"""

SPREAD_BOUND = 1.25


def spread_failure(eflux):
    """The failure message of a sweep with flux errors ``eflux`` whose
    spread is not within ``SPREAD_BOUND`` (a NaN spread included), or None
    when the sweep passes."""
    spread = max(eflux) / min(eflux)
    if not spread <= SPREAD_BOUND:
        return f"flux-error spread {spread:.4f} > {SPREAD_BOUND}"
    return None
