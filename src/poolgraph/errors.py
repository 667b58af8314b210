"""Exception types shared across the package, and the one size policy."""

import math
from typing import Callable

# Most seconds one table build, Monte Carlo call or oracle run is predicted to
# take; each route predicts from counts that follow its loops (BENCH_19.json).
LIMIT_SECONDS = 600
# Most bytes a Monte Carlo run is predicted to hold at once (BENCH_37.json).
LIMIT_BYTES = 2**32


class ValidationError(ValueError):
    """An input (ensemble spec, parameter, file) violates a stated constraint."""


class SizeLimitError(RuntimeError):
    """Work refused before it started: predicted to take over LIMIT_SECONDS or need over LIMIT_BYTES, or an input over a size limit."""


def refuse_over_limit(work: str, predicted_seconds: Callable[..., float], *args) -> None:
    """SizeLimitError when predicted_seconds(*args), past the float range or not, exceeds LIMIT_SECONDS."""
    try:
        seconds = predicted_seconds(*args)
    except OverflowError:
        seconds = math.inf
    if seconds > LIMIT_SECONDS:
        shown = f"{seconds:.3g} s" if seconds < math.inf else "more than 1e308 s"
        raise SizeLimitError(f"{work} is predicted to take {shown}, over the limit of {LIMIT_SECONDS} s")
