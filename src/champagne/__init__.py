"""Toolkit for deciding whether a family of bubble balls in a ball domain is
avoidable or unavoidable for the censored alpha-stable process (alpha in (1,2)).

Two independent routes are provided and can be cross-checked:

* ``criteria`` evaluates capacity-based divergence criteria (boundary series,
  shell series, Whitney/Wiener/Aikawa sums), the Whitney sums as (lower,
  upper) bounds;
* ``simulate`` estimates the hitting probability of the bubble union by a
  jump-suppression Monte-Carlo chain.

The simulator is a discretization of the censored process, not an exact
construction; the ``simulate`` module docstring and
``harness.APPROXIMATION_NOTES`` state the approximations.
"""

from .geometry import BallDomain, dist_to_boundary

__version__ = "0.1.0"

__all__ = [
    "BallDomain",
    "dist_to_boundary",
    "__version__",
]
