"""Joint fitting across hospitals with globally shared parameter dimensions.

Any subset of the three coefficients can be estimated globally: every hospital
takes one gradient step from the current mixed parameter vector, then the
shared dimensions are replaced by their cross-hospital mean before the next
step.  Hospitals whose fit diverges mid-run are dropped from subsequent means
and flagged rather than aborting the cohort; a hospital with fewer than 2
reports raises before the fit starts.

:func:`fit_shared` is the one cohort fit path: independent fits
(:func:`gapfit.optimizer.fit_cohort`) are the case with no shared dimension.
Every rule of a shared dimension lives in :func:`gapfit.optimizer._run_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, UsageError
from .model import Beta
from .optimizer import FitConfig, FitResult, _run_batch, _setup

__all__ = ["SharingSpec", "CohortFit", "fit_shared", "ALL_SHARING_SPECS"]


@dataclass(frozen=True)
class SharingSpec:
    """Which coefficient dimensions (1-based subset of {1, 2, 3}) are global."""

    shared_dims: frozenset = frozenset()

    def __post_init__(self):
        dims = frozenset(self.shared_dims)
        if not dims <= {1, 2, 3}:
            raise UsageError("shared_dims must be a subset of {1, 2, 3}")
        object.__setattr__(self, "shared_dims", dims)

    @property
    def label(self):
        if not self.shared_dims:
            return "individual"
        return "shared:" + ",".join(f"b{d}" for d in sorted(self.shared_dims))

    @classmethod
    def parse(cls, text):
        """Parse CLI-style specs: 'none', 'b1,b3', '1,3', ..."""
        text = text.strip().lower()
        if text in ("", "none", "individual"):
            return cls(frozenset())
        dims = set()
        for part in text.split(","):
            part = part.strip().removeprefix("b")
            if part not in ("1", "2", "3"):
                raise UsageError(f"cannot parse shared dimension {part!r}")
            dims.add(int(part))
        return cls(frozenset(dims))


#: All 8 combinations of global vs individual coefficients.
ALL_SHARING_SPECS = tuple(
    SharingSpec(frozenset(bits))
    for bits in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
)


@dataclass(eq=False)
class CohortFit:
    """The driver's arrays over a cohort's K rows: ``beta`` (K, 3), the
    (S+1, K) ``trace`` of losses (finite until a row stopped, NaN after),
    ``converged`` (K,) and ``steps_used`` (K,), at least 1 in every row."""

    beta: np.ndarray
    trace: np.ndarray
    converged: np.ndarray
    steps_used: np.ndarray

    @property
    def results(self):
        """A FitResult per row, its loss trace the row's recorded losses."""
        traces = self.trace.T.tolist()
        for k in np.flatnonzero(np.isnan(self.trace).any(axis=0)):
            traces[k] = [v for v in traces[k] if v == v] or [float("nan")]
        return [FitResult(Beta.from_array(b), t, c, s)
                for b, t, c, s in zip(self.beta, traces,
                                      self.converged.tolist(),
                                      self.steps_used.tolist())]


def fit_shared(cohort, spec, config=None, *, setup=None):
    """Fit a :class:`~gapfit.model.Cohort` jointly under a sharing spec;
    returns a :class:`CohortFit`.

    Every row is fitted: all must cover the same days, and a row with fewer
    than 2 reports raises :class:`InsufficientDataError`, as in
    :func:`gapfit.optimizer.fit`.  With an empty ``shared_dims`` these are
    independent fits, which is how :func:`gapfit.optimizer.fit_cohort` runs
    them.  ``setup`` is the rows' step sizes, starts and residual layout,
    as :func:`gapfit.optimizer._setup` builds them from ``cohort`` and
    ``config`` when it is not given; a caller fitting one cohort under
    several specs builds it once, and a caller may start where it likes.
    """
    if config is None:
        config = FitConfig()
    if len(cohort) < 1:
        raise UsageError("cohort must contain at least one series")
    short = np.flatnonzero(cohort.n_reports < 2)
    if short.size:
        raise InsufficientDataError(
            f"series {cohort.ids[short[0]]!r} has fewer than 2 reports")
    cohort.T  # rows of different lengths raise
    shared0 = tuple(d - 1 for d in sorted(spec.shared_dims))
    return CohortFit(*_run_batch(cohort.y, cohort.r, config, shared0,
                                 setup or _setup(cohort, config)))
