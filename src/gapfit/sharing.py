"""Joint fitting across hospitals with globally shared parameter dimensions.

Any subset of the three coefficients can be estimated globally: every hospital
takes one gradient step from the current mixed parameter vector, then the
shared dimensions are replaced by their cross-hospital mean before the next
step.  Hospitals whose fit fails (too few reports, or divergence mid-run) are
dropped from subsequent means and flagged rather than aborting the cohort.

:func:`fit_shared` is the one cohort fit path: independent fits
(:func:`gapfit.optimizer.fit_cohort`) are the case with no shared dimension.
Every rule of a shared dimension lives in :func:`gapfit.optimizer._run_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .model import Beta
from .optimizer import (FitConfig, FitResult, _batch_arrays,
                        _resolve_overrides, _run_batch)

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
            part = part.strip().lstrip("b")
            if part not in ("1", "2", "3"):
                raise UsageError(f"cannot parse shared dimension {part!r}")
            dims.add(int(part))
        return cls(frozenset(dims))


#: All 8 combinations of global vs individual coefficients.
ALL_SHARING_SPECS = tuple(
    SharingSpec(frozenset(bits))
    for bits in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
)


@dataclass
class CohortFit:
    """Per-hospital results of a joint fit.

    ``results[k]`` is a FitResult or None when hospital k never entered the
    fit (too few reports).  ``history``, when requested, holds the full
    (K, 3) parameter matrix after every step.
    """

    results: list
    history: list | None = None


def fit_shared(cohort, spec, config=None, record_history=False):
    """Fit a cohort jointly with the given sharing specification.

    With an empty ``shared_dims`` these are independent per-hospital fits,
    which is how :func:`gapfit.optimizer.fit_cohort` runs them.
    """
    if config is None:
        config = FitConfig()
    if len(cohort) < 1:
        raise UsageError("cohort must contain at least one series")
    usable = [k for k, s in enumerate(cohort) if s.n_reports >= 2]
    results = [None] * len(cohort)
    history = [] if record_history else None
    if usable:
        fitted = [cohort[k] for k in usable]
        eta, init = _resolve_overrides(fitted, config)
        y, r, z = _batch_arrays([s.with_scaled_z(config.incidence_scale)
                                 for s in fitted])
        shared0 = tuple(d - 1 for d in sorted(spec.shared_dims))
        beta, traces, converged, steps_used = _run_batch(
            y, r, z, config, shared_dims=shared0, eta=eta, init=init,
            history=history)
        for i, k in enumerate(usable):
            results[k] = FitResult(Beta.from_array(beta[i]), traces[i],
                                   converged[i], int(steps_used[i]))
    full_history = None
    if history is not None:
        full_history = []
        for h in history:
            mat = np.full((len(cohort), 3), np.nan)
            mat[usable] = h
            full_history.append(mat)
    return CohortFit(results=results, history=full_history)
