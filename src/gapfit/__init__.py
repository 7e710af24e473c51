"""gapfit: gap-bridging increment regression for irregularly reported
count time series, with a from-scratch reverse-mode autodiff engine,
benchmark models, parameter sharing, and evaluation protocols."""

from .autodiff import DiffScalar, GradientResult, Tape, check_gradient, gradient
from .benchmarks import (BenchmarkKind, fit_linreg_locf, locf_impute,
                         predict_mean, predict_modified_mean)
from .datagen import (MissingnessSpec, SeirParams, SeirState, SimSpec,
                      load_cohort, missingness_mask, save_cohort,
                      simulate_cohort, simulate_seir)
from .errors import (EvaluationError, GapfitError, InsufficientDataError,
                     ParseError, TapeMismatchError, UsageError)
from .evaluation import (BenchmarkPredictor, CensorSpec, EvalReport,
                         IncrementPredictor, WindowSpec, censor_and_recover,
                         censor_sweep, last_point_error, sensitivity_run,
                         sliding_windows)
from .model import Beta, Cohort, HospitalSeries, loss, predict_trajectory
from .optimizer import (FitConfig, FitResult, fit, fit_cohort, jacobi_etas,
                        warm_start_inits)
from .sharing import ALL_SHARING_SPECS, CohortFit, SharingSpec, fit_shared

__version__ = "0.1.0"
