"""Reverse-mode automatic differentiation with a per-evaluation tape.

Each evaluation of a function records the primitives it actually executed
(including whichever branches were taken) on a fresh :class:`Tape`.  A single
reverse sweep over that tape then accumulates adjoints and yields the exact
gradient of the executed path.

A value is a float or a numpy array of independent rows, each of which gets
its own gradient from the one sweep.  Supported primitives: add, sub, mul,
div, neg, square, natural-exponent power, exp, log and :func:`where`.
Operators are overloaded on :class:`DiffScalar`, so any loss written as
ordinary arithmetic (loops and branches included) can be differentiated
without modification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, TapeMismatchError

__all__ = ["Tape", "DiffScalar", "GradientResult", "gradient", "check_gradient",
           "square", "exp", "log", "where"]


class Tape:
    """Append-only record of executed primitives.

    Node ``i`` stores the indices of its parent nodes and the local partial
    derivatives of its value with respect to each parent.  Parents always
    precede their children, so one reverse pass visits every node exactly
    once.
    """

    __slots__ = ("parents", "partials")

    def __init__(self):
        self.parents = []
        self.partials = []

    def __len__(self):
        return len(self.parents)

    def append(self, parents, partials):
        self.parents.append(parents)
        self.partials.append(partials)
        return len(self.parents) - 1


class DiffScalar:
    """A value plus its node in the active tape.

    Instances with ``tape is None`` are constants; they participate in
    arithmetic but record nothing.  A DiffScalar is bound to one tape for its
    whole lifetime; mixing tapes raises :class:`TapeMismatchError`.  A float
    value that turns non-finite raises :class:`EvaluationError`; an array
    carries it, and :func:`gradient` turns the rows it reached NaN.
    """

    __slots__ = ("value", "tape", "index")

    # numpy defers to the reflected operators below, so ``array * node``
    # records a node instead of building an array of objects
    __array_ufunc__ = None

    def __init__(self, value, tape=None, index=-1):
        self.value = _number(value)
        self.tape = tape
        self.index = index

    def __repr__(self):
        return f"DiffScalar({self.value!r})"

    # -- arithmetic operators -------------------------------------------

    def __add__(self, other):
        return _record(self.value + _val(other), ((self, 1.0), (other, 1.0)))

    __radd__ = __add__

    def __sub__(self, other):
        return _record(self.value - _val(other), ((self, 1.0), (other, -1.0)))

    def __rsub__(self, other):
        return _record(_val(other) - self.value, ((self, -1.0), (other, 1.0)))

    def __mul__(self, other):
        o = _val(other)
        return _record(self.value * o, ((self, o), (other, self.value)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _val(other)
        if _is_float(o) and o == 0.0:
            raise ZeroDivisionError("division by zero in differentiated code")
        return _record(self.value / o,
                       ((self, 1.0 / o), (other, -self.value / (o * o))))

    def __rtruediv__(self, other):
        v = self.value
        if _is_float(v) and v == 0.0:
            raise ZeroDivisionError("division by zero in differentiated code")
        o = _val(other)
        return _record(o / v, ((self, -o / (v * v)), (other, 1.0 / v)))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise TypeError("only natural-number exponents are supported")
        if n == 0:
            return DiffScalar(1.0)
        return _record(self.value ** n, ((self, n * self.value ** (n - 1)),))

    def __neg__(self):
        return _record(-self.value, ((self, -1.0),))


def _number(value):
    """``value`` as a float, or as a float array when it has dimensions."""
    return value if type(value) is np.ndarray and value.ndim else float(value)


def _is_float(value):
    return type(value) is not np.ndarray


def _val(x):
    return x.value if isinstance(x, DiffScalar) else _number(x)


def _record(value, operands):
    """``value`` as a DiffScalar whose node has the taped ones among
    ``operands``, pairs of (operand, partial derivative) in parent order."""
    tape, parents, partials = None, [], []
    for x, d in operands:
        if isinstance(x, DiffScalar) and x.tape is not None:
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise TapeMismatchError("operands bound to different tapes")
            parents.append(x.index)
            partials.append(d)
    if _is_float(value) and not math.isfinite(value):
        raise EvaluationError(f"non-finite value {value!r} in primitive",
                              step=len(tape) if tape is not None else None)
    if tape is None:
        return DiffScalar(value)
    return DiffScalar(value, tape,
                      tape.append(tuple(parents), tuple(partials)))


# -- generic primitives (work on DiffScalar, floats and arrays) ----------

def square(x):
    if isinstance(x, DiffScalar):
        return _record(x.value * x.value, ((x, 2.0 * x.value),))
    return x * x


def exp(x):
    if isinstance(x, DiffScalar):
        v = np.exp(x.value)
        return _record(v, ((x, v),))
    return np.exp(x)


def log(x):
    if isinstance(x, DiffScalar):
        if _is_float(x.value) and x.value <= 0.0:
            raise EvaluationError("log of non-positive value", step=None)
        return _record(np.log(x.value), ((x, 1.0 / x.value),))
    return np.log(x)


def where(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``: a scalar ``cond`` takes one
    branch and records nothing, a boolean array picks entry by entry."""
    if type(cond) is not np.ndarray:
        return a if cond else b
    if isinstance(a, DiffScalar) or isinstance(b, DiffScalar):
        return _record(np.where(cond, _val(a), _val(b)),
                       ((a, cond), (b, ~cond)))
    return np.where(cond, a, b)


@dataclass
class GradientResult:
    """Function value together with one gradient entry per input."""

    value: float
    gradient: list


def gradient(f, x):
    """Evaluate ``f`` at ``x`` and return its exact gradient.

    ``f`` receives a list of DiffScalars, one per entry of ``x``, and must
    return a value built from the supported primitives.  The gradient is
    obtained by a single reverse sweep over the tape recorded during the
    forward evaluation; branches contribute the derivative of the path
    actually taken.

    The output has the shape of every input.  With floats a non-finite
    output raises :class:`EvaluationError`.  With (K,) arrays, row k reading
    only entry k of each input, each row gets its own derivatives, and a row
    whose value or gradient is non-finite gets NaN in both.
    """
    tape = Tape()
    inputs = [DiffScalar(_number(np.array(v, dtype=float)), tape,
                         tape.append((), ())) for v in x]
    out = f(inputs)
    if not isinstance(out, DiffScalar):
        out = DiffScalar(out)
    value = out.value
    if any(np.shape(s.value) != np.shape(value) for s in inputs):
        raise ValueError("the output and every input must share one shape")
    if _is_float(value) and not math.isfinite(value):
        raise EvaluationError("function produced a non-finite output",
                              step=out.index)
    adjoint = [None] * len(tape)
    if out.tape is not None:
        adjoint[out.index] = 1.0 if _is_float(value) else np.ones_like(value)
    for i in range(out.index, -1, -1):
        a = adjoint[i]
        if a is None:
            continue
        for p, d in zip(tape.parents[i], tape.partials[i]):
            g = a * d
            adjoint[p] = g if adjoint[p] is None else adjoint[p] + g
    grads = [s.value * 0.0 if adjoint[s.index] is None else adjoint[s.index]
             for s in inputs]
    if _is_float(value):
        return GradientResult(value, [float(g) for g in grads])
    bad = ~np.isfinite(value)
    for g in grads:
        bad |= ~np.isfinite(g)
    return GradientResult(np.where(bad, np.nan, value),
                          [np.where(bad, np.nan, g) for g in grads])


def check_gradient(f, x, h=1e-6):
    """Max relative discrepancy between the tape gradient and central FD.

    Returns ``max_i |g_ad[i] - g_fd[i]| / max(1, |g_ad[i]|)``, for (K,)
    inputs each row's own.  ``f`` must also accept plain floats and arrays,
    as it does when written with the generic primitives above.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    g_ad = gradient(f, x).gradient
    xs = [_number(np.array(v, dtype=float)) for v in x]
    worst = 0.0
    for i, g in enumerate(g_ad):
        lo, hi = list(xs), list(xs)
        lo[i], hi[i] = xs[i] - h, xs[i] + h
        g_fd = (_val(f(hi)) - _val(f(lo))) / (2.0 * h)
        worst = np.maximum(worst, abs(g - g_fd) / np.maximum(1.0, abs(g)))
    return _number(worst)
