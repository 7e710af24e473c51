import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gapfit import autodiff
from gapfit.autodiff import DiffScalar, Tape, check_gradient, gradient
from gapfit.errors import EvaluationError, TapeMismatchError
from gapfit.model import loss

from conftest import make_series, random_gapped_series

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def _node(tape, value):
    return DiffScalar(value, tape, tape.append((), ()))


# -- primitives: values and recorded partials -------------------------------

def test_mul_records_product_rule_partials():
    tape = Tape()
    a = _node(tape, 3.0)
    b = _node(tape, 4.0)
    c = a * b
    assert c.value == 12.0
    assert tape.parents[c.index] == (a.index, b.index)
    assert tape.partials[c.index] == (4.0, 3.0)


def test_square_partial():
    tape = Tape()
    x = _node(tape, -2.0)
    s = autodiff.square(x)
    assert s.value == 4.0
    assert tape.partials[s.index] == (-4.0,)


def test_div_partials_and_zero_divisor():
    tape = Tape()
    a = _node(tape, 1.0)
    b = _node(tape, 2.0)
    q = a / b
    assert q.value == 0.5
    assert tape.partials[q.index] == (0.5, -0.25)
    with pytest.raises(ZeroDivisionError):
        a / _node(tape, 0.0)
    with pytest.raises(ZeroDivisionError):
        1.0 / _node(tape, 0.0)


def test_remaining_primitive_partials():
    tape = Tape()
    x = _node(tape, 3.0)
    cases = [
        (x + 2.0, 5.0, (1.0,)),
        (2.0 - x, -1.0, (-1.0,)),
        (-x, -3.0, (-1.0,)),
        (x ** 3, 27.0, (27.0,)),
        (autodiff.exp(x), math.exp(3.0), (math.exp(3.0),)),
        (autodiff.log(x), math.log(3.0), (1.0 / 3.0,)),
    ]
    for out, value, partials in cases:
        assert out.value == pytest.approx(value)
        assert tape.partials[out.index] == pytest.approx(partials)


def test_pow_rejects_non_natural_exponents():
    tape = Tape()
    x = _node(tape, 2.0)
    with pytest.raises(TypeError):
        x ** -1
    with pytest.raises(TypeError):
        x ** 0.5
    assert (x ** 0).value == 1.0


def test_mixed_tapes_rejected():
    a = _node(Tape(), 1.0)
    b = _node(Tape(), 2.0)
    with pytest.raises(TapeMismatchError):
        a + b


def test_non_finite_raises_evaluation_error():
    tape = Tape()
    big = _node(tape, 1e308)
    with pytest.raises(EvaluationError):
        big * 1e308
    with pytest.raises(EvaluationError):
        autodiff.log(_node(tape, -1.0))


def test_generic_primitives_accept_plain_floats():
    assert autodiff.square(3.0) == 9.0
    assert autodiff.exp(0.0) == 1.0
    assert autodiff.log(1.0) == 0.0


# -- gradient ---------------------------------------------------------------

def test_gradient_polynomial():
    res = gradient(lambda x: autodiff.square(x[0]) + 2.0 * x[1], [3.0, 1.0])
    assert res.value == 11.0
    assert res.gradient == [6.0, 2.0]


def test_gradient_of_loss_at_anchor(anchor_series):
    res = gradient(lambda b: loss(anchor_series, b), [0.0, 0.0, 0.0])
    assert res.value == pytest.approx(2.0 / 3.0, abs=1e-12)
    expected = [-4.0 / 3.0, -10.0 / 3.0, -4.0 / 3.0]
    for g, e in zip(res.gradient, expected):
        assert g == pytest.approx(e, abs=1e-12)


def test_gradient_follows_executed_branch():
    def f(x):
        return autodiff.square(x[0]) if x[0].value > 0 else -x[0]

    assert gradient(f, [2.0]).gradient == [4.0]
    res = gradient(f, [-3.0])
    assert res.value == 3.0
    assert res.gradient == [-1.0]


def test_gradient_constant_function_is_zero():
    res = gradient(lambda x: DiffScalar(7.0), [1.0, 2.0])
    assert res.value == 7.0
    assert res.gradient == [0.0, 0.0]


def test_gradient_deterministic(anchor_series):
    f = lambda b: loss(anchor_series, b)
    x = [0.03, -0.11, 0.07]
    first = gradient(f, x)
    second = gradient(f, x)
    assert first.value == second.value
    assert first.gradient == second.gradient


def test_tapes_do_not_leak_between_calls():
    held = []

    def f(x):
        held.append(x[0])
        return autodiff.square(x[0])

    gradient(f, [2.0])
    before = len(held[0].tape)
    gradient(f, [5.0])
    # the first call's tape is untouched by the second evaluation
    assert len(held[0].tape) == before
    assert held[0].tape is not held[1].tape


@given(st.lists(finite, min_size=2, max_size=5))
def test_sum_of_squares_gradient_matches_analytic(xs):
    res = gradient(lambda v: sum(autodiff.square(x) for x in v), xs)
    for g, x in zip(res.gradient, xs):
        assert g == pytest.approx(2.0 * x, rel=1e-12, abs=1e-12)


# -- check_gradient ---------------------------------------------------------

def test_check_gradient_monomial():
    assert check_gradient(lambda x: x[0] ** 3, [2.0], h=1e-5) < 1e-8


def test_check_gradient_on_random_losses():
    rng = np.random.Generator(np.random.PCG64(7))
    for i in range(100):
        series = random_gapped_series(rng, id=f"g{i}")
        beta = rng.uniform(-0.4, 0.4, 3)
        disc = check_gradient(lambda b: loss(series, b), beta, h=1e-6)
        assert disc < 1e-6


def test_check_gradient_deep_composition():
    def f(x):
        v = x[0]
        for _ in range(20):
            v = autodiff.square(v)
        return v

    # f(x) = x^(2^20); the huge exponent makes the finite-difference
    # truncation term blow up at larger h, so probe close to the point.
    assert check_gradient(f, [1.0001], h=1e-9) < 1e-6


def test_check_gradient_rejects_nonpositive_h():
    with pytest.raises(ValueError):
        check_gradient(lambda x: x[0], [1.0], h=0.0)


# -- array values -----------------------------------------------------------

def test_where_picks_a_branch_or_records_masked_partials():
    tape = Tape()
    a = _node(tape, 2.0)
    assert autodiff.where(True, a, 5.0) is a
    assert autodiff.where(np.bool_(False), a, 5.0) == 5.0
    assert len(tape) == 1
    cond = np.array([True, False, True])
    assert autodiff.where(cond, 1.0, np.array([4.0, 5.0, 6.0])).tolist() == \
        [1.0, 5.0, 1.0]
    res = gradient(lambda v: autodiff.where(cond, v[0] * v[1], v[1]),
                   [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert res.value.tolist() == [4.0, 5.0, 18.0]
    assert res.gradient[0].tolist() == [4.0, 0.0, 6.0]
    assert res.gradient[1].tolist() == [1.0, 1.0, 3.0]


def test_array_rows_get_their_own_gradients():
    def f(v):
        x, c = v
        return autodiff.square(x) * c - 3.0 * x / c + autodiff.exp(x)

    xs, cs = np.array([0.5, -1.0, 2.0]), np.array([1.5, 2.0, -0.5])
    res = gradient(f, [xs, cs])
    for k in range(3):
        one = gradient(f, [xs[k], cs[k]])
        assert res.value[k] == pytest.approx(one.value, rel=1e-15)
        assert [g[k] for g in res.gradient] == pytest.approx(one.gradient,
                                                             rel=1e-15)
    disc = check_gradient(f, [xs, cs])
    assert disc.shape == (3,) and disc.max() < 1e-8


def test_inputs_and_output_share_one_shape():
    rows = np.array([1.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        gradient(lambda v: v[0] * rows, [3.0])
    with pytest.raises(ValueError):
        gradient(lambda v: v[0] + v[1], [3.0, rows])


def test_non_finite_rows_turn_nan_and_spare_the_others():
    with np.errstate(divide="ignore", invalid="ignore"):
        res = gradient(lambda v: 1.0 / v[0] + v[1] * v[0],
                       [[0.0, 2.0, np.inf], [1.0, 3.0, 0.0]])
    assert np.isnan(res.value[[0, 2]]).all()
    assert res.value[1] == 6.5
    assert np.isnan(res.gradient[0][[0, 2]]).all()
    assert res.gradient[0][1] == pytest.approx(-0.25 + 3.0)
    assert res.gradient[1][1] == 2.0
    # a finite value whose derivative overflows fails its row too
    with np.errstate(over="ignore"):
        res = gradient(lambda v: autodiff.log(v[0]), [[5e-324, 1.0]])
    assert np.isnan(res.value[0]) and np.isnan(res.gradient[0][0])
    assert res.value[1] == 0.0 and res.gradient[0][1] == 1.0
