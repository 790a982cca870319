"""The in-package brentq and QAGS against SciPy's, bit for bit.

``ionlattice._solvers`` ports SciPy's ``brentq`` and ``quad`` (QUADPACK's
QAGS) with the same float operations in the same order, so every result
must equal SciPy's under ``==``, not just agree to a tolerance. The port's
``quad`` takes a rule integrand, so each scalar function is lifted through
the rule's nodes first.
"""

import inspect
import math
import random
import sys
from collections import Counter

import pytest

from ionlattice import _solvers

scipy_integrate = pytest.importorskip("scipy.integrate")
scipy_optimize = pytest.importorskip("scipy.optimize")


def lift(f):
    """The rule integrand of a scalar function: its 21 values on an interval."""
    return lambda centr, hlgth: [f(x) for x in _solvers.rule_nodes(centr, hlgth)]


def _qagse_ier(f, a, b, epsabs, epsrel, limit):
    """QUADPACK's error code for the call, which ``quad`` only words."""
    from scipy.integrate import _quadpack

    return _quadpack._qagse(f, a, b, (), 1, epsabs, epsrel, limit)[-1]


def _integrand(kind, rng):
    """A seeded integrand on [0, 1] of one of five hard families."""
    p = rng.uniform(-0.95, 2.0)
    c = rng.uniform(0.05, 0.95)
    if kind == "endpoint-power":
        return lambda x: x**p * math.cos(c * x) if x > 0.0 else 0.0
    if kind == "endpoint-log":
        return lambda x: math.log(x) * (1.0 + p * x) if x > 0.0 else 0.0
    if kind == "interior":
        q = rng.uniform(0.05, 0.7)
        return lambda x: abs(x - c) ** -q if x != c else 0.0
    if kind == "oscillation":
        w = rng.uniform(5.0, 400.0)
        return lambda x: math.cos(w * x + c) * math.exp(-p * x)
    if kind == "peak":
        s = 10.0 ** rng.uniform(-5.0, -1.0)
        return lambda x: s / ((x - c) ** 2 + s * s)
    raise ValueError(kind)


#: QUADPACK's nonzero exits come with an IntegrationWarning from SciPy
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

KINDS = ("endpoint-power", "endpoint-log", "interior", "oscillation", "peak")
LIMITS = (7, 50, 200)
TOLERANCES = ((1.49e-8, 1.49e-8), (1e-10, 1e-9), (1e-13, 1e-13), (0.0, 2e-14), (1e-4, 0.0))


def test_quad_equals_scipy_bit_for_bit():
    rng = random.Random(20090)
    codes = Counter()
    calls = 0
    for trial in range(160):
        kind = KINDS[trial % len(KINDS)]
        f = _integrand(kind, rng)
        a, b = (0.0, 1.0) if rng.random() < 0.7 else (rng.uniform(-0.5, 0.0), rng.uniform(1.0, 2.0))
        for limit in LIMITS:
            for epsabs, epsrel in TOLERANCES:
                expect = scipy_integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
                got = _solvers.quad(lift(f), a, b, epsabs, epsrel, limit)
                assert got == expect, (kind, a, b, epsabs, epsrel, limit)
                codes[_qagse_ier(f, a, b, epsabs, epsrel, limit)] += 1
                calls += 1
    assert calls >= 2000
    # every exit QUADPACK has for a finite interval was taken: success, the
    # subdivision limit, roundoff, a bad point, and divergence
    assert {0, 1, 2, 3, 5} <= set(codes), codes


def test_quad_single_interval_and_exact_rules():
    # polynomials up to degree 31 are exact for the 21-point Kronrod rule
    for f in (lambda x: 3.0, lambda x: x**7 - 2.0 * x, math.exp):
        for limit in (1, 2, 50):
            assert _solvers.quad(lift(f), -0.3, 1.7, limit=limit) == scipy_integrate.quad(
                f, -0.3, 1.7, limit=limit
            )


def _root_problem(kind, rng):
    r = rng.uniform(-5.0, 5.0)
    k = rng.uniform(0.1, 10.0)
    if kind == 0:
        return r, lambda x: (x - r) * (1.0 + k * (x - r) ** 2)
    if kind == 1:
        return r, lambda x: math.tanh(k * (x - r)) + 1e-3 * (x - r) ** 3
    if kind == 2:
        return r, lambda x: math.expm1(0.1 * k * (x - r))
    return r, lambda x: math.atan(x - r) * math.sqrt(abs(x) + k)


def test_brentq_equals_scipy_bit_for_bit():
    rng = random.Random(1973)
    calls = 0
    for trial in range(20000):
        r, f = _root_problem(trial % 4, rng)
        a, b = r - rng.uniform(1e-3, 20.0), r + rng.uniform(1e-3, 20.0)
        if rng.random() < 0.5:
            a, b = b, a
        for rtol in (8.9e-16, 1e-10, 1e-6):
            for xtol in (2e-12, 1e-300):
                expect = scipy_optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
                got = _solvers.brentq(f, a, b, xtol=xtol, rtol=rtol)
                assert got == expect and type(got) is float, (trial, a, b, rtol, xtol)
                calls += 1
    assert calls == 120000


@pytest.mark.parametrize(
    "f, a, b, kwargs",
    [
        (lambda x: x * x + 1.0, 0.0, 1.0, {}),  # no sign change
        (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, {}),  # NaN value
        (lambda x: x - 0.7, 0.0, math.nan, {}),  # NaN at an endpoint
        (lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0, {"maxiter": 3}),  # no convergence
    ],
)
def test_brentq_raises_what_scipy_raises(f, a, b, kwargs):
    with pytest.raises(Exception) as expect:
        scipy_optimize.brentq(f, a, b, **kwargs)
    with pytest.raises(Exception) as got:
        _solvers.brentq(f, a, b, **kwargs)
    assert type(got.value) is type(expect.value)
    assert str(got.value) == str(expect.value)


def test_brentq_returns_an_exact_endpoint_root():
    for f, a, b in ((lambda x: x, 0.0, 2.0), (lambda x: x - 2.0, 0.0, 2.0)):
        assert _solvers.brentq(f, a, b) == scipy_optimize.brentq(f, a, b)


def _runs_of_line(fn, text, call):
    """``call()`` and how often the line of ``fn`` that reads ``text`` ran."""
    source, first = inspect.getsourcelines(fn)
    (target,) = [first + i for i, line in enumerate(source) if line.strip() == text]
    runs = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            runs.append(target)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code is fn.__code__ else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, len(runs)


def test_brentq_bisects_where_the_extrapolation_divides_by_zero():
    """Function values near 1e-200 make the extrapolation's divisor, a
    product of two difference quotients, underflow to zero. C divides by
    zero there and bisects; Python raises ZeroDivisionError, which the port
    turns into the same bisection, bit for bit."""
    rng = random.Random(2009)
    branch = 0
    for trial in range(200):
        r, f = _root_problem(trial % 4, rng)
        tiny = (lambda f: lambda x: 1e-200 * f(x))(f)
        a, b = r - rng.uniform(1e-3, 20.0), r + rng.uniform(1e-3, 20.0)
        got, runs = _runs_of_line(
            _solvers.brentq, 'stry = float("nan")', lambda: _solvers.brentq(tiny, a, b)
        )
        assert got == scipy_optimize.brentq(tiny, a, b), (trial, a, b)
        branch += runs
    assert branch > 0
