"""The scalar ports against scipy, bit for bit, and a run without scipy.

scipy is the oracle here and nowhere else at run time: ``_ports.ndtr``,
``ndtri`` and ``brentq`` must return scipy's exact doubles (nan equal to
nan, signed zeros told apart) and raise scipy's exception types, and the
package must import and compute with every scipy import refused.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from uniconsist import _ports, chi2, kernel, quad, wchisq

ROOT = Path(__file__).resolve().parents[1]


def same(a: float, b: float) -> bool:
    """Equal doubles: == with the sign of zero, and nan equal to nan."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def assert_same(got, want, at):
    assert type(got) is float
    assert same(got, float(want)), (at, got, float(want))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
@example([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324,
          2.2250738585072014e-308, -1e-310, 1.7976931348623157e308,
          -1.7976931348623157e308])
@example([-38.5, -37.6, -37.5, -8.0 * math.sqrt(2.0), -math.sqrt(2.0),
          -1.0, -1e-8, 1e-8, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 8.3, 38.5])
def test_ndtr_equals_scipy(xs):
    for x in xs:
        assert_same(_ports.ndtr(x), special.ndtr(x), x)


def test_ndtr_equals_scipy_on_a_dense_sweep():
    """Both tails and every branch of erf/erfc, 40 000 points at once."""
    gen = np.random.default_rng(21)
    xs = np.concatenate([gen.normal(0.0, 2.0, 10000), gen.uniform(-40.0, 40.0, 10000),
                         gen.uniform(-1.5, 1.5, 10000), np.linspace(-40.0, 12.0, 10000)])
    got = np.array([_ports.ndtr(x) for x in xs.tolist()])
    assert got.tobytes() == special.ndtr(xs).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
@example([0.0, 1.0, 1e-300, 5e-324, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52, 0.5,
          math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 1e-14])
def test_ndtri_equals_scipy_on_the_unit_interval(ys):
    for y in ys:
        assert_same(_ports.ndtri(y), special.ndtri(y), y)


def test_ndtri_equals_scipy_on_a_dense_sweep():
    """Central, z < 8 and z >= 8 branches, down to 1e-300 and up to 1 - 1e-16."""
    gen = np.random.default_rng(21)
    ys = np.concatenate([gen.random(10000), 10.0 ** gen.uniform(-300.0, 0.0, 10000),
                         1.0 - 10.0 ** gen.uniform(-16.0, 0.0, 10000)])
    got = np.array([_ports.ndtri(y) for y in ys.tolist()])
    assert got.tobytes() == special.ndtri(ys).tobytes()


@pytest.mark.parametrize("y", [-0.0, -1e-300, -0.5, 1.0 + 2.0 ** -52, 1.5,
                               math.inf, -math.inf, math.nan])
def test_ndtri_outside_the_unit_interval_equals_scipy(y):
    assert_same(_ports.ndtri(y), special.ndtri(y), y)
    if y != 0.0:
        assert math.isnan(_ports.ndtri(y))


def outcome(fn, *args, **kw):
    """fn's value, or the type of the exception it raised."""
    try:
        return fn(*args, **kw)
    except Exception as err:  # noqa: BLE001 - the type is the outcome
        return type(err)


def assert_same_outcome(f, a, b, **kw):
    got = outcome(_ports.brentq, f, a, b, **kw)
    want = outcome(optimize.brentq, f, a, b, **kw)
    if isinstance(want, type):
        assert got is want, (a, b, kw, got, want)
    else:
        assert_same(got, want, (a, b, kw))


# Smooth functions with a root at c, plus two whose differences vanish:
# flat steps and subnormal values make Brent's divisors zero.
FUNCTIONS = {
    "cubic": lambda c, k: lambda x: (x - c) * (1.0 + k * (x - c) ** 2),
    "tanh": lambda c, k: lambda x: math.tanh(k * (x - c)),
    "exp": lambda c, k: lambda x: math.expm1(k * (x - c)),
    "cos": lambda c, k: lambda x: math.cos(k * x) - math.cos(k * c),
    "cube": lambda c, k: lambda x: (k * (x - c)) ** 3,
    "tiny": lambda c, k: lambda x: 1e-300 * k * (x - c) ** 3,
    "steps": lambda c, k: lambda x: round(4.0 * k * (x - c)) / 4.0,
    "subnormal": lambda c, k: lambda x: 1e-320 * math.tanh(k * (x - c)),
}


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(FUNCTIONS)), st.floats(-2.0, 2.0), st.floats(0.05, 20.0),
       st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
       st.sampled_from([{}, {"xtol": 1e-12}, {"xtol": 1e-300},
                        {"rtol": 1e-10}, {"maxiter": 3}]))
def test_brentq_equals_scipy_on_random_brackets(name, c, k, a, b, kw):
    """Value or exception type: a bracket without a sign change is a
    ValueError, too few iterations a RuntimeError."""
    assert_same_outcome(FUNCTIONS[name](c, k), a, b, **kw)


@pytest.mark.parametrize("f, a, b, kw", [
    (lambda x: x, 1.0, 2.0, {}),                      # same sign
    (lambda x: 1e-200, 0.0, 1.0, {}),                  # product underflows
    (lambda x: -1e-200 if x == 0.0 else 1e-200, 0.0, 1.0, {}),
    (lambda x: math.nan, 0.0, 1.0, {}),                # nan value
    (lambda x: x - 0.3 if x > 0.0 else math.nan, 0.0, 1.0, {}),
    (lambda x: x - 0.3, 0.0, 1.0, {"maxiter": 1}),     # no convergence
    (lambda x: x - 0.3, 0.0, 1.0, {"xtol": 0.0}),      # bad tolerances
    (lambda x: x - 0.3, 0.0, 1.0, {"rtol": 1e-17}),
    (lambda x: x, 0.0, 1.0, {}),                       # a root at an end
    (lambda x: x - 1.0, 0.0, 1.0, {}),
])
def test_brentq_edge_cases_equal_scipy(f, a, b, kw):
    assert_same_outcome(f, a, b, **kw)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64), st.floats(0.001, 0.5),
       st.booleans())
def test_weighted_chisq_quantile_root_equals_scipy(seed, size, alpha, offsets):
    """The call site's own root search, run once with each brentq."""
    gen = np.random.default_rng(seed)
    w = gen.exponential(1.0, size)
    d = gen.normal(0.0, 2.0, size) if offsets else None
    got = wchisq.weighted_chisq_quantile(alpha, w, d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wchisq, "brentq", optimize.brentq)
        want = wchisq.weighted_chisq_quantile(alpha, w, d)
    assert_same(got, want, (seed, size, alpha, offsets))


@pytest.mark.parametrize("name", ["box", "epanechnikov"])
def test_half_level_radius_equals_scipy(name):
    k = kernel.builtin_kernel(name)
    got = kernel.half_level_radius(k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "brentq", optimize.brentq)
        want = kernel.half_level_radius(k)
    assert_same(got, want, name)


# Every scalar the package used scipy for, computed through the public API.
_SCALARS = """
import numpy as np

from uniconsist import (Basis, Chi2Config, FixedKappa, KernelTestConfig,
                        SignalSpec, bridge_weights, builtin_kernel,
                        chi2_predicted_beta, gaussian_upper_quantile,
                        half_level_radius, kernel_power_prediction,
                        predict_beta)
from uniconsist.wchisq import weighted_chisq_quantile

x = gaussian_upper_quantile(0.05)
sig = SignalSpec(Basis.TRIG_FULL, np.array([[0.03, -0.01], [0.0, 0.02]]))
box = builtin_kernel("box")
scalars = {
    "x_alpha": x,
    "predict_beta": predict_beta(1.5, 4.0, x),
    "chi2_beta": chi2_predicted_beta(sig, Chi2Config(alpha=0.05, m=16), 512),
    "kernel_beta": kernel_power_prediction(
        sig, KernelTestConfig(kernel=box, alpha=0.05, h=0.1), 512),
    "radius": half_level_radius(box),
    "quantile": weighted_chisq_quantile(0.05, [0.5, 0.25, 0.125], [1.0, 0.0, -2.0]),
    "critical": FixedKappa(bridge_weights(1024)).form().exact_critical(0.05),
}
"""


def test_runs_without_scipy():
    """A fresh interpreter that refuses every scipy import computes every
    scalar the package used scipy for, and each equals what the same call
    gives in this process with scipy's routines in the ports' place."""
    code = ('import json, sys\n'
            'sys.modules["scipy"] = None  # any scipy import raises ImportError\n'
            + _SCALARS + 'print(json.dumps(scalars))\n')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["critical"] == 0.46126239541541825

    with pytest.MonkeyPatch.context() as mp:
        for module, names in ((quad, ("ndtr", "ndtri")), (chi2, ("ndtr",)),
                              (kernel, ("ndtr", "brentq")), (wchisq, ("brentq",))):
            for name in names:
                mp.setattr(module, name, getattr(optimize if name == "brentq"
                                                 else special, name))
        space = {}
        exec(_SCALARS, space)
    want = space["scalars"]
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert same(got[key], float(value)), (key, got[key], float(value))
