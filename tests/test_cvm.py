"""Cramer-von Mises: exact statistic, population series, null tables."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import (cvm_null_sample, cvm_population_quadrature,
                     cvm_statistic_quadrature, truncation_tail_bound,
                     two_term_chisq_sf)
from uniconsist import cvm
from uniconsist.cvm import (_J_NULL_MAX, SLICE_VALUES, CvmNullTable,
                            bridge_weights, build_cvm_null_table,
                            cvm_consistency_index, cvm_population,
                            cvm_statistic, decide, weighted_null_quantiles)
from uniconsist.errors import ValidationError
from uniconsist.rng import STREAM_NULL_TABLE, substream
from uniconsist.signals import Basis, SignalSpec
from uniconsist.wchisq import weighted_chisq_quantile, weighted_chisq_sf

ROOT = Path(__file__).resolve().parents[1]
RNG = np.random.default_rng(515)


def test_statistic_single_midpoint():
    # u = 0.5, grid value 1/2: squared gap 0 plus 1/12
    assert cvm_statistic(np.array([0.5])) == pytest.approx(1.0 / 12.0)


def test_statistic_ideal_spacings():
    for n in (2, 5, 32):
        u = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        assert cvm_statistic(u) == pytest.approx(1.0 / (12.0 * n))


def test_statistic_leaves_its_input_untouched():
    """The subtract and the square run in place on a sorted copy, never on
    the caller's array (a read-only block of samples scores the same)."""
    pts = np.random.default_rng(22).random((3, 40))
    keep = pts.copy()
    got = cvm_statistic(pts)
    assert np.array_equal(pts, keep)
    pts.flags.writeable = False
    assert np.array_equal(cvm_statistic(pts), got)
    assert cvm_statistic(pts[1]) == got[1]


def test_statistic_empty_sample():
    with pytest.raises(ValidationError):
        cvm_statistic(np.array([]))


def test_statistic_matches_exact_quadrature():
    """Order-statistic formula equals n int (F_n - t)^2 dt, 50 random samples."""
    for _ in range(50):
        n = int(RNG.integers(1, 60))
        pts = RNG.random(n)
        got = cvm_statistic(pts)
        want = cvm_statistic_quadrature(pts)
        assert abs(got - want) <= 1e-10


def test_population_single_frequencies():
    one = SignalSpec(Basis.COSINE_PI, np.array([1.0]))
    assert cvm_population(one) == pytest.approx(1.0 / math.pi ** 2, rel=1e-14)
    two = SignalSpec(Basis.COSINE_PI, np.array([0.0, 1.0]))
    assert cvm_population(two) == pytest.approx(1.0 / (4.0 * math.pi ** 2), rel=1e-14)
    with pytest.raises(ValidationError):
        cvm_population(SignalSpec(Basis.TRIG_FULL, np.array([[1.0, 0.0]])))


def test_population_matches_double_integral():
    """Series value equals int int (min(s,t) - s t) f(s) f(t), random signals."""
    for _ in range(10):
        J = int(RNG.integers(1, 7))
        sig = SignalSpec(Basis.COSINE_PI, 0.8 * RNG.standard_normal(J))
        got = cvm_population(sig)
        want = cvm_population_quadrature(sig)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_consistency_index_examples():
    # theta_1 = n^{-1/4}: index n * n^{-1/2} / pi^2 grows like sqrt(n)/pi^2
    for n in (16, 256, 4096):
        sig = SignalSpec(Basis.COSINE_PI, np.array([n ** -0.25]))
        assert cvm_consistency_index(sig, n) == pytest.approx(
            math.sqrt(n) / math.pi ** 2, rel=1e-12)
    vals = [cvm_consistency_index(
        SignalSpec(Basis.COSINE_PI, np.array([n ** -0.25])), n)
        for n in (16, 256, 4096)]
    assert vals[0] < vals[1] < vals[2]


def test_consistency_index_bounded_for_far_spikes():
    """Norm-calibrated spikes at k_n = n^{(1-2r)/2}, r = 1/4, keep the index flat."""
    vals = []
    for n in (256, 4096, 65536):
        k = round(n ** 0.25)  # exact fourth powers below
        coeffs = np.zeros(k)
        coeffs[-1] = n ** -0.25
        vals.append(cvm_consistency_index(SignalSpec(Basis.COSINE_PI, coeffs), n))
    # index = n * n^{-1/2} / (pi^2 k_n^2) = 1/pi^2 at this calibration
    for v in vals:
        assert v == pytest.approx(1.0 / math.pi ** 2, rel=1e-12)


def test_truncation_tail_bound():
    J = 50
    exact_tail = sum(1.0 / (math.pi ** 2 * j ** 2) for j in range(J + 1, 200000))
    bound = truncation_tail_bound(J)
    assert exact_tail <= bound
    assert bound == pytest.approx(1.0 / (math.pi ** 2 * J))
    with pytest.raises(ValidationError):
        truncation_tail_bound(0)


def test_bridge_weights():
    w = bridge_weights(3)
    assert np.allclose(w, [1 / math.pi ** 2, 1 / (4 * math.pi ** 2),
                           1 / (9 * math.pi ** 2)])


def test_weighted_chisq_draw_order_fixed():
    """Block b of a null table draws from substream (seed, null table, b),
    row-major by (replicate, j); the last block may be partial."""
    w = bridge_weights(16)
    draws = np.concatenate([
        np.square(substream(9, STREAM_NULL_TABLE, b).standard_normal(
            (rows, w.size))) @ w
        for b, rows in enumerate((4096, 904))])
    alphas, crit = weighted_null_quantiles(w, [0.1, 0.05], 5000, seed=9)
    assert np.array_equal(crit, np.quantile(draws, 1.0 - alphas))


def test_repeated_alpha_refused_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a null table block was keyed")

    monkeypatch.setattr(cvm, "substreams", no_draws)
    with pytest.raises(ValidationError, match="alphas repeat alpha = 0.05$"):
        weighted_null_quantiles(bridge_weights(16), [0.05, 0.1, 0.05], 200, seed=1)


# (J, replicates) pairs whose last slices a naive slicing gets wrong: a
# 17-row last block (16 + 1 rows), one short block of 100 or 101 rows of
# 2**14 values each, and a row so short that a block is one slice.
_SLICED_TABLES = [(1024, 4113), (16384, 100), (16384, 101), (3, 5000)]

# Each table's draws, block by block: the block's (rows, J) normals squared
# and summed by one matmul. A threaded BLAS splits a block's rows among its
# threads, which can move the bits of the rows beside a split, so these run
# in a fresh interpreter on one BLAS thread.
_BLOCK_SHAPED = """
import sys
import numpy as np
from uniconsist.cvm import bridge_weights
from uniconsist.rng import STREAM_NULL_TABLE, substream
draws = {}
for J, replicates in %r:
    w = bridge_weights(J)
    draws[f"{J}-{replicates}"] = np.concatenate([
        np.square(substream(6, STREAM_NULL_TABLE, b).standard_normal(
            (min(4096, replicates - start), J))) @ w
        for b, start in enumerate(range(0, replicates, 4096))])
np.savez(sys.argv[1], **draws)
"""


@pytest.fixture(scope="module")
def block_shaped_draws(tmp_path_factory):
    path = tmp_path_factory.mktemp("null-table") / "draws.npz"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCK_SHAPED % (_SLICED_TABLES,), str(path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with np.load(path) as draws:
        return dict(draws)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("J, replicates", _SLICED_TABLES)
def test_null_table_slices_keep_block_bits(monkeypatch, block_shaped_draws,
                                          J, replicates, threads):
    """The table's draws, made in row slices in this process on 1, 2 or 3
    workers, equal the block-shaped draws bit for bit: every slice continues
    its block's generator, and none is a single row unless its block is.
    The table's JSON is the one those draws give, at every thread count."""
    seen = []
    quantiles = cvm._quantiles
    monkeypatch.setattr(cvm, "_quantiles",
                        lambda a, q: seen.append(a.copy()) or quantiles(a, q))
    table = build_cvm_null_table([0.05, 0.1], replicates, seed=6, J_null=J,
                                 threads=threads)
    want = block_shaped_draws[f"{J}-{replicates}"]
    assert seen[0].tobytes() == want.tobytes()
    criticals = np.quantile(want, [0.95, 0.9])
    assert table.to_json() == CvmNullTable(
        (0.05, 0.1), tuple(criticals.tolist()), J, replicates, 6).to_json()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_null_table_reuses_one_block_buffer(monkeypatch, threads):
    """Five blocks (the last of 17 rows) are drawn into at most one slice
    buffer a worker, each (511, 64): 511 rows hold every slice of a block."""
    made = []
    slice_buffer = cvm.slice_buffer
    monkeypatch.setattr(cvm, "slice_buffer",
                        lambda rows, width: made.append(
                            slice_buffer(rows, width)) or made[-1])
    weighted_null_quantiles(bridge_weights(64), [0.05], 4 * 4096 + 17, seed=3,
                            threads=threads)
    assert 1 <= len(made) <= threads
    assert all(buffer.shape == (511, 64) for buffer in made)


@pytest.mark.parametrize("threads", [True, 2.5, 0, -1])
def test_null_table_refuses_bad_thread_counts(threads):
    with pytest.raises(ValidationError, match="threads must be"):
        build_cvm_null_table([0.05], 200, seed=0, J_null=16, threads=threads)


_SIZES = [*range(1, 300), 1000, 4097, 200_000]
_ALPHAS = [1e-20, 2.0 ** -53, 1e-3, 0.01, 0.025, 0.05, 0.1, 1.0 / 3.0, 0.5,
           0.75, 0.9, 0.99, 1.0 - 2.0 ** -53]


def test_quantiles_match_numpy_bit_for_bit():
    """The table's quantile restates np.quantile's linear rule: equal bits
    at every size and alpha, on distinct values and on ties, with the
    q = 1 - alpha of the table (q rounds to 1 at alpha 1e-20)."""
    rng = np.random.default_rng(27)
    q = 1.0 - np.array(_ALPHAS)
    for n in _SIZES:
        for values in (rng.standard_normal(n), rng.integers(0, 4, n) * 0.5):
            want = np.quantile(values, q)
            got = cvm._quantiles(values.copy(), q)
            assert got.tobytes() == want.tobytes(), n


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=400),
       st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1,
                max_size=5))
def test_quantiles_match_numpy_on_any_sample(values, q):
    values, q = np.array(values), np.array(q)
    assert (cvm._quantiles(values.copy(), q).tobytes()
            == np.quantile(values, q).tobytes())


def test_null_table_leaves_numpy_ma_unloaded(tmp_path):
    """Building a table through the CLI, in a fresh interpreter, imports no
    numpy.ma module (np.quantile's np.unique would)."""
    script = ("import sys; from uniconsist import cli; "
              "assert cli.main(sys.argv[1:]) == 0; "
              "print([m for m in sys.modules if m.split('.')[:2] == "
              "['numpy', 'ma']])")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", script, "nulltable", "cvm", "--alpha", "0.05",
         "--replicates", "5000", "--j-null", "16", "--threads", "2",
         "--out", str(tmp_path / "table.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("J, replicates", [(1024, 20_000), (16384, 200)],
                         ids=["J1024", "J16384"])
def test_null_table_peaks_at_slice_size(J, replicates):
    """Traced memory stays below the draws, one slice buffer of under
    2 * max(16 J, SLICE_VALUES) values, and 2 MiB for the quantile's copy
    and the substreams. A block-sized buffer (32 MiB at J 1024, and 200 rows
    of 2**14 values, 25 MiB) would exceed it."""
    tracemalloc.start()
    try:
        weighted_null_quantiles(bridge_weights(J), [0.05], replicates, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * replicates + 16 * max(16 * J, SLICE_VALUES) + 2 ** 21
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("weights", [[], [[0.1, 0.2]], [0.1, -0.2], [0.0, 0.0, 0.0]],
                         ids=["empty", "2-D", "negative", "all-zero"])
def test_weighted_null_quantiles_rejects_bad_weights(weights):
    with pytest.raises(ValidationError, match="weights"):
        weighted_null_quantiles(np.array(weights), [0.05], 200, seed=0)


def test_null_sample_mean_matches_series():
    J = 256
    draws = cvm_null_sample(J, np.random.default_rng(8), size=20000)
    # E = sum 1/(pi^2 j^2) = 1/6 - tail, tail <= 1/(pi^2 J)
    expected = float(np.sum(bridge_weights(J)))
    assert 1.0 / 6.0 - truncation_tail_bound(J) <= expected <= 1.0 / 6.0
    se = float(draws.std(ddof=1)) / math.sqrt(draws.size)
    assert abs(float(draws.mean()) - expected) <= 4.0 * se


def test_null_sample_shift_changes_law():
    J = 64
    shift = np.zeros(J)
    shift[0] = 0.5
    base = cvm_null_sample(J, np.random.default_rng(4), size=5000)
    moved = cvm_null_sample(J, np.random.default_rng(4), size=5000, shift=shift)
    # noncentral mean exceeds central mean by shift^2
    assert float(moved.mean()) - float(base.mean()) == pytest.approx(0.25, abs=0.02)
    with pytest.raises(ValidationError):
        cvm_null_sample(J, np.random.default_rng(0), shift=np.zeros(J - 1))


def test_weighted_null_quantiles_reproducible_and_blocked():
    w = bridge_weights(64)
    a1, c1 = weighted_null_quantiles(w, [0.1, 0.05], 5000, seed=7)
    a2, c2 = weighted_null_quantiles(w, [0.05, 0.1], 5000, seed=7)
    assert np.array_equal(a1, a2)
    assert np.array_equal(c1, c2)
    assert np.all(a1 == np.array([0.05, 0.1]))
    assert c1[0] > c1[1]
    _, c3 = weighted_null_quantiles(w, [0.05], 5000, seed=8)
    assert c3[0] != c1[0]
    with pytest.raises(ValidationError):
        weighted_null_quantiles(w, [0.0], 5000, seed=7)
    with pytest.raises(ValidationError):
        weighted_null_quantiles(w, [0.05], 50, seed=7)


def test_null_quantiles_against_asymptotic_percentiles():
    """Large-table criticals sit near the classical limiting percentiles."""
    table = build_cvm_null_table([0.05, 0.1], replicates=200000, seed=3,
                                 J_null=1024)
    # classical limiting upper percentiles of the bridge norm
    assert table.critical(0.05) == pytest.approx(0.46136, abs=0.01)
    assert table.critical(0.1) == pytest.approx(0.34730, abs=0.01)


def test_table_round_trip_and_validation():
    table = build_cvm_null_table([0.05, 0.1], replicates=2000, seed=1, J_null=64)
    back = CvmNullTable.from_json(table.to_json())
    assert back == table
    assert back.critical(0.05) == table.criticals[0]
    with pytest.raises(ValidationError):
        back.critical(0.025)
    with pytest.raises(ValidationError):
        CvmNullTable(alphas=(0.05, 0.1), criticals=(0.2, 0.5),
                     J_null=64, replicates=2000, seed=1)
    with pytest.raises(ValidationError):
        CvmNullTable(alphas=(0.05,), criticals=(0.2, 0.1),
                     J_null=64, replicates=2000, seed=1)
    with pytest.raises(ValidationError):
        CvmNullTable.from_json("{}")
    with pytest.raises(ValidationError):
        CvmNullTable.from_json("not json")


@pytest.mark.parametrize("J_null, replicates, seed", [
    (1, 100, 0), (_J_NULL_MAX, 100, 2 ** 64 - 1), (64, 4097, 5),
    (np.int64(16), np.int32(150), np.uint64(7))])
def test_every_built_table_round_trips(J_null, replicates, seed):
    """Whatever integer types build it, a table reads back equal from its
    own JSON."""
    table = build_cvm_null_table([0.01, 0.05], replicates, seed, J_null=J_null)
    assert CvmNullTable.from_json(table.to_json()) == table


@pytest.mark.parametrize("key, value", [
    ("J_null", 0), ("J_null", -5), ("J_null", _J_NULL_MAX + 1), ("J_null", 2.5),
    ("J_null", True), ("replicates", 99), ("replicates", 200.0),
    ("replicates", True), ("seed", -1), ("seed", 2 ** 64), ("seed", 1.5),
    ("seed", True)])
def test_table_reader_refuses_what_the_constructor_refuses(key, value):
    fields = {"J_null": 16, "replicates": 200, "seed": 3, key: value}
    with pytest.raises(ValidationError, match=key):
        CvmNullTable((0.05,), (0.46,), **fields)
    text = json.dumps({"alpha": [0.05], "critical": [0.46], **fields})
    with pytest.raises(ValidationError, match=key):
        CvmNullTable.from_json(text)


def test_decide_report():
    table = build_cvm_null_table([0.05], replicates=2000, seed=2, J_null=64)
    pts = np.random.default_rng(10).random(50)
    rep = decide(pts, table, 0.05)
    assert rep.family == "cvm"
    assert rep.n == 50
    assert rep.statistic == pytest.approx(cvm_statistic(pts))
    assert rep.reject == (rep.statistic > table.critical(0.05))
    assert rep.ingredients["J_null"] == 64


@pytest.mark.parametrize("bad", [1.5, -0.7, math.nan, math.inf, -math.inf])
def test_decide_refuses_points_outside_unit_interval(bad):
    """n T^2 is defined for points of [0, 1] only: one outside is refused,
    and the error names it, before any statistic is formed."""
    table = build_cvm_null_table([0.05], replicates=200, seed=2, J_null=16)
    with pytest.raises(ValidationError,
                       match=re.escape(f"points outside [0,1]: {[bad]}")):
        decide(np.array([0.2, 0.5, bad, 0.7]), table, 0.05)


def test_decide_takes_both_endpoints():
    table = build_cvm_null_table([0.05], replicates=200, seed=2, J_null=16)
    pts = np.array([0.0, 0.5, 1.0, 0.7])
    assert decide(pts, table, 0.05).statistic == cvm_statistic(pts)


def test_table_with_int_past_digit_limit_is_validation_error():
    with pytest.raises(ValidationError, match="malformed null table"):
        CvmNullTable.from_json('{"J_null": 1' + "0" * 5000 + "}")


@pytest.mark.parametrize("k", [1, 2, 5, 16])
@pytest.mark.parametrize("c", [0.01, 1.0, 37.0])
def test_weighted_chisq_sf_equal_weights_is_scaled_chi2(k, c):
    """k equal weights c: c chi2_k, and with offsets d, c ncx2_k(|d|^2)."""
    x = c * np.array([1e-3, 0.1, 0.5, 1.0, k, 3.0 * k, 10.0 * k + 5.0])
    got = weighted_chisq_sf(x, np.full(k, c))
    assert np.max(np.abs(got - stats.chi2.sf(x / c, k))) <= 1e-10
    # at scale 30 and k > 1, exp(-|d|^2 / 2) underflows: the sum runs in logs
    for scale in (0.7, 30.0):
        d = scale * np.linspace(-1.0, 2.0, k)
        x = c * (k + d @ d) * np.array([0.5, 1.0, 1.5])
        got = weighted_chisq_sf(x, np.full(k, c), d)
        assert np.max(np.abs(got - stats.ncx2.sf(x / c, k, d @ d))) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 3.0),
       st.floats(0.0, 3.0), st.floats(-2.0, 1.5))
def test_weighted_chisq_sf_two_unequal_weights(log_ratio, log_b, da, db, log_x):
    """Unequal weights with offsets against conditioning on one coordinate."""
    a, b = 10.0 ** (log_b + log_ratio), 10.0 ** log_b
    x = (a * (1.0 + da * da) + b * (1.0 + db * db)) * 10.0 ** log_x
    got = weighted_chisq_sf(x, [a, b], [da, db])
    assert abs(got - two_term_chisq_sf(x, a, b, da, db)) <= 1e-10


def test_weighted_chisq_sf_edges_and_validation():
    w = bridge_weights(8)
    assert weighted_chisq_sf(0.0, w) == 1.0
    assert list(weighted_chisq_sf([-1.0, 0.0], w)) == [1.0, 1.0]
    # zero weights drop out, and so do offsets on them
    padded = np.concatenate([w, np.zeros(3)])
    assert weighted_chisq_sf(0.2, padded, np.r_[np.zeros(8), 5.0, 5.0, 5.0]) \
        == pytest.approx(weighted_chisq_sf(0.2, w), abs=1e-13)
    for weights, offsets in (([], None), ([0.0, 0.0], None), ([1.0, -1.0], None),
                             ([1.0, np.inf], None), ([1.0, 2.0], [1.0]),
                             ([1.0, 2.0], [1.0, np.nan])):
        with pytest.raises(ValidationError):
            weighted_chisq_sf(1.0, weights, offsets)
    with pytest.raises(ValidationError):
        weighted_chisq_sf(np.nan, w)
    for alpha in (0.0, 1.0, -0.5):
        with pytest.raises(ValidationError):
            weighted_chisq_quantile(alpha, w)


@pytest.mark.parametrize("alpha", [0.001, 0.05, 0.5])
@pytest.mark.parametrize("J_null", [1, 1024, 16384])
def test_weighted_chisq_quantile_inverts_sf(J_null, alpha):
    w = bridge_weights(J_null)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t = weighted_chisq_quantile(alpha, w)
        p = weighted_chisq_sf(t, w)
    assert not caught
    assert abs(p - alpha) <= 1e-9
    if J_null == 1:
        assert t == pytest.approx(w[0] * stats.chi2.isf(alpha, 1), rel=1e-10)


@pytest.mark.parametrize("seed", [23, 29])
def test_null_table_quantile_within_binomial_ci_of_exact(seed):
    """A 200 000-row table's upper 5% point has exact size within the
    binomial 99.9% interval of 0.05: the count of draws above the exact
    critical value is Binomial(n, alpha)."""
    w, alpha, n = bridge_weights(1024), 0.05, 200000
    _, crit = weighted_null_quantiles(w, [alpha], n, seed)
    z = stats.norm.isf(0.0005)
    size = weighted_chisq_sf(crit[0], w)
    assert abs(size - alpha) <= z * math.sqrt(alpha * (1.0 - alpha) / n)


@pytest.mark.parametrize("critical", [math.nan, math.inf, -math.inf])
def test_null_table_refuses_non_finite_critical(critical):
    with pytest.raises(ValidationError, match="criticals must be finite"):
        CvmNullTable(alphas=(0.05,), criticals=(critical,),
                     J_null=64, replicates=2000, seed=1)
    with pytest.raises(ValidationError, match="criticals must be finite"):
        CvmNullTable(alphas=(0.05, 0.1), criticals=(critical, 0.1),
                     J_null=64, replicates=2000, seed=1)


def test_weighted_null_quantiles_refuses_nan_alpha_and_infinite_weight():
    with pytest.raises(ValidationError, match="alphas"):
        weighted_null_quantiles(np.array([0.1, 0.2]), [math.nan], 200, seed=0)
    with pytest.raises(ValidationError, match="alphas"):
        weighted_null_quantiles(np.array([0.1, 0.2]), [0.05, math.nan], 200,
                                seed=0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="weights"):
            weighted_null_quantiles(np.array([0.1, bad]), [0.05], 200, seed=0)
