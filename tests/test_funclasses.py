"""Smoothness bodies, tail bounds, greedy widths, compactness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import seminorm_grid_oracle
from uniconsist.errors import ValidationError
from uniconsist.funclasses import (BesovBody, EllipsoidSet, FiniteBand, PointCloudSet, besov_argmax,
                                   besov_seminorm, compactness_diagnostic,
                                   finite_band_membership, greedy_widths,
                                   set_from_json, tail_bound_check)
from uniconsist.signals import Basis, SignalSpec

RNG = np.random.default_rng(522)


def sig(coeffs, basis=Basis.COSINE_PI):
    return SignalSpec(basis, np.asarray(coeffs, dtype=float))


def test_seminorm_single_spike_at_two():
    # s = 1/2: candidates 1 * 1 and 2 * 1; the left limit at lambda = 2 wins
    assert besov_seminorm(sig([0.0, 1.0]), 0.5) == 2.0
    assert besov_argmax(sig([0.0, 1.0]), 0.5) == 2


def test_seminorm_spike_at_one():
    assert besov_seminorm(sig([1.0]), 0.7) == 1.0
    assert besov_argmax(sig([1.0]), 0.7) == 1


def test_seminorm_matches_grid_oracle():
    for _ in range(25):
        J = int(RNG.integers(1, 40))
        energy = RNG.random(J) * RNG.random(J)
        s = float(RNG.uniform(0.1, 2.0))
        signal = sig(np.sqrt(energy))
        got = besov_seminorm(signal, s)
        want = seminorm_grid_oracle(energy, s)
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_seminorm_power_law_sequence():
    j = np.arange(1, 65, dtype=float)
    signal = sig(1.0 / j ** 2)
    got = besov_seminorm(signal, 1.0)
    want = seminorm_grid_oracle((1.0 / j ** 2) ** 2, 1.0)
    assert abs(got - want) <= 1e-12 * want


def test_seminorm_trig_full_uses_pair_mass():
    full = SignalSpec(Basis.TRIG_FULL, np.array([[0.3, 0.4], [0.0, 0.5]]))
    flat = sig([0.5, 0.5])  # same per-index energy 0.25
    assert abs(besov_seminorm(full, 0.8) - besov_seminorm(flat, 0.8)) < 1e-15


def test_seminorm_rejects_bad_s():
    with pytest.raises(ValidationError):
        besov_seminorm(sig([1.0]), 0.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=10),
       st.floats(0.1, 2.0))
def test_seminorm_orthosymmetric_and_quadratic(coeffs, s):
    theta = np.array(coeffs)
    base = besov_seminorm(sig(theta), s)
    flipped = besov_seminorm(sig(-theta), s)
    assert flipped == base
    scaled = besov_seminorm(sig(2.5 * theta), s)
    assert math.isclose(scaled, 6.25 * base, rel_tol=1e-12, abs_tol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=10),
       st.data())
def test_seminorm_monotone_under_zeroing(coeffs, data):
    theta = np.array(coeffs)
    k = data.draw(st.integers(0, theta.size - 1))
    smaller = theta.copy()
    smaller[k] = 0.0
    assert besov_seminorm(sig(smaller), 0.5) <= besov_seminorm(sig(theta), 0.5) + 1e-15


def test_body_membership_and_variants():
    body = BesovBody(s=0.5, P0=1.5)
    assert body.member(sig([0.0, 0.8]))       # seminorm 1.28
    assert not body.member(sig([0.0, 1.0]))   # seminorm 2.0
    # TrigFull: the mass at |j| is a_j^2 + b_j^2
    assert body.member(SignalSpec(Basis.TRIG_FULL, np.array([[0.5, 0.5]])))
    assert not body.member(SignalSpec(Basis.TRIG_FULL, np.array([[1.0, 0.8]])))
    with pytest.raises(ValidationError):
        BesovBody(s=-1.0, P0=1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                min_size=1, max_size=8),
       st.floats(0.1, 2.0), st.floats(0.01, 20.0))
def test_body_member_trig_full_matches_seminorm(pairs, s, P0):
    signal = SignalSpec(Basis.TRIG_FULL, np.array(pairs))
    assert BesovBody(s, P0).member(signal) == (besov_seminorm(signal, s) <= P0)


def test_tail_bound_spike_below_cut():
    signal = sig([0.5])
    P0 = besov_seminorm(signal, 1.0)
    rep = tail_bound_check(signal, s=1.0, P0=P0, r=0.5, n=100, C1=1.0)
    assert rep.l_n == 10
    assert rep.tail_sum == 0.0
    assert rep.ok


def test_tail_bound_power_law_member():
    j = np.arange(1, 4097, dtype=float)
    signal = sig(j ** -1.0)  # exponent s + 1/2 with s = 1/2
    P0 = besov_seminorm(signal, 0.5)
    rep = tail_bound_check(signal, s=0.5, P0=P0, r=0.25, n=10_000, C1=1.0)
    assert rep.l_n == 100
    assert rep.ok
    assert rep.tail_sum <= rep.bound
    # the bound is what the body guarantees, up to the head constant
    assert rep.bound == pytest.approx(P0 * 1e-2)


def test_tail_bound_rejects_nonmember_and_bad_args():
    signal = sig([0.0, 1.0])
    with pytest.raises(ValidationError):
        tail_bound_check(signal, s=0.5, P0=1.0, r=0.25, n=100)
    with pytest.raises(ValidationError):
        tail_bound_check(signal, s=0.5, P0=2.0, r=1.5, n=100)
    with pytest.raises(ValidationError):
        tail_bound_check(signal, s=0.5, P0=2.0, r=0.25, n=100, C1=0.0)


def test_widths_three_axes():
    seq = greedy_widths(EllipsoidSet(np.array([3.0, 1.0, 2.0])), i_max=5)
    assert np.array_equal(seq.widths, np.array([3.0, 2.0, 1.0, 0.0, 0.0]))
    # greedy elements are the semi-axis vectors, largest first
    assert np.array_equal(seq.elements[0], np.array([3.0, 0.0, 0.0]))
    assert np.array_equal(seq.elements[1], np.array([0.0, 0.0, 2.0]))


def test_widths_ellipsoid_vs_dense_sphere_oracle():
    """Greedy over a dense boundary sample reproduces sorted axes."""
    axes = np.array([3.0, 1.0, 2.0])
    rng = np.random.default_rng(99)
    u = rng.standard_normal((20000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = u * axes
    basis_rows = np.zeros((0, 3))
    residual = pts.copy()
    approx = []
    for _ in range(3):
        norms = np.linalg.norm(residual, axis=1)
        k = int(np.argmax(norms))
        approx.append(float(norms[k]))
        direction = residual[k] / norms[k]
        basis_rows = np.vstack([basis_rows, direction])
        residual = residual - np.outer(residual @ direction, direction)
    assert np.allclose(approx, [3.0, 2.0, 1.0], atol=0.02)


def test_widths_single_point():
    p = np.array([[0.6, -0.8]])
    seq = greedy_widths(PointCloudSet(p), i_max=3)
    assert seq.widths[0] == pytest.approx(1.0)
    assert np.array_equal(seq.widths[1:], np.zeros(2))


def test_widths_scaled_basis_vectors():
    c = 0.37
    seq = greedy_widths(EllipsoidSet(np.full(5, c)), i_max=5)
    assert np.allclose(seq.widths, np.full(5, c))


def test_widths_random_ellipsoids_sorted_axes():
    for _ in range(20):
        dim = int(RNG.integers(1, 9))
        axes = RNG.uniform(0.1, 5.0, size=dim)
        seq = greedy_widths(EllipsoidSet(axes), i_max=dim)
        assert np.max(np.abs(seq.widths - np.sort(axes)[::-1])) <= 1e-9


def test_widths_point_cloud_monotone():
    for _ in range(20):
        dim = int(RNG.integers(1, 7))
        pts = RNG.standard_normal((int(RNG.integers(1, 12)), dim))
        seq = greedy_widths(PointCloudSet(pts), i_max=dim + 2)
        assert np.all(np.diff(seq.widths) <= 1e-12)


def test_widths_validation():
    with pytest.raises(ValidationError):
        greedy_widths(EllipsoidSet(np.array([1.0])), i_max=0)
    with pytest.raises(ValidationError):
        greedy_widths(object(), i_max=2)
    with pytest.raises(ValidationError):
        EllipsoidSet(np.array([1.0, -1.0]))
    with pytest.raises(ValidationError):
        PointCloudSet(np.zeros((0, 2)))


def test_compactness_dyadic_axes():
    axes = 2.0 ** -np.arange(1, 13)
    rep = compactness_diagnostic(EllipsoidSet(axes), epsilon=0.01, i_max=12)
    assert rep.first_index == 7
    assert "index 7" in rep.verdict


def test_compactness_no_decay_for_cube():
    corners = np.array([[sx, sy, sz, sw]
                        for sx in (-1, 1) for sy in (-1, 1)
                        for sz in (-1, 1) for sw in (-1, 1)], dtype=float)
    rep = compactness_diagnostic(PointCloudSet(corners), epsilon=0.5, i_max=4)
    assert rep.first_index is None
    assert rep.verdict == "no decay observed through i_max"
    assert np.all(rep.widths >= 1.0)


def test_compactness_epsilon_above_first_width():
    rep = compactness_diagnostic(EllipsoidSet(np.array([0.5, 0.4])), epsilon=0.6)
    assert rep.first_index == 1


def test_compactness_validation():
    with pytest.raises(ValidationError):
        compactness_diagnostic(EllipsoidSet(np.array([1.0])), epsilon=0.0)


def test_finite_band_membership_cases():
    band = FiniteBand(l=2, P0=1.0)
    assert finite_band_membership(sig([0.0]), band)
    assert not finite_band_membership(sig([0.0, 0.0, 1.0]), band)
    signal = sig([0.6, 0.6])
    assert signal.norm == pytest.approx(0.848528137423857)
    assert finite_band_membership(signal, band)
    assert not finite_band_membership(sig([1.2, 0.0]), band)
    with pytest.raises(ValidationError):
        FiniteBand(l=0, P0=1.0)
    with pytest.raises(ValidationError):
        FiniteBand(l=2, P0=0.0)


def test_set_json_round_trip():
    ell = EllipsoidSet(np.array([2.0, 1.0]))
    back = set_from_json(ell.to_json_dict())
    assert isinstance(back, EllipsoidSet)
    assert np.array_equal(back.axes, ell.axes)
    cloud = PointCloudSet(np.array([[1.0, 2.0]]))
    back2 = set_from_json(cloud.to_json_dict())
    assert isinstance(back2, PointCloudSet)
    assert np.array_equal(back2.points, cloud.points)
    with pytest.raises(ValidationError):
        set_from_json({"kind": "blob"})
    with pytest.raises(ValidationError):
        set_from_json({})
