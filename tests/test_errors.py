"""The two scalar guards, and every library input that goes through them."""

import math
import re

import numpy as np
import pytest

from uniconsist.alternatives import (ClassifyThresholds, cvm_family, decompose,
                                     make_consistent, make_inconsistent,
                                     spike_tail_schedule)
from uniconsist.chi2 import Chi2Config, chi2_population
from uniconsist.cvm import (CvmNullTable, bridge_weights, build_cvm_null_table,
                            weighted_null_quantiles)
from uniconsist.errors import ValidationError, check_count, check_positive
from uniconsist.funclasses import (BesovBody, EllipsoidSet, FiniteBand,
                                   besov_seminorm, compactness_diagnostic,
                                   greedy_widths, tail_bound_check)
from uniconsist.kernel import (KernelTestConfig, box_kernel,
                               inconsistency_bandwidths, kernel_form)
from uniconsist.mclab import MCConfig, wilson_interval
from uniconsist.quad import build_profile
from uniconsist.rng import check_seed, philox_keys, substream
from uniconsist.signals import (Basis, DensitySpec, NoiseModel, SignalSpec,
                                sample_iid)

_SIG = SignalSpec(Basis.COSINE_PI, np.array([0.3, 0.1]))
_SET = EllipsoidSet(np.array([2.0, 1.0]))
_KCFG = KernelTestConfig(kernel=box_kernel(), alpha=0.05, h=0.25)
_W = bridge_weights(8)


@pytest.mark.parametrize("value", [0, 3, 2 ** 70, np.int64(5), np.uint64(2 ** 63),
                                   np.int8(1)])
def test_count_takes_ints_and_numpy_integers(value):
    out = check_count(value, "k", 0)
    assert type(out) is int and out == value


@pytest.mark.parametrize("value", [True, False, np.bool_(True), 4.0, 2.5,
                                   np.float64(3.0), "3", None, [3]])
def test_count_refuses_bools_floats_and_the_rest(value):
    with pytest.raises(ValidationError, match="k must be an integer"):
        check_count(value, "k", 1)


@pytest.mark.parametrize("value, low, high, message", [
    (-1, 0, None, "k must be a nonnegative integer, got -1"),
    (1, 2, None, "k must be at least 2, got 1"),
    (9, 1, 8, "k must be in [1, 8], got 9"),
    (0, 1, 8, "k must be in [1, 8], got 0")])
def test_count_range_messages(value, low, high, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        check_count(value, "k", low, high)


@pytest.mark.parametrize("value", [1, 0.5, 1e308, np.float32(2.0), np.int64(3)])
def test_positive_takes_finite_positive_reals(value):
    out = check_positive(value, "c")
    assert type(out) is float and out == value


@pytest.mark.parametrize("value", [0, 0.0, -1.0, math.nan, math.inf, -math.inf,
                                   True, "1", None, 1j])
def test_positive_refuses_the_rest(value):
    with pytest.raises(ValidationError, match="c must be positive and finite"):
        check_positive(value, "c")


# Each library input routed through the guards, with the argument name its
# error carries. Where a bool or a float slipped through, or ended in a
# numpy TypeError or a ZeroDivisionError, it is a ValidationError now.
_REFUSED = {
    "MCConfig.seed": (lambda: MCConfig(100, seed=True), "seed"),
    "MCConfig.replicates": (lambda: MCConfig(150.0), "replicates"),
    "MCConfig.threads": (lambda: MCConfig(100, threads=True), "threads"),
    "check_seed": (lambda: check_seed(True), "seed"),
    "philox_keys.stream": (lambda: philox_keys(0, True, [0]), "stream"),
    "substream.replicate": (lambda: substream(0, 0, True), "replicate"),
    "NoiseModel.n": (lambda: NoiseModel(1.0, True), "n"),
    "NoiseModel.sigma": (lambda: NoiseModel(math.nan, 4), "sigma"),
    "sample_iid.size": (lambda: sample_iid(DensitySpec(_SIG), True,
                                           np.random.default_rng(0)), "size"),
    "Chi2Config.m": (lambda: Chi2Config(0.05, m=4.0), "m"),
    "Chi2Config.cells": (lambda: Chi2Config(0.05, m_rule=(0.3, 1.0)).cells(2.5),
                         "n, the number of points,"),
    "Chi2Config.m_rule": (lambda: Chi2Config(0.05, m_rule=(0.3, math.nan)),
                          "m_rule const"),
    "chi2_population.m": (lambda: chi2_population(_SIG, 4.0), "m"),
    "weighted_null_quantiles.replicates": (
        lambda: weighted_null_quantiles(_W, [0.05], 150.5, 0), "replicates"),
    "weighted_null_quantiles.threads": (
        lambda: weighted_null_quantiles(_W, [0.05], 200, 0, threads=1.0), "threads"),
    "bridge_weights.J_null": (lambda: bridge_weights(0), "J_null"),
    "build_cvm_null_table.J_null": (
        lambda: build_cvm_null_table([0.05], 200, 0, J_null=2.5), "J_null"),
    "build_cvm_null_table.J_null-bool": (
        lambda: build_cvm_null_table([0.05], 200, 0, J_null=True), "J_null"),
    "CvmNullTable.J_null": (lambda: CvmNullTable((0.05,), (1.0,), -5, 300, 1),
                            "J_null"),
    "CvmNullTable.replicates": (lambda: CvmNullTable((0.05,), (1.0,), 5, 3, 1),
                                "replicates"),
    "CvmNullTable.seed": (lambda: CvmNullTable((0.05,), (1.0,), 5, 300, -1), "seed"),
    "build_profile.J": (lambda: build_profile(0.3, 2.0, 1.0, 100.7, [64]), "J"),
    "build_profile.n_list": (lambda: build_profile(0.3, 2.0, 1.0, 100, [64.9]),
                             "n_list entry"),
    "build_profile.c": (lambda: build_profile(0.3, 2.0, math.nan, 100, [64]), "c"),
    "build_profile.sigma": (lambda: build_profile(0.3, 2.0, 1.0, 100, [64],
                                                  sigma=math.inf), "sigma"),
    "kernel_form.n": (lambda: kernel_form(_KCFG, 2.5, 16), "n"),
    "kernel_form.J": (lambda: kernel_form(_KCFG, 64, 16.5), "J"),
    "KernelTestConfig.h_rule": (lambda: KernelTestConfig(
        kernel=box_kernel(), alpha=0.05, h_rule=(0.3, math.inf)), "h_rule const"),
    "inconsistency_bandwidths.m_list": (
        lambda: inconsistency_bandwidths(box_kernel(), [4, 8.0]), "m_list entry"),
    "make_consistent.n_list": (lambda: make_consistent(
        cvm_family(0.25), 2.0, "lowest", [64.5]), "n_list entry"),
    "make_consistent.c2": (lambda: make_consistent(
        cvm_family(0.25), math.inf, "lowest", [64]), "c2"),
    "make_consistent.norm_const": (lambda: make_consistent(
        cvm_family(0.25), 2.0, "lowest", [64], norm_const=0.0), "norm_const"),
    "make_inconsistent.n_list": (lambda: make_inconsistent(
        cvm_family(0.25), [2.0], [True]), "n_list entry"),
    "make_inconsistent.norm_const": (lambda: make_inconsistent(
        cvm_family(0.25), [2.0], [64], norm_const=math.nan), "norm_const"),
    "spike_tail_schedule.m_list": (lambda: spike_tail_schedule(
        0.25, 0.25, [16.7], [1.0]), "m_list entry"),
    "spike_tail_schedule.C_list": (lambda: spike_tail_schedule(
        0.25, 0.25, [16], [math.nan]), "C_list entry"),
    "spike_tail_schedule.r": (lambda: spike_tail_schedule(
        math.inf, 0.25, [16], [1.0]), "r"),
    "spike_tail_schedule.s": (lambda: spike_tail_schedule(
        0.25, 0.0, [16], [1.0]), "s"),
    "decompose.cutoff": (lambda: decompose(_SIG, math.nan), "cutoff"),
    "ClassifyThresholds.eps": (lambda: ClassifyThresholds(eps=0.0), "eps"),
    "besov_seminorm.s": (lambda: besov_seminorm(_SIG, math.nan), "smoothness s"),
    "BesovBody.P0": (lambda: BesovBody(0.5, math.inf), "P0"),
    "tail_bound_check.n": (lambda: tail_bound_check(_SIG, 0.5, 1.0, 0.3, 0), "n"),
    "tail_bound_check.P0-nan": (lambda: tail_bound_check(_SIG, 0.5, math.nan, 0.3, 64),
                                "P0"),
    "tail_bound_check.P0-inf": (lambda: tail_bound_check(_SIG, 0.5, math.inf, 0.3, 64),
                                "P0"),
    "tail_bound_check.C1": (lambda: tail_bound_check(_SIG, 0.5, 1.0, 0.3, 64,
                                                     C1=math.nan), "C1"),
    "greedy_widths.i_max": (lambda: greedy_widths(_SET, 2.5), "i_max"),
    "compactness_diagnostic.i_max": (lambda: compactness_diagnostic(_SET, 0.1, True),
                                     "i_max"),
    "compactness_diagnostic.epsilon": (lambda: compactness_diagnostic(_SET, math.inf),
                                       "epsilon"),
    "FiniteBand.l": (lambda: FiniteBand(2.5, 1.0), "band limit l"),
    "FiniteBand.P0": (lambda: FiniteBand(2, math.nan), "P0"),
    "wilson_interval.trials": (lambda: wilson_interval(1, 0), "trials"),
}


@pytest.mark.parametrize("call, name", _REFUSED.values(), ids=_REFUSED.keys())
def test_refused_input_names_its_argument(call, name):
    with pytest.raises(ValidationError, match=rf"^{re.escape(name)} must be "):
        call()
