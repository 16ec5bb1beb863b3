"""The benchmark's workloads: configs, timed phase and correctness checks.

Each workload is one CLI-style session in a fresh interpreter: suites run
through ``cli.main`` exactly as ``uniconsist suite NAME --config FILE
--out DIR`` does (seed from ``UNICONSIST_SEED``), and library experiments
call the public API with the workload seed as the ``MCConfig`` seed.

* ``iid-density``: chi2 interaction suite and cvm power against
  ``DensitySpec`` variants. Time goes to ``invert_cdf``/``cdf_offset`` and
  ``DensitySpec`` construction; no kernel, and a small null table.
* ``seq-engine``: five quad suites and a kernel size estimate on two
  threads. Few variants, long noise vectors: ``rng`` draws and the
  quad/kernel blocks dominate; no inversion, no null table.
* ``null-tables``: compactness, unbiasedness and one ``nulltable cvm``.
  Mostly ``weighted_null_quantiles``; the rest is the fixed-weight engine
  with many variants on short vectors.

The interaction suite in ``iid-density`` runs chi2 at n in {1024, 4096}
only: at 256 replicates its strict-decrease check over the default three
sizes fails at some seeds from Monte Carlo noise alone, and every
operation of a workload must succeed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import traceback
from pathlib import Path

import numpy as np

from uniconsist import (alternatives, chi2, cli, cvm, kernel, mclab, quad,
                        rng, signals, suites)

ALPHA = 0.05
SPOT_CHECKS = 6          # replicates recomputed per variant
NEAR_TIE = 1e-9          # decisions this close to the critical value may differ


class Session:
    """One pass of a workload: seed, threads, directories and outcomes."""

    def __init__(self, seed: int, threads: int, work_dir: Path, tracer):
        self.seed = seed
        self.threads = threads
        self.work_dir = work_dir
        self.out_dir = work_dir / "out"
        self.tracer = tracer
        self.ops = []            # (operation name, succeeded)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops.append((name, bool(ok)))
        if not ok:
            print(f"perfbench: {name} failed {detail}".rstrip(),
                  file=sys.stderr)
        return bool(ok)

    def attempt(self, name: str, fn, *args, **kwargs):
        """Run one operation; an exception counts as its failure."""
        try:
            result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.record(name, False, "with an exception")
            return None
        self.record(name, True)
        return result

    def write_config(self, label: str, suite: str, config: dict) -> Path:
        suites.default_config(suite)            # rejects unknown names
        path = self.work_dir / f"{label}.config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    def command(self, name: str, argv, span: str | None = None) -> bool:
        """One CLI invocation; it succeeds iff it exits 0."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.tracer.call(span or name, cli.main,
                                        ([str(a) for a in argv],), {})
        except Exception:
            traceback.print_exc()
            code = None
        return self.record(name, code == 0, f"with exit {code}")

    def suite(self, name: str, config: Path, out_dir: Path | None = None,
              threads: int | None = None) -> bool:
        return self.command(
            f"suite {name}",
            ["suite", name, "--config", config, "--out",
             out_dir or self.out_dir, "--threads", threads or self.threads],
            span=f"suites.{name}")

    def write_results(self, name: str, payload: dict) -> None:
        self.attempt(f"write {name}", (self.out_dir / name).write_text,
                     json.dumps(payload, indent=2, sort_keys=True) + "\n",
                     encoding="utf-8")


def _mc(session: Session, replicates: int, threads: int = 1):
    return mclab.MCConfig(replicates=replicates, seed=session.seed,
                          threads=threads)


def spot_check(session: Session, family: str, rej: np.ndarray,
               decide) -> None:
    """Recompute sampled replicates through the per-replicate public path.

    ``decide(i, v)`` returns (reject, statistic minus critical value) for
    replicate ``i`` of variant ``v``; decisions must match the engine's
    rejection matrix except at exact near-ties.
    """
    picks = random.Random(session.seed).sample(
        range(rej.shape[0]), min(SPOT_CHECKS, rej.shape[0]))
    bad = []
    for v in range(rej.shape[1]):
        for i in picks:
            reject, margin = decide(i, v)
            if bool(reject) != bool(rej[i, v]) and abs(margin) > NEAR_TIE:
                bad.append((i, v))
    session.record(f"check {family} replicates", not bad,
                   f"at (replicate, variant) {bad}")


def _padded(signal, J: int, basis):
    """The signal (or zero) with coefficients padded to the engine's J."""
    shape = (J, 2) if basis is signals.Basis.TRIG_FULL else (J,)
    coeffs = np.zeros(shape)
    if signal is not None:
        coeffs[:signal.coeffs.shape[0]] = signal.coeffs
    return signals.SignalSpec(basis, coeffs)


def check_iid_draws(session: Session, family: str, rej, n: int, variants,
                    decide_points) -> None:
    def decide(i, v):
        gen = rng.substream(session.seed, rng.STREAM_IID, i)
        density = variants[v]
        points = (gen.random(n) if density is None
                  else signals.sample_iid(density, n, gen))
        return decide_points(points)
    spot_check(session, family, rej, decide)


def check_inversion(session: Session, name: str, density, n: int) -> None:
    """|F(x) - u| <= INVCDF_TOL on sampled draws."""
    worst = 0.0
    for i in random.Random(session.seed).sample(range(1000), 2):
        u = rng.substream(session.seed, rng.STREAM_IID, i).random(n)
        x = signals.invert_cdf(density, u)
        worst = max(worst, float(np.max(np.abs(density.cdf(x) - u))))
    session.record(f"check {name} inversion", worst <= signals.INVCDF_TOL,
                   f"with residual {worst:.3g}")


# -- iid-density -----------------------------------------------------------

class IidDensity:
    threads = 1
    CHI2 = {"n_list": [1024, 4096],
            "spike": {"schedule": [1.25, 4.25], "norm_const": 4.05}}
    CVM_N = [256, 1024, 4096]
    CVM_SCHEDULE = [2.0, 3.0, 5.0]

    def __init__(self, tiny: bool):
        self.replicates = 100 if tiny else 256
        self.table_replicates = 2000 if tiny else 20000
        self.j_null = 64 if tiny else 256
        self.cvm_n = self.CVM_N[:2] if tiny else self.CVM_N

    def setup(self, s: Session) -> None:
        self.config = s.write_config(
            "interaction", "interaction",
            {"families": ["chi2"], "replicates": self.replicates,
             "chi2": self.CHI2})

    def timed(self, s: Session) -> None:
        s.suite("interaction", self.config)
        table = s.attempt("cvm null table", cvm.build_cvm_null_table, [ALPHA],
                          self.table_replicates, s.seed, J_null=self.j_null)
        seq = s.attempt("cvm sequence", alternatives.make_inconsistent,
                        alternatives.cvm_family(0.25),
                        self.CVM_SCHEDULE[:len(self.cvm_n)], self.cvm_n, 1.0)
        if table is None or seq is None:
            return
        powers = {}
        for n in self.cvm_n:
            est = s.attempt(f"cvm power n={n}", lambda n=n: mclab.estimate_power(
                table, signals.DensitySpec(seq.signals[n]), n,
                _mc(s, self.replicates), alpha=ALPHA))
            if est is not None:
                powers[str(n)] = est.estimate
        s.write_results("cvm_power.json", {"power": powers,
                                           "critical": table.criticals[0]})

    def checks(self, s: Session) -> None:
        # The suite's head and head-plus-spike densities at its smaller n.
        n = self.CHI2["n_list"][0]
        family = alternatives.chi2_family(0.375)
        head = alternatives.make_consistent(family, 1.0, "lowest", [n], 1.53)
        spike = alternatives.make_inconsistent(
            family, self.CHI2["spike"]["schedule"][:1], [n],
            self.CHI2["spike"]["norm_const"])
        both = alternatives.combine(head, spike, kind="head-plus-spike")
        variants = [None, signals.DensitySpec(head.signals[n]),
                    signals.DensitySpec(both.signals[n])]
        ccfg = chi2.Chi2Config(alpha=ALPHA, m_rule=(0.375, 1.0))
        rej = mclab.chi2_rejections(_mc(s, 100), ccfg, n, variants)

        def chi2_points(points):
            rep = chi2.decide_and_predict(points, ccfg, n)
            return rep.reject, rep.standardized - ccfg.x_alpha
        check_iid_draws(s, "chi2", rej, n, variants, chi2_points)
        check_inversion(s, "chi2 head-plus-spike density", variants[2], n)

        table = cvm.build_cvm_null_table([ALPHA], 2000, s.seed, J_null=64)
        critical = table.critical(ALPHA)
        n = self.cvm_n[-1]
        seq = alternatives.make_inconsistent(
            alternatives.cvm_family(0.25), [2.0], [n], 1.0)
        dens = signals.DensitySpec(seq.signals[n])
        variants = [None, dens]
        rej = mclab.cvm_rejections(_mc(s, 100), table, ALPHA, n, variants)

        def cvm_points(points):
            rep = cvm.decide(points, table, ALPHA)
            return rep.reject, rep.statistic - critical
        check_iid_draws(s, "cvm", rej, n, variants, cvm_points)
        check_inversion(s, "cvm density", dens, n)


# -- seq-engine ------------------------------------------------------------

class SeqEngine:
    threads = 2
    SUITES = ["consistency", "inconsistency", "purity",
              "maxiset-counterexample", "interaction"]
    KERNEL_N, KERNEL_J = 2048, 4096
    TINY = {"interaction": {
        "replicates": 1000,
        "quad": {"n_list": [512, 4096],
                 "spike": {"schedule": [2.0, 8.0],
                           "norm_const": 1.4142135623730951}}}}

    def __init__(self, tiny: bool):
        self.tiny = tiny
        self.kernel_replicates = 100 if tiny else 2048
        self.check_replicates = 1024

    def setup(self, s: Session) -> None:
        self.configs = {}
        for name in self.SUITES:
            config = {"families": ["quad"]} if name == "interaction" else {}
            if self.tiny:
                config.update(self.TINY.get(name, {"replicates": 100}))
            self.configs[name] = s.write_config(name, name, config)
        self.reduced = s.write_config("reduced", "consistency",
                                      {"replicates": 1536})

    def _kernel_config(self):
        return kernel.KernelTestConfig(kernel=kernel.builtin_kernel("box"),
                                       alpha=ALPHA, h_rule=(0.3, 2.0))

    def timed(self, s: Session) -> None:
        for name in self.SUITES:
            s.suite(name, self.configs[name])
        size = s.attempt("kernel size", lambda: mclab.estimate_size(
            self._kernel_config(), self.KERNEL_N,
            _mc(s, self.kernel_replicates, s.threads), J=self.KERNEL_J))
        if size is not None:
            s.write_results("kernel_size.json", {"size": size.estimate})

    def checks(self, s: Session) -> None:
        seed, threads = s.seed, s.threads
        n, J = 512, 8192
        profile = quad.build_profile(0.3, 2.0, 1.0, J, [n])
        test = quad.QuadTestConfig(profile, ALPHA)
        sig = alternatives.make_consistent(alternatives.quad_family(profile),
                                           1.0, "spread", [n], 1.62).signals[n]
        variants = [None, sig]
        rej = mclab.quad_rejections(_mc(s, self.check_replicates, threads),
                                    test, n, variants)
        noise = signals.NoiseModel(profile.sigma, n)

        def quad_decide(i, v):
            gen = rng.substream(seed, rng.STREAM_SEQUENCE_MODEL, i)
            y = signals.sample_sequence_model(
                _padded(variants[v], J, signals.Basis.COSINE_PI), noise, gen)
            rep = quad.decide_and_predict(y, test, n)
            return rep.reject, rep.standardized - test.x_alpha
        spot_check(s, "quad", rej, quad_decide)

        kcfg = self._kernel_config()
        n, J = self.KERNEL_N, self.KERNEL_J
        bump = np.zeros((3, 2))
        bump[2, 0] = 0.05
        variants = [None, signals.SignalSpec(signals.Basis.TRIG_FULL, bump)]
        rej = mclab.kernel_rejections(_mc(s, self.check_replicates, threads),
                                      kcfg, n, variants, J)
        noise = signals.NoiseModel(kcfg.noise_sigma, n)

        def kernel_decide(i, v):
            gen = rng.substream(seed, rng.STREAM_SEQUENCE_MODEL, i)
            obs = kernel.sample_kernel_observations(
                _padded(variants[v], J, signals.Basis.TRIG_FULL), noise, gen)
            rep = kernel.decide_and_predict(obs, kcfg, n)
            return rep.reject, rep.statistic - kcfg.x_alpha
        spot_check(s, "kernel", rej, kernel_decide)

        # Suite artifacts must not depend on the thread count: a reduced
        # consistency run (three 512-row blocks) at 1 and at `threads`.
        dirs = []
        for t in sorted({1, threads}):
            out = s.work_dir / f"threads-{t}"
            s.suite("consistency", self.reduced, out_dir=out, threads=t)
            dirs.append(out)
        files = [{p.name: p.read_bytes() for p in d.iterdir()} for d in dirs]
        s.record("check artifacts identical across threads",
                 all(f == files[0] for f in files) and bool(files[0]))


# -- null-tables -----------------------------------------------------------

class NullTables:
    threads = 1
    SUITES = ["compactness", "unbiasedness"]
    TINY = {"compactness": {"replicates": 2000, "table_replicates": 2000},
            "unbiasedness": {"n_shifts": 2, "table_replicates": 2000}}
    J_NULL = 1024

    def __init__(self, tiny: bool):
        self.tiny = tiny
        self.table_replicates = 2000 if tiny else 200000

    def setup(self, s: Session) -> None:
        self.configs = {name: s.write_config(name, name,
                                             self.TINY[name] if self.tiny else {})
                        for name in self.SUITES}

    def timed(self, s: Session) -> None:
        for name in self.SUITES:
            s.suite(name, self.configs[name])
        s.command("nulltable cvm", [
            "nulltable", "cvm", "--alpha", ALPHA,
            "--replicates", self.table_replicates, "--j-null", self.J_NULL,
            "--out", s.out_dir / "cvm_table.json"])

    def checks(self, s: Session) -> None:
        table = cvm.CvmNullTable.from_json(
            (s.out_dir / "cvm_table.json").read_text(encoding="utf-8"))
        s.record("check null table",
                 table.J_null == self.J_NULL
                 and table.replicates == self.table_replicates
                 and table.seed == s.seed and table.critical(ALPHA) > 0.0)

        L = self.J_NULL
        fk = quad.FixedKappa(cvm.bridge_weights(L))
        _, crit = cvm.weighted_null_quantiles(fk.kappa_sq, [ALPHA], 4096,
                                              s.seed)
        critical = float(crit[0])
        spike = np.zeros(L)
        spike[0] = 2.5
        etas = [None, spike]
        rej = mclab.fixed_rejections(_mc(s, 100), fk, critical, etas)

        def fixed_decide(i, v):
            xi = rng.substream(s.seed, rng.STREAM_SEQUENCE_MODEL,
                               i).standard_normal(L)
            shift = np.zeros(L) if etas[v] is None else etas[v]
            stat = quad.fixed_kappa_statistic(shift + fk.scales() * xi, fk)
            return stat > critical, stat - critical
        spot_check(s, "fixed", rej, fixed_decide)


WORKLOADS = {"iid-density": IidDensity, "seq-engine": SeqEngine,
             "null-tables": NullTables}


def run_checks(workload, s: Session) -> None:
    """Correctness checks; an exception inside counts as one failure."""
    try:
        workload.checks(s)
    except Exception:
        traceback.print_exc()
        s.record("checks", False, "with an exception")
