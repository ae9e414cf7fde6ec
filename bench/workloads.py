"""The benchmark's workloads: inputs, ops, and correctness checks.

Every workload makes its inputs from the workload seed and hands the program
only those inputs. An op is one call into specnorm (``cli.main`` or public
library functions) and is timed alone; reading its output and checking it
happen outside the op. A round is the workload's fixed list of ops; the run
repeats rounds, so every round of a run sees the same inputs.

Checks, per op:
  * exit code 0 (for CLI ops);
  * estimate, V and pivot equal a recomputation through the public library
    functions to 1e-9 relative (first round); later rounds must reproduce the
    first round's output byte for byte;
  * quantile-derived fields (CI bounds, test quantile) within 3 Monte Carlo
    standard errors of the tables stored in reference.json, so the check
    survives an engine change that moves quantiles by less than MC noise;
  * the canary (the untimed warm-up op, fixed input) equals the stored
    reference values to 1e-9 relative.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REL_TOL = 1e-9
SE_MULT = 3.0
LEVEL_ALPHA = 0.05
WARM_TABLE = (10_000, 500)  # (replications, bm_steps) of the warm-cache tables
COLD_TABLE = (40_000, 1000)  # tables pivot_cold builds from an empty cache
EXPONENTS = {"tvdfpca": (3, 2), "tvdpsca": (3, 2), "coherence": (4, 3), "stationarity": (2, 1)}
JOINT_PAIRS = ((3, 2), (2, 1))
CANARY_SEED = 20220822


def law_key(f: int, g: int, table: tuple[int, int]) -> str:
    return f"f{f}_g{g}_R{table[0]}_n{table[1]}"


def joint_key(table: tuple[int, int]) -> str:
    pairs = "+".join(f"f{f}g{g}" for f, g in JOINT_PAIRS)
    return f"joint_{pairs}_R{table[0]}_n{table[1]}"


def config_text(**keys) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


SMALL_SERIES = dict(process="tvfar1", T=2048, ar_coeff=0.5, sigma_eps_diag="8, 4, 2, 1", alpha=0.6)
CANARY_CONFIG = dict(
    SMALL_SERIES, measure="tvdfpca", quantile_r=WARM_TABLE[0], quantile_n=WARM_TABLE[1],
    seed=CANARY_SEED,
)


@dataclass
class Op:
    name: str
    kind: str  # "report" (an infer report) or "joint"
    run: Callable[[], object]  # the timed call; returns what collect() needs
    collect: Callable[[object], object]  # output to keep and compare across rounds
    check: Callable[[object], list[str]]  # errors for a first-round output


@dataclass
class Context:
    """Per-run state: directories, the specnorm functions to call, references."""

    root: Path
    seed: int
    lib: object
    reference: dict

    def __post_init__(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        os.environ["SPECNORM_CACHE_DIR"] = str(self.root / "cache")

    def write(self, name: str, text: str) -> Path:
        path = self.root / name
        path.write_text(text)
        return path


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _tvfar1(p: int, T: int, seed: int, sigma_diag=None):
    from specnorm.simulate import TvFar1Spec

    sigma = np.eye(p) if sigma_diag is None else np.diag(np.asarray(sigma_diag, dtype=float))
    return TvFar1Spec(a=0.5 * np.eye(p), sigma_eps=sigma, T=T, burn_in=200, seed=seed)


def _small_spec(seed: int):
    return _tvfar1(4, SMALL_SERIES["T"], seed, sigma_diag=(8.0, 4.0, 2.0, 1.0))


def _quantile_errors(report: dict, law: dict, what: str) -> list[str]:
    """CI bounds and the test quantile against a stored table, within 3 SE."""
    errors = []
    est, v = report["estimate"], report["V"]
    lo_q, lo_se = law[str(LEVEL_ALPHA / 2)]
    hi_q, hi_se = law[str(1 - LEVEL_ALPHA / 2)]
    rt_q, rt_se = law[str(1 - LEVEL_ALPHA)]
    if abs(report["relevant_test"]["quantile"] - rt_q) > SE_MULT * rt_se:
        errors.append(f"{what}: test quantile {report['relevant_test']['quantile']!r} vs {rt_q!r}")
    for bound, q, se in (("lo", lo_q, lo_se), ("hi", hi_q, hi_se)):
        expect = est + q * v
        if abs(report["ci"][bound] - expect) > SE_MULT * se * v + REL_TOL * abs(expect):
            errors.append(f"{what}: ci.{bound} {report['ci'][bound]!r} vs {expect!r}")
    return errors


def _value_errors(report: dict, estimate: float, v: float, what: str) -> list[str]:
    errors = []
    pivot = estimate / v if v > 0 else math.copysign(math.inf, estimate)
    for key, expect in (("estimate", estimate), ("V", v), ("pivot", pivot)):
        got = report[key]
        if not isinstance(got, float) or not _close(got, expect):
            errors.append(f"{what}: {key} {got!r} vs reference {expect!r}")
    return errors


def library_sdo(sample, alpha: float = 0.6):
    """The spectral tensor through the public library functions."""
    import specnorm

    return specnorm.estimate_sequential_sdo(sample, specnorm.default_bandwidth_plan(sample.T, alpha=alpha))


def library_values(sdo, measure: str, d: int, ps: tuple | None = None) -> tuple[float, float]:
    """(estimate, V) of one measure through the public library functions."""
    import specnorm

    fn = getattr(specnorm, f"{measure}_sequential")
    if measure in ("tvdpsca", "coherence"):
        path = fn(sdo, d, specnorm.ProductStructure(p1=ps[0], p2=ps[1]))
    else:
        path = fn(sdo, d)
    return path.point_estimate, float(specnorm.self_norm_V([path]).values[0])


class Workload:
    name = ""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def cross_check(self, outputs: list) -> list[tuple[int, str]]:
        """(op index, error) for checks that involve several first-round outputs."""
        return []

    # -- shared pieces -------------------------------------------------

    def build_warm_tables(self) -> None:
        for f, g in sorted(set(EXPONENTS.values())):
            cfg = self.ctx.write(
                f"table_f{f}_g{g}.cfg",
                config_text(f_exp=f, g_exp=g, quantile_r=WARM_TABLE[0], quantile_n=WARM_TABLE[1], threads=2),
            )
            out = self.ctx.root / f"table_f{f}_g{g}.json"
            rc = self.ctx.lib.main(["quantiles", "--config", str(cfg), "--out", str(out)])
            if rc != 0:
                raise RuntimeError(f"warm table ({f}, {g}) failed with exit code {rc}")

    def canary(self) -> Op:
        """The warm-up op: a small fixed-input report with stored references."""
        return self.report_op("canary", config_text(**CANARY_CONFIG, threads=2), self._check_canary)

    def _check_canary(self, report: dict) -> list[str]:
        ref = self.ctx.reference["canary"]
        errors = _value_errors(report, ref["estimate"], ref["V"], "canary")
        return errors + _quantile_errors(report, self.law(*EXPONENTS["tvdfpca"], WARM_TABLE), "canary")

    def law(self, f: int, g: int, table: tuple[int, int]) -> dict:
        return self.ctx.reference["laws"][law_key(f, g, table)]

    def report_op(self, name: str, cfg_text: str, check, extra: tuple[str, ...] = ()) -> Op:
        cfg = self.ctx.write(f"{name}.cfg", cfg_text)
        out = self.ctx.root / f"{name}.json"
        argv = ["infer", "--config", str(cfg), "--out", str(out), *extra]
        main = self.ctx.lib.main

        def collect(rc):
            text = out.read_text() if rc == 0 else ""
            out.unlink(missing_ok=True)
            return rc, text

        def check_output(output) -> list[str]:
            rc, text = output
            if rc != 0:
                return [f"{name}: exit code {rc}"]
            return check(json.loads(text))

        return Op(name, "report", lambda: main(argv), collect, check_output)


class SpectralLarge(Workload):
    """Four reports on one 16384 x 16 CSV series: ingest, estimator, measures."""

    name = "spectral_large"
    T, P = 16384, 16
    MEASURES = (
        ("tvdfpca", dict(d=1, nu=0.6, d_max=4)),
        ("tvdpsca", dict(d=1, p1=4, p2=4)),
        ("coherence", dict(d=1, p1=8, p2=8)),
        ("stationarity", dict(d=2)),
    )

    def setup(self) -> None:
        from specnorm.simulate import simulate

        self.sample = simulate(_tvfar1(self.P, self.T, self.ctx.seed))
        lines = [",".join(f"x{j + 1}" for j in range(self.P))]
        lines.extend(",".join(format(float(x), ".17g") for x in row) for row in self.sample.data)
        self.csv = self.ctx.write("series.csv", "\n".join(lines) + "\n")
        self.build_warm_tables()

    def ops(self) -> list[Op]:
        ops = []
        for measure, keys in self.MEASURES:
            text = config_text(
                input=self.csv, alpha=0.6, threads=2, quantile_r=WARM_TABLE[0],
                quantile_n=WARM_TABLE[1], measure=measure, **keys,
            )
            ops.append(self.report_op(measure, text, self._checker(measure, keys)))
        return ops

    def _reference_values(self) -> dict:
        """(estimate, V) per measure, from one library estimate of the tensor."""
        if not hasattr(self, "_refs"):
            sdo = library_sdo(self.sample)
            self._refs = {
                m: library_values(sdo, m, k["d"], (k.get("p1"), k.get("p2"))) for m, k in self.MEASURES
            }
        return self._refs

    def _checker(self, measure: str, keys: dict):
        def check(report: dict) -> list[str]:
            est, v = self._reference_values()[measure]
            errors = _value_errors(report, est, v, measure)
            law = self.law(*EXPONENTS[measure], WARM_TABLE)
            return errors + _quantile_errors(report, law, measure)

        return check


class CoverageStudy(Workload):
    """300 small simulated reports, cycling the four measures (replicate study)."""

    name = "coverage_study"
    REPORTS = 300
    MEASURES = (
        ("tvdfpca", dict(nu=0.6, d_max=3)),
        ("tvdpsca", dict(p1=2, p2=2)),
        ("coherence", dict(p1=2, p2=2)),
        ("stationarity", {}),
    )

    def setup(self) -> None:
        self.build_warm_tables()

    def ops(self) -> list[Op]:
        ops = []
        for i in range(self.REPORTS):
            measure, keys = self.MEASURES[i % len(self.MEASURES)]
            text = config_text(
                **SMALL_SERIES, quantile_r=WARM_TABLE[0], quantile_n=WARM_TABLE[1],
                measure=measure, **keys,
            )
            seed = self.ctx.seed + i
            ops.append(
                self.report_op(f"r{i:03d}", text, self._checker(seed, measure, keys), ("--seed", str(seed)))
            )
        return ops

    def _checker(self, seed: int, measure: str, keys: dict):
        def check(report: dict) -> list[str]:
            from specnorm.simulate import simulate

            sdo = library_sdo(simulate(_small_spec(seed)))
            est, v = library_values(sdo, measure, 1, (keys.get("p1"), keys.get("p2")))
            errors = _value_errors(report, est, v, f"{measure} seed {seed}")
            law = self.law(*EXPONENTS[measure], WARM_TABLE)
            return errors + _quantile_errors(report, law, measure)

        return check


class PivotCold(Workload):
    """Pivot tables built from an empty cache: 1 thread, 2 threads, joint law."""

    name = "pivot_cold"

    def setup(self) -> None:
        """Nothing to warm: every op starts from an empty cache."""

    def canary(self) -> Op:
        op = super().canary()
        return self._cold(op)

    def _cold(self, op: Op) -> Op:
        """Give every call of ``op`` its own empty pivot cache directory."""
        inner = op.run
        calls = itertools.count()

        def run():
            os.environ["SPECNORM_CACHE_DIR"] = str(self.ctx.root / f"cold-{op.name}-{next(calls)}")
            return inner()

        return Op(op.name, op.kind, run, op.collect, op.check)

    def ops(self) -> list[Op]:
        text = config_text(
            **SMALL_SERIES, measure="tvdfpca", quantile_r=COLD_TABLE[0], quantile_n=COLD_TABLE[1],
            seed=self.ctx.seed,
        )
        t1 = self._cold(self.report_op("infer_t1", text, self._check_report, ("--threads", "1")))
        t2 = self._cold(self.report_op("infer_t2", text, self._check_report, ("--threads", "2")))
        return [t1, t2, Op("joint", "joint", self._joint, lambda out: out, self._check_joint)]

    def _check_report(self, report: dict) -> list[str]:
        from specnorm.simulate import simulate

        est, v = library_values(library_sdo(simulate(_small_spec(self.ctx.seed))), "tvdfpca", 1)
        errors = _value_errors(report, est, v, "tvdfpca")
        return errors + _quantile_errors(report, self.law(3, 2, COLD_TABLE), "tvdfpca")

    def _joint(self) -> dict:
        lib = self.ctx.lib
        sample = lib.simulate(_small_spec(self.ctx.seed))
        sdo = lib.estimate_sequential_sdo(sample, lib.default_bandwidth_plan(sample.T, alpha=0.6))
        paths = [lib.tvdfpca_sequential(sdo, 1), lib.stationarity_sequential(sdo, 1)]
        v = lib.self_norm_V(paths)
        law = lib.mc_quantiles_joint(JOINT_PAIRS, replications=COLD_TABLE[0], bm_steps=COLD_TABLE[1], threads=2)
        dev = np.array([p.point_estimate for p in paths])
        result = lib.joint_statistic(dev, v, law, alpha=LEVEL_ALPHA)
        return {
            "estimates": dev.tolist(),
            "v2": v.matrix.tolist(),
            "statistic": result.statistic,
            "quantile": result.quantile,
        }

    def _check_joint(self, out: dict) -> list[str]:
        from specnorm.simulate import simulate

        sdo = library_sdo(simulate(_small_spec(self.ctx.seed)))
        errors = []
        refs = [library_values(sdo, m, 1) for m in ("tvdfpca", "stationarity")]
        for (est, v), got, v2 in zip(refs, out["estimates"], np.diag(out["v2"])):
            if not (_close(got, est) and _close(math.sqrt(v2), v)):
                errors.append(f"joint: path ({got!r}, {math.sqrt(v2)!r}) vs ({est!r}, {v!r})")
        dev, v2 = np.array(out["estimates"]), np.array(out["v2"])
        stat = float(dev @ np.linalg.solve(v2, dev))
        if not _close(out["statistic"], stat):
            errors.append(f"joint: statistic {out['statistic']!r} vs {stat!r}")
        q, se = self.ctx.reference["laws"][joint_key(COLD_TABLE)][str(1 - LEVEL_ALPHA)]
        if abs(out["quantile"] - q) > SE_MULT * se:
            errors.append(f"joint: quantile {out['quantile']!r} vs {q!r}")
        return errors

    def cross_check(self, outputs: list) -> list[tuple[int, str]]:
        """Reports at 1 and 2 threads must differ only in config_echo.threads."""
        r1, r2 = json.loads(outputs[0][1]), json.loads(outputs[1][1])
        r1["config_echo"].pop("threads")
        r2["config_echo"].pop("threads")
        return [] if r1 == r2 else [(1, "infer_t2: report differs from infer_t1 beyond config_echo.threads")]


WORKLOADS = {w.name: w for w in (SpectralLarge, CoverageStudy, PivotCold)}
