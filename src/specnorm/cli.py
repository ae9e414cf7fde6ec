"""Batch command line front end.

Orchestrates the pipeline simulate/ingest -> estimate -> measure -> infer and
writes machine-readable JSON reports. Configuration is a line-oriented
"key = value" file with ``#`` comments; unknown and repeated keys are
rejected. Each float in a report is written as the shortest text that reads
back as the same double, and each number in ``simulate`` CSV with 17
significant digits, so a fixed config and seed produce byte-identical output
and both round trip exactly.

Subcommands: ``simulate`` (emit CSV), ``estimate`` (spectral tensor summary),
``measure`` (one deviation-measure path), ``infer`` (full inference report),
``select-d`` (order selection), ``quantiles`` (build/cache a pivot table).

Exit codes: 0 success, 2 configuration error (bad flags included), 3 data
error, 4 numerical error, 1 any other (internal) error. Every failure is
reported as an error JSON with the pipeline stage tag (``config``, ``data``,
``estimate``, ``measure`` or ``inference``).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Iterator, NoReturn, Sequence

import numpy as np

from ._version import __version__
from .errors import ConfigError, DataError, NumericalError
from .estimator import (
    SequentialSDO,
    TimeSeriesSample,
    _check_count,
    _check_exponents,
    _validate_band,
    default_bandwidth_plan,
    estimate_sequential_sdo,
    kernel_by_name,
)
from .hermitian import ProductStructure
from .inference import (
    DEFAULT_QUANTILE_SEED,
    OrderSelection,
    PivotLaw,
    _check_delta,
    _check_mc,
    _check_nu,
    _checked_pairs,
    confidence_interval,
    estimate_dstar,
    exact_cache_path,
    exact_quantiles,
    relevant_test,
    self_norm_V,
)
from .measures import (
    SCALING_EXPONENTS,
    SequentialFunctional,
    coherence_sequential,
    stationarity_sequential,
    tvdfpca_sequential,
    tvdpsca_sequential,
)
from .simulate import (
    CoherentPairSpec,
    IidSpec,
    ProcessSpec,
    SeparableSpec,
    TvFar1Spec,
    _check_coupling,
    simulate,
)

__all__ = ["RunConfig", "parse_config", "ingest_csv", "run_pipeline", "dumps_report", "main"]

_MEASURES = ("tvdfpca", "tvdpsca", "coherence", "stationarity")
_ORDERED = ("tvdfpca", "tvdpsca")  # the measures with an order d to select
_PROCESSES = ("iid", "tvfar1", "separable", "coherent_pair")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration: defaults applied, checked whenever one is built."""

    input: str | None = None
    process: str | None = None
    T: int | None = None
    p: int | None = None
    burn_in: int = 200
    sigma_diag: tuple[float, ...] | None = None
    ar_coeff: float | None = None
    sigma_eps_diag: tuple[float, ...] | None = None
    p1: int | None = None
    p2: int | None = None
    sigma_x_diag: tuple[float, ...] | None = None
    sigma_y_diag: tuple[float, ...] | None = None
    coupling: float | None = None
    alpha: float = 0.5
    kappa: float = 0.4
    kernel: str = "parzen"
    m: int | None = None
    k_omega: int | None = None
    band_lo: float = 0.0
    band_hi: float = math.pi
    measure: str | None = None
    d: int = 1
    d_max: int | None = None
    level_alpha: float = 0.05
    delta: float | None = None
    nu: float | None = None
    d0: int | None = None
    quantile_r: int = 100_000
    quantile_n: int = 2000
    quantile_seed: int = DEFAULT_QUANTILE_SEED
    f_exp: int | None = None
    g_exp: int | None = None
    seed: int = 0
    threads: int = 1
    out: str | None = None

    def __post_init__(self) -> None:
        _validate_config(self)


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: value must be finite, got {raw!r}")
    return value


def _parse_floats(raw: str, key: str) -> tuple[float, ...]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"key {key!r}: expected a comma-separated list of numbers")
    return tuple(_parse_float(s, key) for s in items)


# One parser per RunConfig field, chosen by its annotation (optional or not).
_PARSER_BY_TYPE = {
    "int": _parse_int,
    "float": _parse_float,
    "tuple[float, ...]": _parse_floats,
    "str": lambda raw, key: raw,
}
_PARSERS = {f.name: _PARSER_BY_TYPE[f.type.removesuffix(" | None")] for f in fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a "key = value" configuration.

    Lines may carry ``#`` comments; blank lines are skipped. Unknown or
    repeated keys, type mismatches, out-of-range values, and inconsistent
    combinations all raise :class:`ConfigError`.
    """
    values: dict = {}
    lines: dict[str, int] = {}
    unknown: list[str] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in lines:
            raise ConfigError(f"key {key!r} set twice, on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        if key not in _PARSERS:
            unknown.append(key)
            continue
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        values[key] = _PARSERS[key](raw, key)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(sorted(unknown))}")
    return RunConfig(**values)


def _validate_config(cfg: RunConfig) -> None:
    if cfg.input is not None and cfg.process is not None:
        raise ConfigError("exactly one of 'input' and 'process' may be set, not both")
    if cfg.process is not None and cfg.process not in _PROCESSES:
        raise ConfigError(f"process must be one of {_PROCESSES}, got {cfg.process!r}")
    if cfg.process is not None and cfg.T is None:
        raise ConfigError("missing required key 'T' for a simulated process")
    _check_count("p", cfg.p)
    if cfg.measure is not None and cfg.measure not in _MEASURES:
        raise ConfigError(f"measure must be one of {_MEASURES}, got {cfg.measure!r}")
    _check_exponents(cfg.alpha, cfg.kappa, kernel_by_name(cfg.kernel))
    _validate_band((cfg.band_lo, cfg.band_hi))
    _check_count("d", cfg.d)
    _check_count("d_max", cfg.d_max)
    if not 0.002 <= cfg.level_alpha <= 0.5:
        raise ConfigError(
            f"level_alpha = {cfg.level_alpha} outside the supported range [0.002, 0.5]"
        )
    _check_delta(cfg.delta)
    _check_nu(cfg.nu)
    _check_count("d0", cfg.d0)
    if cfg.seed < 0 or cfg.quantile_seed < 0:
        raise ConfigError("seeds must be non-negative integers")
    if (cfg.f_exp is None) != (cfg.g_exp is None):
        raise ConfigError("keys 'f_exp' and 'g_exp' must be set together")
    # the pivot engines' own bounds on quantile_n, quantile_r and threads, before any stage runs
    _checked_pairs([(0, 0)], cfg.quantile_n)
    _check_mc(cfg.quantile_r, cfg.quantile_seed, cfg.threads)
    _check_count("m", cfg.m)
    _check_count("k_omega", cfg.k_omega)
    if cfg.measure in ("tvdpsca", "coherence"):
        _require_ps(cfg)
    if cfg.nu is not None and cfg.d_max is not None and cfg.measure not in (None, *_ORDERED):
        raise ConfigError("order selection requires measure tvdfpca or tvdpsca")
    if cfg.coupling is not None:
        # the pair's coupling is c I, which passes CoherentPairSpec's rule exactly when [[c]] does
        _check_coupling(np.array([[cfg.coupling]]), 1, 1, 0.0)


def _require_ps(cfg: RunConfig) -> ProductStructure:
    """The factor dimensions (p1, p2), given or read off the factor diagonals."""
    p1, p2 = cfg.p1, cfg.p2
    if p1 is None and cfg.sigma_x_diag is not None:
        p1 = len(cfg.sigma_x_diag)
    if p2 is None and cfg.sigma_y_diag is not None:
        p2 = len(cfg.sigma_y_diag)
    if p1 is None or p2 is None:
        raise ConfigError(f"measure = {cfg.measure}: product structure required (keys p1, p2)")
    if p1 < 1 or p2 < 1:
        raise ConfigError("p1 and p2 must be at least 1")
    return ProductStructure(p1=p1, p2=p2)


def ingest_csv(path: str) -> TimeSeriesSample:
    """Read a T x p numeric CSV, auto-detecting an optional header row.

    numpy's C reader parses the rows. A file it refuses or that holds a
    non-finite value is read again with the ``csv`` module and ``float``,
    which accept the same files and name the first bad cell.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
            values = _loadtxt(fh)
            if values is None:
                fh.seek(0)
                values = _parse_rows(path, [row for row in csv.reader(fh) if row])
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # csv.Error: a cell over its size limit
        raise DataError(f"cannot read {path}: {exc}") from None
    if len(values) < 64:
        raise DataError(f"{path}: need at least 64 rows, got {len(values)}")
    return TimeSeriesSample(data=values)


# float() strips only ASCII whitespace; numpy's reader also strips these four
# separators, which str.isspace() counts as whitespace.
_FLOAT_REJECTS = ("\x1c", "\x1d", "\x1e", "\x1f")


def _loadtxt(fh) -> np.ndarray | None:
    """The finite rows after the header by ``np.loadtxt``, or None if it cannot
    parse them to the values ``float`` gives, or finds no rows.

    The file is streamed line by line, never held whole: one large buffer
    would raise glibc's mmap threshold and with it the peak memory of the
    estimate that follows.
    """
    try:
        for chunk in iter(lambda: fh.read(1 << 20), ""):
            if any(c in chunk for c in _FLOAT_REJECTS):
                return None
        fh.seek(0)
        first = next((row for row in csv.reader(fh) if row), None)
        if first is not None and all(_is_number(c) for c in first):
            fh.seek(0)
        line = next((line for line in fh if line.strip("\r\n")), None)
        if line is None:
            return None  # no rows, on which loadtxt would warn
        lines = itertools.chain([line], fh)
        values = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:  # a cell or row it cannot parse, or a UnicodeDecodeError
        return None
    return values if np.isfinite(values).all() else None


def _parse_rows(path: str, rows: list[list[str]]) -> np.ndarray:
    """The rows after the header, each cell by ``float``; DataError names the first bad one."""
    if not rows:
        raise DataError(f"{path}: empty file")
    start = 0 if all(_is_number(c) for c in rows[0]) else 1
    data_rows = rows[start:]
    if not data_rows:
        raise DataError(f"{path}: no data rows")
    try:
        values = np.array(data_rows, dtype=float)
    except ValueError:
        _check_cells(path, data_rows, start)
        raise
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise DataError(
            f"{path}: non-finite value at row {start + i + 1}, column {j + 1}: {data_rows[i][j]!r}"
        )
    return values


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _check_cells(path: str, rows: list[list[str]], start: int) -> None:
    """Raise DataError at the first ragged row, non-numeric or non-finite cell."""
    p = len(rows[0])
    for i, row in enumerate(rows, start=start + 1):
        if len(row) != p:
            raise DataError(f"{path}: ragged row {i} has {len(row)} cells, expected {p}")
        for j, cell in enumerate(row, start=1):
            if not _is_number(cell):
                raise DataError(f"{path}: non-numeric cell at row {i}, column {j}: {cell!r}")
            if not math.isfinite(float(cell)):
                raise DataError(f"{path}: non-finite value at row {i}, column {j}: {cell!r}")


def _diag_or_eye(diag: tuple[float, ...] | None, p: int | None, what: str) -> np.ndarray:
    if diag is not None:
        return np.diag(np.asarray(diag, dtype=float))
    if p is not None:
        return np.eye(p)
    raise ConfigError(f"{what}: set either its diagonal or the dimension 'p'")


def build_process_spec(cfg: RunConfig) -> ProcessSpec:
    """Translate a configuration into a simulation spec."""
    if cfg.process is None or cfg.T is None:
        raise ConfigError("simulation requires keys 'process' and 'T'")
    common = dict(T=cfg.T, burn_in=cfg.burn_in, seed=cfg.seed)
    if cfg.process == "iid":
        sigma = _diag_or_eye(cfg.sigma_diag, cfg.p, "process iid")
        return IidSpec(sigma=sigma, **common)
    if cfg.process == "tvfar1":
        if cfg.ar_coeff is None:
            raise ConfigError("process tvfar1 requires key 'ar_coeff'")
        sigma = _diag_or_eye(cfg.sigma_eps_diag, cfg.p, "process tvfar1")
        return TvFar1Spec(a=cfg.ar_coeff * np.eye(len(sigma)), sigma_eps=sigma, **common)
    if cfg.process == "separable":
        if cfg.sigma_x_diag is None or cfg.sigma_y_diag is None:
            raise ConfigError("process separable requires keys 'sigma_x_diag' and 'sigma_y_diag'")
        return SeparableSpec(sigma_x=np.diag(cfg.sigma_x_diag), sigma_y=np.diag(cfg.sigma_y_diag),
                             **common)
    # coherent_pair, the last of the processes RunConfig admits
    if cfg.p1 is None or cfg.p2 is None:
        raise ConfigError("process coherent_pair requires keys 'p1' and 'p2'")
    coupling = None
    if cfg.coupling is not None and cfg.coupling != 0.0:
        if cfg.p1 != cfg.p2:
            raise ConfigError("scalar coupling needs p1 = p2")
        coupling = cfg.coupling * np.eye(cfg.p1)
    return CoherentPairSpec(p1=cfg.p1, p2=cfg.p2, coupling=coupling, **common)


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Tag an exception leaving the block with the pipeline stage it left.

    An exception already tagged keeps its tag, so the innermost stage wins;
    :func:`main` reports untagged errors as stage ``config``.
    """
    try:
        yield
    except Exception as exc:
        if not hasattr(exc, "stage"):
            exc.stage = name
        raise


def _sample(cfg: RunConfig) -> TimeSeriesSample:
    """The data stage: the CSV or simulated sample, whose dimension must be ``p`` if set."""
    with _stage("data"):
        if cfg.input is not None:
            sample = ingest_csv(cfg.input)
        elif cfg.process is not None:
            sample = simulate(build_process_spec(cfg))
        else:
            raise ConfigError("exactly one of 'input' and 'process' is required")
        if cfg.p is not None and cfg.p != sample.p:
            raise ConfigError(f"p = {cfg.p} does not match the data dimension {sample.p}")
    return sample


def _estimate(cfg: RunConfig) -> SequentialSDO:
    """The stages every analysis shares: data, bandwidth plan, sequential estimate."""
    sample = _sample(cfg)
    with _stage("estimate"):
        plan = default_bandwidth_plan(
            T=sample.T, alpha=cfg.alpha, kappa=cfg.kappa, M=cfg.m, kernel=kernel_by_name(cfg.kernel)
        )
        sdo = estimate_sequential_sdo(
            sample, plan, band=(cfg.band_lo, cfg.band_hi), k_omega=cfg.k_omega, threads=cfg.threads
        )
    build = sdo.blocks

    def blocks(j: int) -> Iterator[tuple]:
        # the chunks are built inside the measures' block pass, but their errors belong here
        with _stage("estimate"):
            yield from build(j)

    return replace(sdo, blocks=blocks)


def _measure_path(cfg: RunConfig, sdo: SequentialSDO, d: int) -> SequentialFunctional:
    if cfg.measure is None:
        raise ConfigError("missing required key 'measure'")
    if cfg.measure == "tvdfpca":
        return tvdfpca_sequential(sdo, d)
    if cfg.measure == "tvdpsca":
        return tvdpsca_sequential(sdo, d, _require_ps(cfg))
    if cfg.measure == "coherence":
        return coherence_sequential(sdo, d, _require_ps(cfg))
    return stationarity_sequential(sdo, d)  # the last of RunConfig's measures


def _select_order(cfg: RunConfig, sdo: SequentialSDO, law: PivotLaw) -> OrderSelection:
    """Order selection over the paths d = 1..d_max, each measured in stage ``measure``."""
    with _stage("measure"):
        paths = [_measure_path(cfg, sdo, d) for d in range(1, cfg.d_max + 1)]
    with _stage("inference"):
        return estimate_dstar(paths, law, cfg.nu, cfg.level_alpha)


def _report(cfg: RunConfig, body: dict, seed: bool = True) -> dict:
    """The report envelope: config echo, then ``body``, then seed and version."""
    values = ((f.name, getattr(cfg, f.name)) for f in fields(cfg))
    echo = {key: list(val) if isinstance(val, tuple) else val for key, val in values}
    tail = {"seed": cfg.seed} if seed else {}
    return {"config_echo": echo, **body, **tail, "version": __version__}


def _diagnostics(sdo: SequentialSDO, seq: SequentialFunctional | None = None) -> dict:
    plan = sdo.plan
    diagnostics = {
        "N": plan.N,
        "b_f": plan.b_f,
        "M": plan.M,
        "k_omega": sdo.k_omega,
        "rho_sq": plan.rho_sq,
        "kernel": plan.kernel.name,
        "plan_warnings": list(plan.warnings),
        "psd_clip_max": sdo.diagnostics.get("psd_clip_max", 0.0),
    }
    if seq is not None:
        diagnostics.update(seq.diagnostics)
    return diagnostics


def _order_stats(sel: OrderSelection) -> list[dict]:
    return [
        {"d": st.d, "estimate": st.estimate, "v": st.v, "statistic": st.statistic}
        for st in sel.stats
    ]


def run_pipeline(cfg: RunConfig) -> dict:
    """Full inference pipeline; returns the report as a JSON-ready dict."""
    sdo = _estimate(cfg)
    with _stage("measure"):
        seq = _measure_path(cfg, sdo, cfg.d)
    with _stage("inference"):
        v = self_norm_V([seq]).values[0]
        law = exact_quantiles(seq.f_exponent, seq.g_exponent, bm_steps=cfg.quantile_n)
        estimate = seq.point_estimate
        delta = cfg.delta if cfg.delta is not None else 0.0
        if v > 0:
            pivot = (estimate - delta) / v
        elif estimate > delta:
            pivot = math.inf
        elif estimate < delta:
            pivot = -math.inf
        else:
            pivot = math.nan  # degenerate path exactly at the hypothesized value
        ci = confidence_interval(estimate, v, law, cfg.level_alpha)
        rel = relevant_test(estimate, v, law, delta, cfg.level_alpha)
        order_block: dict = {"nu": None, "d_hat": None, "stats": []}
        if cfg.nu is not None and cfg.d_max is not None:
            sel = _select_order(cfg, sdo, law)
            order_block = {"nu": sel.nu, "d_hat": sel.d_hat, "stats": _order_stats(sel)}
    return _report(cfg, {
        "estimate": estimate,
        "V": float(v),
        "pivot": float(pivot),
        "ci": {"level": ci.level, "lo": ci.lo, "hi": ci.hi},
        "relevant_test": {"delta": rel.delta, "quantile": rel.quantile, "reject": rel.reject},
        "order": order_block,
        "diagnostics": _diagnostics(sdo, seq),
    })


def _plain(obj):
    """``obj`` with numpy values as Python ones and non-finite floats as strings."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else "Infinity" if obj > 0 else "-Infinity"
    return obj


def _unserializable(obj):
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_report(obj: dict) -> str:
    """Deterministic JSON; each float is the shortest text that reads back as the same double.

    Non-finite floats have no JSON representation and are emitted as the
    strings "Infinity", "-Infinity", "NaN".
    """
    return json.dumps(_plain(obj), default=_unserializable)


def _cmd_simulate(cfg: RunConfig) -> str:
    with _stage("data"):
        if cfg.process is None:
            raise ConfigError("subcommand 'simulate' requires key 'process'")
    sample = _sample(cfg)
    lines = [",".join(f"x{j + 1}" for j in range(sample.p))]
    for row in sample.data:
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(lines) + "\n"


def _cmd_estimate(cfg: RunConfig) -> dict:
    sdo = _estimate(cfg)
    # the trace of every slice, as a block pass sees chunks of fractions; the report keeps eta = 1
    (trace,) = sdo.map_blocks(lambda f: (np.einsum("mkii->mk", f).real,))
    return _report(cfg, {
        "shape": {"m": sdo.m, "k_omega": sdo.k_omega, "n_window": sdo.n_window, "p": sdo.p},
        "u_points": sdo.u_points,
        "omega_points": sdo.omega_points,
        "eta_points": sdo.eta_points,
        "trace_eta1": trace[..., -1],
        "diagnostics": _diagnostics(sdo),
    })


def _cmd_measure(cfg: RunConfig) -> dict:
    sdo = _estimate(cfg)
    with _stage("measure"):
        seq = _measure_path(cfg, sdo, cfg.d)
    return _report(cfg, {
        "kind": seq.kind,
        "d": seq.d,
        "f_exponent": seq.f_exponent,
        "g_exponent": seq.g_exponent,
        "estimate": seq.point_estimate,
        "eta": seq.eta,
        "values": seq.values,
        "valid": seq.valid,
        "diagnostics": _diagnostics(sdo, seq),
    })


def _cmd_select_d(cfg: RunConfig) -> dict:
    if cfg.nu is None:
        raise ConfigError("subcommand 'select-d' requires key 'nu'")
    if cfg.d_max is None:
        raise ConfigError("subcommand 'select-d' requires key 'd_max'")
    cfg = replace(cfg, measure=cfg.measure or "tvdfpca")
    sdo = _estimate(cfg)
    with _stage("inference"):
        law = exact_quantiles(*SCALING_EXPONENTS[cfg.measure], bm_steps=cfg.quantile_n)
    sel = _select_order(cfg, sdo, law)
    return _report(cfg, {
        "nu": sel.nu,
        "alpha": sel.alpha,
        "quantile": sel.quantile,
        "d_hat": sel.d_hat,
        "stats": _order_stats(sel),
        "diagnostics": _diagnostics(sdo),
    })


def _cmd_quantiles(cfg: RunConfig) -> dict:
    with _stage("inference"):
        if cfg.f_exp is not None:
            f_exp, g_exp = cfg.f_exp, cfg.g_exp
        elif cfg.measure is not None:
            f_exp, g_exp = SCALING_EXPONENTS[cfg.measure]
        else:
            raise ConfigError("subcommand 'quantiles' requires 'measure' or 'f_exp' and 'g_exp'")
        law = exact_quantiles(f_exp, g_exp, bm_steps=cfg.quantile_n)
        cache_file = exact_cache_path(f_exp, g_exp, cfg.quantile_n)
    return _report(cfg, {
        "f_exponent": f_exp,
        "g_exponent": g_exp,
        "replications": law.replications,
        "bm_steps": law.bm_steps,
        "quantile_seed": law.seed,
        "cache_file": str(cache_file),
        "alphas": law.alphas,
        "quantiles": law.quantiles,
    }, seed=False)


# Each subcommand returns its CSV text or its report dict.
_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "measure": _cmd_measure,
    "infer": lambda cfg: run_pipeline(cfg),  # looked up per call, like every library name
    "select-d": _cmd_select_d,
    "quantiles": _cmd_quantiles,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subcommands' included, whose usage errors are ConfigErrors."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specnorm",
        description="Self-normalized inference for time-varying spectral density operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a key = value configuration file")
        cmd.add_argument("--seed", type=int, default=None, help="override the configured seed")
        cmd.add_argument("--threads", type=int, default=None, help="cap worker threads")
        cmd.add_argument("--out", default=None, help="output path (default: config 'out' or stdout)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            with open(args.config, encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(str(exc)) from None
        cfg = parse_config(text)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.threads is not None:
            cfg = replace(cfg, threads=args.threads)
        out = args.out if args.out is not None else cfg.out
        # fail before any stage runs; the write checks again, as the directory can vanish
        if out is not None and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
            raise ConfigError(f"cannot write {out}: not a file in an existing directory")
        result = _COMMANDS[args.command](cfg)
        text_out = result if isinstance(result, str) else dumps_report(result) + "\n"
        if out is None:
            sys.stdout.write(text_out)
        else:
            try:
                with open(out, "w") as fh:
                    fh.write(text_out)
            except OSError as exc:
                raise ConfigError(f"cannot write {out}: {exc}") from None
        return 0
    except Exception as exc:
        # a MemoryError is exit 2: every array size follows from the config and its input;
        # an exception outside the taxonomy is a bug, exit 1
        code = (4 if isinstance(exc, NumericalError) else 3 if isinstance(exc, DataError)
                else 2 if isinstance(exc, (ValueError, MemoryError)) else 1)
        if code == 1:
            traceback.print_exc()  # the bug's traceback, on stderr
        error_report = {
            "error": {
                "stage": getattr(exc, "stage", "config"),
                "type": "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__,
                "message": str(exc),
            },
            "version": __version__,
        }
        sys.stdout.write(dumps_report(error_report) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
