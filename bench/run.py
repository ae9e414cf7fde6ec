"""specnorm benchmark: one workload per process, untraced or traced.

    python3 bench/run.py --workload spectral_large --seed 1 --seconds 25 --trace 0

Builds nothing: it imports specnorm from ``src/`` of the checkout it runs in
and fails (exit 1, no result line) when that is missing. Set-up makes the
workload's inputs from ``--seed``, warms the pivot cache and runs one
untimed, reference-checked warm-up op. The timed phase then repeats the
workload's round of ops, one client in a closed loop, until ``--seconds``
have passed. Every output is checked after the timed phase.

Every reported time is scaled to the reference host speed, measured by the
fixed kernel in ``hostspeed.py`` timed between ops. The record keeps the raw
figures beside them. BLAS runs one thread: on two vCPUs
a second OpenBLAS thread only spins on the program's small matrices.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones from spans recorded around every call into specnorm. The
last stdout line is the JSON result; the full record goes to
``bench/out/<workload>-seed<n>-trace<t>.json`` and, when traced, the spans to
``bench/out/<workload>-seed<n>.spans.jsonl``.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; set-up probes inherit it

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 2  # extra set-ups in child processes; setup_s is the median of 1 + this
LAYERS = ("cli", "simulate", "estimator", "measures", "inference")
MEASURES = ("tvdfpca", "tvdpsca", "coherence", "stationarity")


def _import_specnorm() -> None:
    src = ROOT / "src"
    if not (src / "specnorm" / "__init__.py").is_file():
        raise SystemExit(f"bench: no specnorm sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import specnorm

    if Path(specnorm.__file__).resolve().parent != (src / "specnorm").resolve():
        raise SystemExit(f"bench: imported specnorm from {specnorm.__file__}, not {src}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reference", default=str(BENCH / "reference.json"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- environment ----------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes

    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines() if "openblas" in line}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = _read("/proc/cpuinfo")
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")), "")
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        caches[f"L{level} {kind}"] = _read(str(index / "size")).strip()
    meminfo = dict(ln.split(":", 1) for ln in _read("/proc/meminfo").splitlines() if ":" in ln)
    llc = max(caches.items(), key=lambda kv: kv[0], default=("", ""))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "cpu_model": model,
        "caches": caches,
        "mem_available_mb": int(meminfo.get("MemAvailable", "0 kB").split()[0]) // 1024,
        "note": (
            f"last-level cache {llc[0]} = {llc[1]}: the largest estimator tensor (91 MB on "
            "spectral_large) is below 4x LLC, so estimator bytes are computed from array "
            "sizes, not measured memory bandwidth"
        ),
    }


# -- measurement ----------------------------------------------------------


def _run_op(op, tracer, index):
    if tracer is not None:
        tracer.op = index
    steal0 = _host_steal_s()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        result, error = None, f"{op.name}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    steal = _host_steal_s() - steal0
    if tracer is not None:
        tracer.op = None
    output = op.collect(result) if error is None else None
    return {"elapsed": elapsed, "cpu": cpu, "steal": steal, "output": output, "error": error, "kind": op.kind}


def _setup_probe(args) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--reference", args.reference, "--setup-only",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with 10 samples beyond it (the max below 11)."""
    ordered = sorted(values)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _host_steal_s() -> float:
    """CPU time the hypervisor gave to others, all CPUs (0 where not reported)."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _timings(rounds) -> dict:
    """Each op's median over rounds is its latency; a round's figures are sums of those."""
    samples = [[rnd["ops"][j] for rnd in rounds] for j in range(len(rounds[0]["ops"]))]
    wall = [statistics.median(r["elapsed"] for r in op) for op in samples]
    cpu = [statistics.median(r["cpu"] for r in op) for op in samples]
    reports = [t for j, t in enumerate(wall) if rounds[0]["ops"][j]["kind"] == "report"]
    tail, percentile = _tail(reports)
    return {
        "wall_s": sum(wall), "cpu_s": sum(cpu), "report_p50_s": statistics.median(reports),
        "report_tail_s": tail, "reports": len(reports), "tail_percentile": percentile,
    }


def end_to_end(rounds, setups, peak_rss_mb, host) -> tuple[dict, dict]:
    """Times at reference host speed (see hostspeed.py); the raw figures go to the record."""
    raw = _timings(rounds)
    raw["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    scale = host.scale()
    times = ("wall_s", "cpu_s", "setup_s", "report_p50_s", "report_tail_s")
    metrics = {name: (scale * raw[name], "s") for name in times}
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    info = {
        "rounds": len(rounds),
        "round_wall_s": [sum(r["elapsed"] for r in rnd["ops"]) for rnd in rounds],
        "round_host_steal_s": [sum(r["steal"] for r in rnd["ops"]) for rnd in rounds],
        "round_kernel_s": [rnd["kernel_s"] for rnd in rounds],
        "reports_per_round": raw["reports"],
        "report_tail_percentile": raw["tail_percentile"],
        "kernel_s": statistics.median(host.samples),
        "raw": {name: raw[name] for name in times},
        "setup_samples_s": [s["setup_s"] for s in setups],
    }
    return metrics, info


def per_layer(tracer, rounds, outputs, ops, span_costs) -> dict:
    """Per-layer metrics: median over rounds of each round's total."""
    nops = len(ops)
    per_round = []
    for r, rnd in enumerate(rounds):
        lo, hi = r * nops, (r + 1) * nops
        per_round.append(_round_layers(tracer, lo, hi, rnd, span_costs))
    metrics = {name: (statistics.median(m[name][0] for m in per_round), unit)
               for name, (_, unit) in per_round[0].items()}
    # the high-water mark only rises once per run, so growth is summed, not a median
    for layer in ("estimator", "measures"):
        kb = sum(tracer.rss_kb[i] for i, s in enumerate(tracer.spans) if s[0].startswith(layer + "."))
        metrics[f"{layer}.rss_growth_mb"] = (kb / 1024.0, "MB")
    metrics.update(_safeguards(outputs, ops))
    return metrics


def _round_layers(tracer, lo, hi, rnd, span_costs) -> dict:
    spans = [(i, s) for i, s in enumerate(tracer.spans) if lo <= s[4] < hi]
    duration = {i: s[2] - s[1] for i, s in spans}
    child = Counter()
    for i, s in spans:
        if s[3] is not None:
            child[s[3]] += duration[i]

    def busy(prefix):  # time in spans of a layer that are not inside the same layer
        return sum(duration[i] for i, s in spans
                   if s[0].startswith(prefix) and not _inside(tracer, s[3], prefix))

    def total(names):
        return sum(duration[i] for i, s in spans if s[0] in names)

    def work(key, names):
        return sum(tracer.work.get(i, {}).get(key, 0) for i, s in spans if s[0] in names)

    op_wall = sum(r["elapsed"] for r in rnd["ops"])
    top = sum(duration[i] for i, s in spans if s[3] is None)
    linalg = [x for x in tracer.linalg if lo <= x[3] < hi]
    measures_busy = busy("measures.")
    est_spans = [i for i, s in spans if s[0] == "estimator.estimate_sequential_sdo"]
    ingest = total({"cli.ingest_csv"})
    sim = total({"simulate.simulate"})
    m = {
        "cli.parse_config_s": (total({"cli.parse_config"}), "s"),
        "cli.dumps_report_s": (total({"cli.dumps_report"}), "s"),
        "cli.self_s": (sum(duration[i] - child[i] for i, s in spans if s[0] in {"cli.main", "cli.run_pipeline"}), "s"),
        "cli.report_bytes": (sum(len(r["output"][1]) for r in rnd["ops"] if r["kind"] == "report" and r["output"]), "B"),
        "cli.ingest_csv_mb_per_s": (work("bytes", {"cli.ingest_csv"}) / 1e6 / ingest if ingest else 0.0, "MB/s"),
        "simulate.rows_per_s": (work("rows", {"simulate.simulate"}) / sim if sim else 0.0, "rows/s"),
        "estimator.plan_s": (total({"estimator.default_bandwidth_plan"}), "s"),
        "estimator.busy_s": (busy("estimator."), "s"),
        "estimator.cpu_s": (sum(tracer.cpu[i] for i in est_spans), "s"),
        "estimator.calls": (len(est_spans), "count"),
        "estimator.tensor_mb": (max((tracer.work.get(i, {}).get("tensor_bytes", 0) for i in est_spans), default=0) / 1e6, "MB"),
        "measures.busy_s": (measures_busy, "s"),
        "measures.calls": (sum(1 for _, s in spans if s[0].startswith("measures.")), "count"),
        "measures.matrices_decomposed": (
            sum(n for _, n, span, _ in linalg if span is not None and tracer.spans[span][0].startswith("measures.")),
            "count"),
        "inference.self_norm_V_s": (total({"inference.self_norm_V"}), "s"),
        "inference.lookup_s": (total({"inference.confidence_interval", "inference.relevant_test",
                                      "inference.estimate_dstar", "inference.joint_statistic"}), "s"),
        "inference.pivot_s": (total({"inference.mc_quantiles"}), "s"),
        "inference.pivot_hits": (work("hit", {"inference.mc_quantiles"}), "count"),
        "inference.pivot_misses": (work("miss", {"inference.mc_quantiles"}), "count"),
        "inference.cache_bytes_written": (work("bytes_written", {"inference.mc_quantiles"}), "B"),
        "linalg.calls": (len(linalg), "count"),
    }
    for kind in MEASURES:
        t = total({f"measures.{kind}_sequential"})
        m[f"measures.{kind}.busy_share"] = (t / measures_busy if measures_busy else 0.0, "1")
    rates = {}
    for i, s in spans:
        w = tracer.work.get(i, {})
        if "paths" in w:
            key = "joint" if s[0] == "inference.mc_quantiles_joint" else f"t{w['threads']}"
            paths, secs = rates.get(key, (0, 0.0))
            rates[key] = (paths + w["paths"], secs + duration[i])
    rate = {k: p / t for k, (p, t) in rates.items()}
    m["inference.mc_paths_per_s.t1"] = (rate.get("t1", 0.0), "paths/s")
    m["inference.mc_paths_per_s.t2"] = (rate.get("t2", 0.0), "paths/s")
    eff = rate["t2"] / (2 * rate["t1"]) if "t1" in rate and "t2" in rate else 0.0
    m["inference.mc_scaling_eff"] = (eff, "1")
    m["inference.joint_paths_per_s"] = (rate.get("joint", 0.0), "paths/s")
    for layer in LAYERS:
        m[f"warnings.{layer}"] = (sum(1 for _, span, op in tracer.warnings if lo <= op < hi and span is not None
                                     and tracer.spans[span][0].startswith(layer + ".")), "count")
    span_s, count_s = span_costs
    m["trace.coverage"] = (top / op_wall, "1")
    m["trace.overhead"] = ((len(spans) * span_s + len(linalg) * count_s) / op_wall, "1")
    m["trace.spans"] = (len(spans), "count")
    return m


def _inside(tracer, parent, prefix) -> bool:
    while parent is not None:
        if tracer.spans[parent][0].startswith(prefix):
            return True
        parent = tracer.spans[parent][3]
    return False


def _safeguards(outputs, ops) -> dict:
    """Numerical safeguards the first round's reports say fired."""
    counts = Counter()
    clip = 0.0
    for op, output in zip(ops, outputs):
        if op.kind != "report" or not output or output[0] != 0:
            continue
        diag = json.loads(output[1])["diagnostics"]
        counts["plan_warnings"] += len(diag["plan_warnings"])
        counts["near_tie_count"] += diag.get("near_tie_count", 0)
        counts["skipped_cells"] += diag.get("skipped_cells", 0)
        clip = max(clip, diag["psd_clip_max"])
    metrics = {f"safeguard.{k}": (counts[k], "count") for k in ("plan_warnings", "near_tie_count", "skipped_cells")}
    metrics["safeguard.psd_clip_max"] = (clip, "1")
    return metrics


# -- the run --------------------------------------------------------------


def _check(workload, ops, rounds) -> tuple[int, list[str]]:
    """Failed executions and why: the first round is checked, later rounds must repeat it."""
    first = [rec["output"] for rec in rounds[0]["ops"]]
    errors = [[rec["error"]] if rec["error"] else op.check(rec["output"]) for op, rec in zip(ops, rounds[0]["ops"])]
    if not any(errors):
        for j, error in workload.cross_check(first):
            errors[j].append(error)
    reasons = [e for errs in errors for e in errs]
    failed = 0
    for rnd in rounds:
        for j, rec in enumerate(rnd["ops"]):
            if errors[j] or rec["error"] or rec["output"] != first[j]:
                failed += 1
                if rnd is not rounds[0] and not errors[j]:
                    reasons.append(rec["error"] or f"{ops[j].name}: output differs from the first round")
    return failed, reasons


def _run(args, tracer, lib, reference, captured) -> dict:
    from hostspeed import HostSpeed
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run_dir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    try:
        ctx = Context(run_dir, args.seed, lib, reference)
        workload = WORKLOADS[args.workload](ctx)
        workload.setup()
        canary = workload.canary()
        rec = _run_op(canary, None, None)
        canary_errors = [rec["error"]] if rec["error"] else canary.check(rec["output"])
        setup = {"setup_s": time.perf_counter() - _T0, "canary_errors": canary_errors}
        if args.setup_only:
            return setup
        setups = [setup]
        attempted, failed, reasons = 1, int(bool(canary_errors)), list(canary_errors)
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = _setup_probe(args)
                setups.append(probe)
                attempted += 1
                failed += int(bool(probe["canary_errors"]))
                reasons.extend(probe["canary_errors"])
        ops = workload.ops()
        rounds = []
        host = HostSpeed()
        steal0 = _host_steal_s()
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            records, first = [], len(host.samples)
            for op in ops:
                records.append(_run_op(op, tracer, len(rounds) * len(ops) + len(records)))
                host.between_ops()
            host.between_ops(at_least=1)  # a round shorter than one interval still gets a sample
            rounds.append({"ops": records, "kernel_s": statistics.median(host.samples[first:])})
        timed_s = time.perf_counter() - start
        steal_share = (_host_steal_s() - steal0) / (timed_s * os.cpu_count())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the reference recomputation's own plan warnings
            round_failed, round_reasons = _check(workload, ops, rounds)
        attempted += sum(len(rnd["ops"]) for rnd in rounds)
        failed += round_failed
        reasons.extend(round_reasons)
        e2e, info = end_to_end(rounds, setups, peak_rss_mb, host)
        info.update(
            timed_s=timed_s, host_steal_share=steal_share, check_s=time.perf_counter() - check_start, attempted=attempted, failed=failed,
            fail_frac=failed / attempted, failures=reasons[:20], warnings_captured=dict(captured),
        )
        result = {"end_to_end": e2e, "info": info}
        if tracer is not None:
            from tracing import span_cost

            result["per_layer"] = per_layer(tracer, rounds, [r["output"] for r in rounds[0]["ops"]], ops, span_cost())
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = _parse_args(argv)
    reference = json.loads(Path(args.reference).read_text())
    _import_specnorm()
    from tracing import Tracer, library

    tracer = Tracer() if args.trace else None
    lib = library(tracer)
    captured = Counter()

    def showwarning(message, category, filename, lineno, file=None, line=None):
        captured[category.__name__] += 1
        if tracer is not None:
            tracer.count_warning(category)

    # every warning is counted, none printed: "always" keeps the counts
    # independent of which warnings an earlier call already raised
    warnings.simplefilter("always")
    warnings.showwarning = showwarning
    OUT.mkdir(exist_ok=True)

    result = _run(args, tracer, lib, reference, captured)
    if args.setup_only:
        print(json.dumps(result))
        return 0
    metrics = result["per_layer"] if tracer is not None else result["end_to_end"]
    info = result["info"]
    stem = f"{args.workload}-seed{args.seed}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        **{k: {n: {"value": v, "unit": u} for n, (v, u) in result[k].items()}
           for k in ("end_to_end", "per_layer") if k in result},
        "info": info,
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'fail_frac':40s} {info['fail_frac']:.6g} ({info['failed']}/{info['attempted']})")
    print(f"rounds {info['rounds']}, {info['reports_per_round']} reports per round, "
          f"tail = p{info['report_tail_percentile']:.4g}, host steal {100 * info['host_steal_share']:.2g}%, "
          f"host kernel {1e3 * info['kernel_s']:.3g} ms")
    for reason in info["failures"]:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
