#!/usr/bin/env python3
"""cfaisp benchmark: seeded workloads, end-to-end rates and a traced per-module run.

    python3 bench/run.py --workload sweep-256 --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from src/.
--trace 0 measures the end-to-end metrics with no tracing. --trace 1 runs an
untraced and a traced pass in turn and reports per-module metrics from the
traced one. Every run checks its outputs by sha256 digest. The report goes to
standard output, and its last line is one JSON object with the keys correct,
attempted, failed and metrics. A fuller JSON report, and the spans of traced
passes, go to .bench_out/ in the checkout.
"""

import argparse
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import statistics
import sys
import tempfile
import time

# Leave no __pycache__ in the checkout, and keep every run's import time alike.
sys.dont_write_bytecode = True

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = pathlib.Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
# glibc sysconf numbers of _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE,
# which os.sysconf_names does not list.
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194

E2E_UNITS = {"setup_s": "s", "runs_per_s": "runs/s", "run_ms_p50": "ms", "peak_rss_mb": "MiB"}
# Printed in the report but left out of the JSON line: they exist on one
# workload only, or are 0 when all is well.
REPORT_UNITS = {
    "runs_per_s_jobs2": "runs/s",
    "parallel_efficiency": "ratio",
    "run_ms_p90": "ms",
    "failed_frac": "ratio",
    "result_ok": "0/1",
    "import_s": "s",
}

_KINDS = ("none", "gaussian", "median", "bilateral", "wavelet")
PER_LAYER_UNITS = {
    "demosaic.joint_bilateral.ms": "ms",
    "demosaic.joint_bilateral.calls": "count",
    "demosaic.joint_bilateral.passes": "count",
    "demosaic.joint_bilateral.bytes_computed": "B",
    "demosaic.bilinear.ms": "ms",
    "demosaic.bilinear.calls": "count",
    "demosaic.gradient.ms": "ms",
    "demosaic.gradient.calls": "count",
    **{f"denoise.{kind}.{field}": unit for kind in _KINDS for field, unit in (("ms", "ms"), ("calls", "count"))},
    "denoise.samples": "count",
    "denoise.bilateral.offsets": "count",
    "noise.add_awgn.ms": "ms",
    "noise.add_awgn.calls": "count",
    "noise.normal_field.ms": "ms",
    "noise.normal_field.calls": "count",
    "noise.normal_field.distinct": "count",
    "noise.field_useful_ratio": "ratio",
    "pipeline.run_pipeline.self_ms": "ms",
    "pipeline.run_pipeline.calls": "count",
    "pipeline.run_experiment.self_ms": "ms",
    "pipeline.after_demosaic_distinct": "count",
    "pipeline.after_demosaic_calls": "count",
    "pipeline.task_pickle_bytes": "B",
    "pipeline.pool_overhead_ms": "ms",
    "cfa.mosaic_from_rgb.ms": "ms",
    "cfa.mosaic_from_rgb.calls": "count",
    "cfa.decompose.ms": "ms",
    "cfa.decompose.calls": "count",
    "cfa.recompose.ms": "ms",
    "cfa.recompose.calls": "count",
    "imageio.decode_pnm.ms": "ms",
    "imageio.decode_pnm.calls": "count",
    "imageio.encode_pnm.ms": "ms",
    "imageio.encode_pnm.calls": "count",
    "imageio.bytes_in": "B",
    "imageio.bytes_out": "B",
    "imageio.write_csv.ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.main.calls": "count",
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}
# Span names whose self time a per-layer "*.ms" or "*.self_ms" metric reports.
_SELF_MS_SPANS = {
    "pipeline.run_pipeline.self_ms": "pipeline.run_pipeline",
    "pipeline.run_experiment.self_ms": "pipeline.run_experiment",
    "cli.main.self_ms": "cli.main",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep-256", "bilateral-512", "frame-1024"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed; also the master seed (default 0)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of one run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 reports per-module metrics from a traced run")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    return args


def _quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment(workload) -> dict:
    import numpy
    import scipy

    def sysconf(number):
        try:
            return os.sysconf(number)
        except (ValueError, OSError):
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "l2_bytes": sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": sysconf(_SC_LEVEL3_CACHE_SIZE),
        "start_method": multiprocessing.get_start_method(),
        "workload": workload.name,
        "seed": workload.seed,
        "runs_per_pass": workload.runs_per_pass(),
        **workload.sizes(),
    }


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _check_outputs(workload, passes, reference) -> list[str]:
    """Problems found in the passes' outputs; empty when all is correct."""
    problems = []
    first = passes[0].digests
    if any(digest is None for digest in first.values()):
        problems.append("a pass produced no output to digest")
    if any(p.digests != first for p in passes):
        problems.append("passes disagree on their output digests")
    if not all(p.consistent for p in passes):
        problems.append("jobs=1 and jobs=2 CSVs differ")
    if workload.seed == DEFAULT_SEED:
        expected = reference.get(workload.name)
        if expected is None:
            problems.append("no reference digests for this workload")
        elif {k: first.get(k) for k in expected} != expected:
            problems.append(f"digests {first} differ from the reference {expected}")
    return problems


def _run_passes(seconds: float, one_pass) -> list:
    """Repeat one_pass while the next one is expected to end within seconds."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def measure(workload, seconds: float, reference: dict) -> dict:
    """Untraced passes: the end-to-end metrics."""
    passes = _run_passes(seconds, workload.run_pass)
    rates = [p.serial_runs / p.serial_s for p in passes]
    samples = {"runs_per_s": rates}
    run_ms = [ms for p in passes for ms in p.run_ms]
    values = {"runs_per_s": statistics.median(rates)}
    if run_ms:
        values["run_ms_p50"] = statistics.median(run_ms)
        samples["run_ms_p50"] = run_ms
    if passes[0].jobs2_s is not None:
        rates2 = [p.jobs2_runs / p.jobs2_s for p in passes]
        efficiency = [r2 / (2.0 * r1) for r1, r2 in zip(rates, rates2)]
        values["runs_per_s_jobs2"] = statistics.median(rates2)
        values["parallel_efficiency"] = statistics.median(efficiency)
        samples["runs_per_s_jobs2"] = rates2
        samples["parallel_efficiency"] = efficiency
    # p90 only where one pass has at least 100 runs, so ten lie beyond it.
    if workload.runs_per_pass() >= 100 and len(run_ms) >= 10:
        values["run_ms_p90"] = statistics.quantiles(run_ms, n=10)[8]
    problems = _check_outputs(workload, passes, reference)
    return {"passes": passes, "values": values, "samples": samples, "problems": problems}


def measure_traced(workload, seconds: float, reference: dict) -> dict:
    """Untraced and traced passes in turn: the per-module metrics and the baseline table."""
    import baseline
    import spans

    span_file = OUT / f"{workload.name}-seed{workload.seed}-spans.jsonl"
    span_file.unlink(missing_ok=True)
    pairs = []

    def one_pair():
        plain = workload.run_pass(count_pickles=True)
        tracer = spans.Tracer(workload.repeat_of_seed())
        with tracer.installed():
            traced = workload.run_pass(traced=True)
        tracer.finish()
        tracer.write_jsonl(span_file, label=f"traced-{len(pairs)}")
        pairs.append((plain, traced, tracer))
        return plain

    _run_passes(seconds, one_pair)
    plains = [p for p, _, _ in pairs]
    traceds = [t for _, t, _ in pairs]
    problems = _check_outputs(workload, plains + traceds, reference)

    counters = [tracer.counters() for _, _, tracer in pairs]
    calls = [tracer.calls_by_name() for _, _, tracer in pairs]
    pickled = [p.pickled_bytes or 0 for p in plains]
    if any(c != counters[0] for c in counters) or any(c != calls[0] for c in calls) or len(set(pickled)) > 1:
        problems.append("computed counters differ between passes")

    self_ms = [tracer.self_ms_by_name() for _, _, tracer in pairs]
    values = {}
    for name in PER_LAYER_UNITS:
        if name in _SELF_MS_SPANS or name.endswith(".ms"):
            span = _SELF_MS_SPANS.get(name, name[: -len(".ms")])
            values[name] = statistics.median(s.get(span, 0.0) for s in self_ms)
        elif name.endswith(".calls"):
            values[name] = calls[0].get(name[: -len(".calls")], 0)
        else:
            values[name] = counters[0].get(name, 0)
    fields = values["noise.normal_field.calls"]
    values["noise.field_useful_ratio"] = values["noise.normal_field.distinct"] / fields if fields else 0.0
    values["pipeline.task_pickle_bytes"] = pickled[0]
    if plains[0].jobs2_s is not None:
        values["pipeline.pool_overhead_ms"] = statistics.median((p.jobs2_s - p.serial_s / 2.0) * 1000.0 for p in plains)
    else:
        values["pipeline.pool_overhead_ms"] = 0.0
    overheads = [(t.serial_s - p.serial_s) * 1000.0 for p, t in zip(plains, traceds)]
    values["trace.overhead_ms"] = statistics.median(overheads)
    values["trace.spans"] = len(pairs[0][2].spans)
    if plains[0].jobs2_s is not None:
        walls = {"jobs=1": statistics.median(p.serial_s for p in plains), "jobs=2": statistics.median(p.jobs2_s for p in plains)}
        baseline_lines = baseline.sweep_table(walls)
    else:
        probes = baseline.probe(spans.Tracer(), workload.corpus[0][1], workload.seed)
        baseline_lines = baseline.table(workload.size, probes)
    return {
        "passes": plains + traceds,
        "pairs": pairs,
        "values": values,
        "problems": problems,
        "span_file": span_file,
        "baseline": baseline_lines,
    }


# -- report -------------------------------------------------------------------


def _ratio_with_base(values) -> list[str]:
    lines = []
    distinct, fields = values["noise.normal_field.distinct"], values["noise.normal_field.calls"]
    lines.append(f"noise fields useful: {distinct} distinct of {fields} drawn")
    reused, after = values["pipeline.after_demosaic_distinct"], values["pipeline.after_demosaic_calls"]
    if after:
        lines.append(f"after-strategy demosaic inputs: {reused} distinct of {after} calls")
    return lines


def _module_breakdown(tracer) -> list[str]:
    by_module = {}
    for name, ms in tracer.self_ms_by_name().items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + ms
    total = sum(by_module.values())
    lines = [f"{'module':10s} {'self ms':>11s} {'share':>7s}"]
    for module, ms in sorted(by_module.items(), key=lambda item: -item[1]):
        lines.append(f"{module:10s} {ms:11.2f} {ms / total:7.1%}")
    lines.append(f"{'sum':10s} {total:11.2f}")
    return lines


def _closure(plain, tracer) -> list[str]:
    """Self times of each traced call add up to it; compare with the untraced call."""
    import spans

    roots = tracer.roots()
    sums = tracer.subtree_self_s()
    gap = max(abs(sums[r] - tracer.spans[r].duration_s) for r in roots)
    lines = [f"self times vs span durations, all {len(roots)} root calls: largest gap {gap * 1e6:.3f} us"]
    root = roots[0]
    span = tracer.spans[root]
    untraced_ms = plain.calls[0].seconds * 1000.0
    traced_ms = span.duration_s * 1000.0
    lines.append(
        f"first call ({plain.calls[0].label}): module self times sum to {sums[root] * 1000.0:.2f} ms;"
        f" untraced wall {untraced_ms:.2f} ms; tracing overhead {traced_ms - untraced_ms:+.2f} ms"
    )
    cost = spans.span_cost_s()
    lines.append(
        f"tracer bookkeeping, at most {cost * 1e6:.2f} us per span: {len(tracer.spans)} spans in the pass,"
        f" {len(tracer.spans) * cost * 1000.0:.2f} ms"
    )
    return lines


def _steadiness(samples: dict) -> list[str]:
    lines = [f"{'metric':22s} {'unit':7s} {'q1':>11s} {'median':>11s} {'q3':>11s} {'iqr/med':>8s} {'n':>5s}"]
    for name, values in samples.items():
        q1, q2, q3 = _quartiles(values)
        unit = E2E_UNITS.get(name, REPORT_UNITS.get(name, ""))
        spread = (q3 - q1) / q2 if q2 else 0.0
        lines.append(f"{name:22s} {unit:7s} {q1:11.4f} {q2:11.4f} {q3:11.4f} {spread:8.2%} {len(values):5d}")
    return lines


def _report_traced(result, report: dict) -> dict:
    values = result["values"]
    plain, _, tracer = result["pairs"][-1]
    print("\nper-module self time, last traced pass:")
    print("\n".join(_module_breakdown(tracer)))
    print("\n" + "\n".join(_closure(plain, tracer)))
    print("\n" + "\n".join(_ratio_with_base(values)))
    print("\nbaseline cross-check (ROADMAP table; verdict 'DIFFERS' beyond 20%):")
    print("\n".join(result["baseline"]))
    print(f"\nspans: {result['span_file']}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    print("\nper-layer metrics:")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:16.4f} {metric['unit']}")
    report["baseline"] = result["baseline"]
    return metrics


def _report_untraced(values: dict, samples: dict, failed: int, attempted: int, report: dict) -> dict:
    print("\nend-to-end metrics:")
    for name, unit in {**E2E_UNITS, **REPORT_UNITS}.items():
        if name in values:
            print(f"  {name:22s} {values[name]:14.4f} {unit}")
    print(f"  (run_ms over {len(samples.get('run_ms_p50', []))} runs; failed_frac {failed} of {attempted} runs)")
    if "parallel_efficiency" in values:
        print(
            f"  (parallel_efficiency: {values['runs_per_s_jobs2']:.2f} runs/s with jobs=2"
            f" over 2 x {values['runs_per_s']:.2f} runs/s serial)"
        )
    print("\nsteadiness within this run:")
    print("\n".join(_steadiness(samples)))
    report["samples"] = samples
    report["values"] = values
    # With every run failed there is no run time; the run is already incorrect.
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in E2E_UNITS.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "cfaisp" / "__init__.py").is_file():
        print(f"error: no cfaisp sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import cfaisp
    import cfaisp.cli  # noqa: F401

    import_s = time.perf_counter() - start
    if SRC not in pathlib.Path(cfaisp.__file__).resolve().parents:
        print(f"error: imported cfaisp from {cfaisp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            workload.setup()
            workload.warm_up()
            setups.append(import_s + time.perf_counter() - begin)
        result = (measure_traced if args.trace else measure)(workload, args.seconds, reference)
        env = environment(workload)

    passes = result["passes"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = result["problems"]
    if failed:
        problems.append(f"{failed} of {attempted} runs failed")
    correct = not problems

    print(f"cfaisp benchmark: workload {workload.name}, seed {workload.seed}, trace {args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes: {len(passes)}; runs attempted {attempted}, failed {failed}")
    print("digests: " + " ".join(f"{k}={v}" for k, v in passes[0].digests.items()))
    report = {"environment": env, "setup_s_samples": setups, "passes": len(passes), "digests": passes[0].digests}
    if args.trace:
        metrics = _report_traced(result, report)
    else:
        values = {
            **result["values"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": _peak_rss_mb(),
            "failed_frac": failed / attempted,
            "result_ok": int(correct),
            "import_s": import_s,
        }
        samples = {"setup_s": setups, **result["samples"], "peak_rss_mb": [values["peak_rss_mb"]]}
        metrics = _report_untraced(values, samples, failed, attempted, report)
    for problem in problems:
        print(f"INCORRECT: {problem}")
    report["problems"] = problems
    report["metrics"] = metrics
    out_file = OUT / f"{workload.name}-seed{workload.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"report: {out_file}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
