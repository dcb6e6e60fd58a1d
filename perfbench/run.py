"""Benchmark of hiertsc: nested CV, kernel featurisation, fit-then-serve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process, from the root of a source checkout (the
package is imported from ``src/``; nothing is installed).  It generates
``POOL`` datasets from the seed, runs one warm-up pass, then repeats passes,
cycling over the datasets, for S seconds and at least one cycle, and
checks every pass's output.  Each timed operation is followed by a
calibration sample, and its wall time is converted to reference seconds
(see ``calibrate.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run stays on one dataset, the passes alternate between untraced and traced,
and the metrics are the per-layer ones (see ``tracing.py``).  The lines before it give every figure by
name and unit, the per-layer metric's target, and the run's provenance.

    python3 perfbench/run.py --smoke

runs every workload at a tiny size, each in its own process, in both modes,
and checks the result lines against ``BENCHMARK.json``.

    python3 perfbench/run.py --capture-reference

rewrites ``perfbench/reference.json``: the selected trees, scores and
predicted labels of one pass per workload and reference seed.  Run it only on
a commit whose outputs are known good; every later pass on a reference seed
must reproduce them.
"""

from __future__ import annotations

import os

# Set before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE_SEEDS = range(80)  # data seeds
POOL = 4  # datasets per untraced run; pass i runs on dataset i % POOL
SETUP_REPEATS = 5

#: name -> (unit, better, bound, meaning)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, "mean of the set-ups in reference seconds: generate and write the datasets, import hiertsc in a fresh interpreter"),
    "pass_ref_s": ("s", "lower", 0.25, "one pass in reference seconds, the mean over the run's datasets of each one's mean pass: hiertsc cv to report.json + folds.csv, or hiertsc fit to model.json then load and serve every batch"),
    "peak_rss_mb": ("MB", "lower", 0.1, "peak resident set size of the workload's process"),
    "output_bytes": ("bytes", "lower", 0.1, "bytes a pass writes: report.json + folds.csv, or model.json"),
}

#: name -> (unit, better, end-to-end metric it should move, on which workloads)
PER_LAYER = {
    "classifiers.transform.calls": ("count", "lower", "pass_ref_s", "fit-serve; 0 on nested-linear"),
    "classifiers.transform.rows": ("rows", "lower", "pass_ref_s", "fit-serve; 0 on nested-linear"),
    "classifiers.transform.self_s": ("s", "lower", "pass_ref_s", "fit-serve (most of the fit)"),
    "classifiers.transform.unique_row_share": ("share", "higher", "pass_ref_s", "fit-serve (low in the fit: reuse a cache can exploit; every served row is new)"),
    "classifiers.bank_generate.calls": ("count", "lower", "pass_ref_s", "fit-serve"),
    "classifiers.bank_generate.self_s": ("s", "lower", "pass_ref_s", "fit-serve"),
    "classifiers.bank_generate.unique_share": ("share", "higher", "pass_ref_s", "fit-serve (identical banks)"),
    "classifiers.ridge_solve.calls": ("count", "lower", "pass_ref_s", "nested-linear, fit-serve"),
    "classifiers.ridge_solve.self_s": ("s", "lower", "pass_ref_s", "nested-linear (most of the pass), fit-serve"),
    "classifiers.ridge_solve.mean_n": ("rows", "lower", "pass_ref_s", "all; solve size"),
    "classifiers.ridge_solve.mean_f": ("features", "lower", "pass_ref_s", "all; solve size"),
    "classifiers.ridge_solve.n_lt_f_share": ("share", "higher", "pass_ref_s", "all; where a dual solve is cheaper"),
    "classifiers.fit.calls": ("count", "lower", "pass_ref_s", "all"),
    "classifiers.fit.self_s": ("s", "lower", "pass_ref_s", "all"),
    "dataset.construct.calls": ("count", "lower", "pass_ref_s", "nested-linear"),
    "dataset.construct.self_s": ("s", "lower", "pass_ref_s", "nested-linear"),
    "splitting.score_bipartition.calls": ("count", "lower", "pass_ref_s", "all"),
    "splitting.score_bipartition.self_s": ("s", "lower", "pass_ref_s", "all"),
    "splitting.splitter.calls": ("count", "lower", "pass_ref_s", "nested-linear (srtr), fit-serve (lsoo)"),
    "splitting.splitter.evaluations_per_call": ("count", "lower", "pass_ref_s", "all"),
    "splitting.splitter.early_stop_share": ("share", "higher", "pass_ref_s", "all"),
    "treegen.grow_tree.calls": ("count", "lower", "pass_ref_s", "all"),
    "treegen.grow_tree.self_s": ("s", "lower", "pass_ref_s", "all"),
    "treegen.fresh_share": ("share", "higher", "pass_ref_s", "all"),
    "lcpn.fit_lcpn.calls": ("count", "lower", "pass_ref_s", "all"),
    "lcpn.fit_lcpn.self_s": ("s", "lower", "pass_ref_s", "all"),
    "lcpn.fit_lcpn.units": ("units", "lower", "pass_ref_s", "all; datapoint-class units"),
    "lcpn.fit_lcpn.units_match_share": ("share", "higher", "none", "all; 1.0 when every fit matches analysis.cost_model"),
    "lcpn.fit_lcpn.units_per_lower_bound": ("ratio", "lower", "none", "all; units / (2|X||C|)"),
    "lcpn.fit_lcpn.units_per_upper_bound": ("ratio", "lower", "none", "all; units / (|X||C|^2/2)"),
    "lcpn.predict_lcpn.calls": ("count", "lower", "pass_ref_s", "fit-serve; inner scoring in nested-linear"),
    "lcpn.predict_lcpn.rows": ("rows", "lower", "pass_ref_s", "fit-serve; inner scoring in nested-linear"),
    "lcpn.predict_lcpn.self_s": ("s", "lower", "pass_ref_s", "fit-serve; inner scoring in nested-linear"),
    "lcpn.predict_lcpn.mean_depth": ("depth", "lower", "pass_ref_s", "all"),
    "lcpn.predict_lcpn.depth_in_band_share": ("share", "higher", "none", "all; mean depth within log2|C| .. |C|/2+1"),
    "lcpn.bundle.dump_s": ("s", "lower", "pass_ref_s", "fit-serve (also output_bytes)"),
    "lcpn.bundle.load_s": ("s", "lower", "pass_ref_s", "fit-serve"),
    "metrics.f1_macro.calls": ("count", "lower", "pass_ref_s", "nested-linear"),
    "metrics.f1_macro.self_s": ("s", "lower", "pass_ref_s", "nested-linear"),
    "evaluation.split_data.calls": ("count", "lower", "pass_ref_s", "nested-linear"),
    "evaluation.split_data.self_s": ("s", "lower", "pass_ref_s", "nested-linear"),
    "evaluation.report_json.self_s": ("s", "lower", "pass_ref_s", "nested-linear; a guard, expected small"),
    "io.load_dataset.self_s": ("s", "lower", "pass_ref_s", "all; a guard, expected small"),
    "evaluation.nested_cv.self_s": ("s", "lower", "pass_ref_s", "nested-linear; orchestration outside child spans"),
    "trace.overhead_share": ("share", "lower", "none", "all; (traced - untraced) / untraced pass time"),
    "cli.fit_s": ("s", "lower", "pass_ref_s", "fit-serve; untraced hiertsc fit part of the pass"),
    "serve.rows_per_s": ("1/s", "higher", "pass_ref_s", "fit-serve; untraced serve stream"),
    "serve.batch_p50_ms": ("ms", "lower", "pass_ref_s", "fit-serve; untraced serve stream"),
    "serve.batch_p95_ms": ("ms", "lower", "pass_ref_s", "fit-serve; untraced serve stream"),
    "serve.batches": ("count", "higher", "none", "fit-serve; samples behind the serve percentiles"),
}


class SetupError(RuntimeError):
    """The benchmark cannot run here, for example because src/ is missing."""


def _import_package():
    if not (SRC / "hiertsc" / "__init__.py").is_file():
        raise SetupError(f"no hiertsc package under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import hiertsc

    if Path(hiertsc.__file__).resolve().parent != SRC / "hiertsc":
        raise SetupError(f"imported hiertsc from {hiertsc.__file__}, not from {SRC}")


def _fresh_import() -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run(
        [sys.executable, "-c", "import hiertsc.cli"], env=env, check=True, timeout=120,
        capture_output=True,
    )


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    # Outside a git checkout, or inside a repository this checkout is not the root of.
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def provenance() -> dict:
    import numpy
    import scipy

    def blas(show_config) -> str:
        try:
            dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except Exception:  # noqa: BLE001 - older builds lack the dict form
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }


def data_seeds(seed: int, pool: int) -> list[int]:
    """The data seeds of a run: disjoint for different run seeds."""
    return [seed * pool + j for j in range(pool)]


def load_reference(workload, data_seed: int) -> tuple[dict | None, str | None]:
    """(record, problem): the reference for one dataset, or why there is none."""
    if data_seed not in REFERENCE_SEEDS:
        return None, None
    doc = json.loads(REFERENCE.read_text())
    entry = doc["workloads"].get(workload.name)
    if entry is None or entry["config"] != _config(workload):
        return None, "reference.json does not match this workload's definition; recapture it"
    return entry["seeds"][str(data_seed)], None


def _config(workload) -> dict:
    return {
        "shape": asdict(workload.shape),
        "cli_args": list(workload.cli_args),
        "unseen_per_class": workload.unseen_per_class,
        "batch_rows": workload.batch_rows,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _pooled(passes, pool: int, attr: str) -> float:
    """Mean over the run's datasets of the mean over each dataset's passes
    (pass i ran on dataset i % pool), so every dataset weighs the same."""
    return statistics.fmean(statistics.fmean(getattr(r, attr) for r in passes[j::pool]) for j in range(pool))


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny_size: bool) -> int:
    import calibrate
    from tracing import Tracer

    from workloads import WORKLOADS, PassResult, check, make_inputs, run_pass, tiny

    workload = WORKLOADS[name]
    if tiny_size:
        workload = tiny(workload)
    # A traced run stays on one dataset, so its counts must repeat pass to pass.
    seeds = data_seeds(seed, 1 if trace else POOL)
    references = [(None, None) if tiny_size else load_reference(workload, s) for s in seeds]
    work = WORK / f"{name}-s{seed}-p{os.getpid()}"
    spans_path = WORK / f"trace-{name}-s{seed}.jsonl"
    tracer = Tracer() if trace else None
    # One sample now and one after every set-up and pass, so the samples
    # spread over the run like the operations they rescale.
    calibration = [calibrate.sample()]

    try:
        setups = []

        def set_up(directory: Path):
            start = time.perf_counter()
            made = [make_inputs(workload, s, directory / f"data{s}") for s in seeds]
            _fresh_import()
            wall = time.perf_counter() - start
            setups.append(wall)
            calibration.append(calibrate.sample())
            return made

        pool = set_up(work)

        def one_pass(traced: bool, pass_id: int):
            inputs = pool[pass_id % len(pool)]
            reference, ref_problem = references[pass_id % len(pool)]
            if traced:
                tracer.begin_pass(pass_id)
                tracer.install()
            start = time.perf_counter()
            try:
                result = run_pass(workload, inputs)
            except Exception as exc:  # noqa: BLE001 - a crashed pass is a failed operation
                result = PassResult(time.perf_counter() - start, failed=1, errors=[repr(exc)])
            finally:
                if traced:
                    tracer.uninstall()
            layers = tracer.end_pass() if traced else None
            check(workload, inputs, result, reference)
            if ref_problem:
                result.failed += 1
                result.errors.append(ref_problem)
            calibration.append(calibrate.sample())
            return result, layers

        warm, _ = one_pass(False, 0)
        passes, traced_passes, layer_rows = [], [], []
        start = time.perf_counter()
        setup_every = seconds / (SETUP_REPEATS - 1)
        pass_id = 0
        while True:
            traced = trace and pass_id % 2 == 1
            result, layers = one_pass(traced, pass_id)
            (traced_passes if traced else passes).append(result)
            if layers is not None:
                layer_rows.append(layers)
            pass_id += 1
            elapsed = time.perf_counter() - start
            if elapsed >= len(setups) * setup_every and len(setups) < SETUP_REPEATS:
                # Spread over the run; the passes keep using the first set-up's files.
                set_up(work / "setup")
            # Every dataset is measured at least once; each weighs the same in the result.
            done = elapsed >= seconds and pass_id >= len(pool)
            if done and (not trace or traced_passes):
                break
        if tracer is not None:
            WORK.mkdir(parents=True, exist_ok=True)
            tracer.write(spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Means, not medians: a wall time is an average over the host's fast and
    # slow moments, and so is the mean of the calibration samples.
    to_reference = calibrate.REFERENCE_UNIT_S / statistics.fmean(calibration)
    every = [warm, *passes, *traced_passes]
    attempted = sum(r.ops for r in every)
    failed = sum(r.failed for r in every)
    errors = [e for r in every for e in r.errors]
    if trace:
        metrics, layer_errors = _layer_metrics(layer_rows, passes, traced_passes)
        failed += len(layer_errors)
        errors += layer_errors
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": statistics.fmean(setups) * to_reference,
            "pass_ref_s": _pooled(passes, len(seeds), "wall_s") * to_reference,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "output_bytes": _pooled(passes, len(seeds), "output_bytes"),
        }
        units = {k: v[0] for k, v in END_TO_END.items()}
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(
        f"workload {name} seed {seed} data seeds {seeds} reference "
        + ("checked" if all(ref for ref, _ in references) else "none (invariants only)")
        + f" measured_passes {len(passes)} traced_passes {len(traced_passes)} setups {len(setups)}"
    )
    for line in _detail_lines(workload, passes, setups, calibration, attempted, failed):
        print(line)
    for key, value in metrics.items():
        if trace:
            tag = f"  [moves {PER_LAYER[key][2]}: {PER_LAYER[key][3]}]"
        else:
            tag = f"  [{END_TO_END[key][3]}; bound {END_TO_END[key][2]}]"
        print(f"metric {key} = {value:.6g} {units[key]}{tag}")
    for error in errors[:20]:
        print("error: " + error, file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _detail_lines(workload, passes, setups, calibration, attempted: int, failed: int) -> list[str]:
    """The workload's own end-to-end figures, by name and unit, and the raw wall times."""
    import calibrate

    lines = [f"detail error_rate = {failed / attempted:.6g} failed/attempted ({failed}/{attempted})"]
    lines.append(
        f"detail host_speed = {calibrate.REFERENCE_UNIT_S / statistics.fmean(calibration):.4g} x reference "
        f"(mean of {len(calibration)} calibration samples, "
        f"{min(calibration) * 1e3:.3g}-{max(calibration) * 1e3:.3g} ms per unit)"
    )
    lines.append(f"detail setup_wall_s = {statistics.fmean(setups):.6g} s (mean of {len(setups)})")
    # The raw samples behind the figures, in the order they were taken.
    samples = {
        "setup_s": setups,
        "pass_s": [r.wall_s for r in passes],
        "calibration_unit_s": calibration,
    }
    lines.append("detail samples " + json.dumps({k: [round(v, 5) for v in vs] for k, vs in samples.items()}))
    walls = [r.wall_s for r in passes]
    if len(walls) >= 2:
        q1, q2, q3 = statistics.quantiles(walls, n=4, method="inclusive")
        lines.append(
            f"detail pass_wall_s over {len(walls)} passes: min {min(walls):.4g} q1 {q1:.4g} "
            f"median {q2:.4g} q3 {q3:.4g} max {max(walls):.4g} s"
        )
    if not workload.serves:
        lines.append(f"detail cv_s = {_median(walls):.6g} s wall (median of {len(walls)} passes)")
        return lines
    serve = _serve_figures(passes)
    lines += [
        f"detail fit_s = {serve['cli.fit_s']:.6g} s wall (median of {len(passes)} passes)",
        f"detail predict_rows_per_s = {serve['serve.rows_per_s']:.6g} rows/s",
        f"detail predict_batch_p50_ms = {serve['serve.batch_p50_ms']:.6g} ms ({serve['serve.batches']:.0f} batches)",
        f"detail predict_batch_p95_ms = {serve['serve.batch_p95_ms']:.6g} ms ({serve['serve.batches']:.0f} batches)",
        f"detail bundle_bytes = {_median([r.output_bytes for r in passes]):.6g} bytes",
    ]
    return lines


def _serve_figures(passes) -> dict[str, float]:
    """Fit time and serve-stream figures of untraced passes; all 0 when nothing was served."""
    batches = [b for r in passes for b in r.batch_s]
    serve_s = sum(batches)
    if not serve_s:
        return dict.fromkeys(
            ("cli.fit_s", "serve.rows_per_s", "serve.batch_p50_ms", "serve.batch_p95_ms", "serve.batches"),
            0.0,
        )
    return {
        "cli.fit_s": _median([r.fit_s for r in passes]),
        "serve.rows_per_s": sum(r.rows_served for r in passes) / serve_s,
        "serve.batch_p50_ms": 1e3 * _percentile(batches, 50),
        "serve.batch_p95_ms": 1e3 * _percentile(batches, 95),
        "serve.batches": float(len(batches)),
    }


def _layer_metrics(layer_rows, untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over the traced passes, plus the untraced
    serve figures and the tracing overhead.  Counts must repeat exactly."""
    errors = []
    first = layer_rows[0]
    for row in layer_rows[1:]:
        for key in set(first) | set(row):
            if not key.endswith("_s") and first.get(key, 0.0) != row.get(key, 0.0):
                errors.append(f"per-layer count {key} differs between traced passes")
    merged = {
        key: _median([row.get(key, 0.0) for row in layer_rows]) for key in PER_LAYER
    }
    untraced_s = _median([r.wall_s for r in untraced])
    merged["trace.overhead_share"] = (_median([r.wall_s for r in traced]) - untraced_s) / untraced_s
    merged.update(_serve_figures(untraced))
    return merged, errors


# -- harness self-checks -------------------------------------------------------


def smoke() -> int:
    """Run every workload at a tiny size in its own process, in both modes."""
    from workloads import WORKLOADS

    spec = json.loads(BENCHMARK.read_text())
    problems = _spec_problems(spec)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--size", "tiny",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
            label = f"{name} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(doc) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(doc)}")
            if not doc["correct"] or doc["failed"] or doc["attempted"] < 1:
                problems.append(f"{label}: not correct: {proc.stderr.strip()[-500:]}")
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metrics {sorted(got)} != BENCHMARK.json's")
            print(f"smoke {label}: ok" if not problems else f"smoke {label}: see problems")
    for problem in problems:
        print("problem: " + problem, file=sys.stderr)
    return 1 if problems else 0


def _spec_problems(spec: dict) -> list[str]:
    problems = []
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    if e2e != {k: v[:3] for k, v in END_TO_END.items()}:
        problems.append("BENCHMARK.json end_to_end differs from run.py's END_TO_END")
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if layers != {k: v[:2] for k, v in PER_LAYER.items()}:
        problems.append("BENCHMARK.json per_layer differs from run.py's PER_LAYER")
    from workloads import WORKLOADS

    if {w["name"]: w["why"] for w in spec["workloads"]} != {k: w.why for k, w in WORKLOADS.items()}:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def capture_reference() -> int:
    from workloads import WORKLOADS, check, make_inputs, reference_record, run_pass

    doc = {"workloads": {}}
    for name, workload in WORKLOADS.items():
        seeds = {}
        for seed in REFERENCE_SEEDS:
            work = WORK / f"capture-{name}-s{seed}"
            try:
                inputs = make_inputs(workload, seed, work)
                result = run_pass(workload, inputs)
                check(workload, inputs, result, None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if result.failed:
                print(f"{name} seed {seed}: {result.errors}", file=sys.stderr)
                return 1
            seeds[str(seed)] = reference_record(inputs, result)
            print(f"captured {name} seed {seed}", flush=True)
        doc["workloads"][name] = {"config": _config(workload), "seeds": seeds}
    REFERENCE.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--capture-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        _import_package()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.capture_reference:
        return capture_reference()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size == "tiny")


if __name__ == "__main__":
    sys.exit(main())
