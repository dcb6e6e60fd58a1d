"""The benchmark's workloads: what one pass runs and how its output is checked.

A pass drives hiertsc through its public entry points only: ``cli.main`` for
``hiertsc cv`` and ``hiertsc fit``, then ``LcpnModel.from_bundle`` and
``predict_lcpn`` for serving.  The program sees nothing but the generated
TSV file (and, when serving, the unseen rows).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
# Calls go through the modules (lcpn.predict_lcpn, not a name imported here),
# so the functions the tracer rebinds inside hiertsc are the ones called.
from hiertsc import cli, lcpn
from hiertsc.evaluation import CvReport
from hiertsc.tree import tree_to_text

from datagen import Shape, generate, write_tsv

SCORE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    cli_args: tuple[str, ...]
    unseen_per_class: int = 0
    batch_rows: int = 10

    @property
    def serves(self) -> bool:
        return self.unseen_per_class > 0


# Sizes are chosen so one pass takes 1-4 s on a 2-core machine, which lets a
# run of a few tens of seconds repeat it enough times for a stable median.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nested-linear",
            why=(
                "hiertsc cv nested, linear, srtr, 20 classes x 15 x 256: deep trees, hundreds "
                "of cheap ridge fits with n < f; no kernel transform runs"
            ),
            shape=Shape(n_classes=20, n_per_class=15, length=256, max_shift=32, noise=0.5),
            cli_args=(
                "cv", "--mode", "nested", "--classifier", "linear", "--splitter", "srtr",
                "--iters", "2", "--outer-folds", "3", "--inner-folds", "3",
            ),
        ),
        Workload(
            name="fit-serve",
            why=(
                "hiertsc fit, kernel-ridge 128 kernels, lsoo, then bundle load and predict of "
                "unseen rows in batches of 10: the transform dominates; the fit reuses rows, serving never does"
            ),
            shape=Shape(n_classes=8, n_per_class=20, length=64, max_shift=8, noise=0.5),
            cli_args=(
                "fit", "--classifier", "kernel-ridge", "--kernels", "128", "--splitter", "lsoo",
                "--iters", "2", "--inner-folds", "3",
            ),
            unseen_per_class=50,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long variant for the harness's own smoke check."""
    shape = replace(workload.shape, n_classes=4, n_per_class=8, length=32, max_shift=4)
    args = list(workload.cli_args)
    if "--kernels" in args:
        args[args.index("--kernels") + 1] = "8"
    return replace(
        workload,
        shape=shape,
        cli_args=tuple(args),
        unseen_per_class=min(workload.unseen_per_class, 5),
    )


@dataclass
class Inputs:
    """Files and arrays one run feeds the program."""

    data_path: Path
    out_dir: Path
    data_sha256: str
    unseen: np.ndarray | None = None


def make_inputs(workload: Workload, seed: int, work_dir: Path) -> Inputs:
    values, labels, unseen = generate(workload.shape, seed, workload.unseen_per_class)
    work_dir.mkdir(parents=True, exist_ok=True)
    path = work_dir / "data.tsv"
    write_tsv(path, values, labels)
    inputs = Inputs(path, work_dir / "out", hashlib.sha256(path.read_bytes()).hexdigest())
    if workload.serves:
        inputs.unseen = unseen[np.random.default_rng(seed).permutation(len(unseen))]
    return inputs


@dataclass
class PassResult:
    """What one pass produced, with its timings and the errors found in it."""

    wall_s: float
    ops: int = 1
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    output_bytes: int = 0
    fit_s: float = 0.0
    batch_s: list[float] = field(default_factory=list)
    rows_served: int = 0


def _run_cli(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def run_pass(workload: Workload, inputs: Inputs) -> PassResult:
    """One timed pass; :func:`check` inspects the outputs after the clock stops."""
    args = [*workload.cli_args, "--data", str(inputs.data_path), "--out", str(inputs.out_dir)]
    start = time.perf_counter()
    code, stdout, stderr = _run_cli(args)
    fit_s = time.perf_counter() - start
    if code != 0:
        return PassResult(fit_s, failed=1, errors=[f"exit {code}: {stderr.strip()}"])
    if not workload.serves:
        report = (inputs.out_dir / "report.json").read_text()
        size = sum((inputs.out_dir / n).stat().st_size for n in ("report.json", "folds.csv"))
        return PassResult(fit_s, outputs=_cv_outputs(report), output_bytes=size)
    return _serve(workload, inputs, start, fit_s, stdout)


def _serve(workload: Workload, inputs: Inputs, start: float, fit_s: float, stdout: str) -> PassResult:
    bundle_path = inputs.out_dir / "model.json"
    model = lcpn.LcpnModel.from_bundle(bundle_path.read_text())
    rows = workload.batch_rows
    batch_s, labels, failed, errors = [], [], 0, []
    for at in range(0, len(inputs.unseen), rows):
        batch = inputs.unseen[at : at + rows]
        t0 = time.perf_counter()
        try:
            predicted, _ = lcpn.predict_lcpn(model, batch)
        except Exception as exc:  # noqa: BLE001 - a failed batch is counted, not fatal
            failed += 1
            errors.append(f"batch {at // rows}: {type(exc).__name__}: {exc}")
            predicted = np.full(len(batch), -1)
        batch_s.append(time.perf_counter() - t0)
        labels.append(predicted)
    wall_s = time.perf_counter() - start
    summary = json.loads(stdout.strip().splitlines()[-1])
    outputs = {
        "tree": tree_to_text(model.tree),
        "selection_score": summary["selection_score"],
        "labels": np.concatenate(labels).tolist(),
        "classes": sorted(int(c) for c in model.tree.root_classes),
    }
    return PassResult(
        wall_s,
        ops=1 + len(batch_s),
        failed=failed,
        errors=errors,
        outputs=outputs,
        output_bytes=bundle_path.stat().st_size,
        fit_s=fit_s,
        batch_s=batch_s,
        rows_served=len(inputs.unseen),
    )


def _cv_outputs(report_text: str) -> dict:
    doc = json.loads(report_text)
    return {
        "reparses": CvReport.from_json(report_text).to_json() == report_text,
        "n_classes": doc["n_classes"],
        "folds": [
            {
                "tree": f["selected_tree"],
                "inner_mean_score": f["inner_mean_score"],
                "outer_test_score": f["outer_test_score"],
                "fc_score": f["fc_score"],
                "distinct_trees": f["distinct_trees"],
                "iterations_run": f["iterations_run"],
            }
            for f in doc["folds"]
        ],
        "aggregates": doc["aggregates"],
    }


def reference_record(inputs: Inputs, result: PassResult) -> dict:
    """What a reference stores for one (workload, seed)."""
    outputs = dict(result.outputs)
    outputs.pop("reparses", None)
    return {"data_sha256": inputs.data_sha256, **outputs}


def check(workload: Workload, inputs: Inputs, result: PassResult, reference: dict | None) -> None:
    """Record in `result` every way its outputs break the invariants or differ
    from `reference`.  A failed CV or fit pass counts one failed operation; a
    served batch whose labels differ counts one more."""
    if result.failed and not result.outputs:
        return
    problems = _invariant_problems(workload, result.outputs)
    bad_batches = 0
    if reference is not None:
        if reference["data_sha256"] != inputs.data_sha256:
            problems.append("generated data differ from the reference's data")
        else:
            problems += _reference_problems(workload, result.outputs, reference)
            if workload.serves:
                bad_batches = _bad_batches(workload, result.outputs["labels"], reference["labels"])
    if problems:
        result.failed += 1
        result.errors += problems
    if bad_batches:
        result.failed += bad_batches
        result.errors.append(f"{bad_batches} served batches differ from the reference labels")


def _invariant_problems(workload: Workload, outputs: dict) -> list[str]:
    problems = []
    if workload.serves:
        classes = set(outputs["classes"])
        if not set(outputs["labels"]) <= classes:
            problems.append("predicted labels outside the tree's classes")
        if not 0.0 <= outputs["selection_score"] <= 1.0:
            problems.append("selection score outside [0, 1]")
        return problems
    if not outputs["reparses"]:
        problems.append("report.json does not re-parse to the same text")
    for fold in outputs["folds"]:
        for key in ("inner_mean_score", "outer_test_score", "fc_score"):
            if not 0.0 <= fold[key] <= 1.0:
                problems.append(f"fold score {key} outside [0, 1]")
    return problems


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=SCORE_TOLERANCE)


def _reference_problems(workload: Workload, outputs: dict, ref: dict) -> list[str]:
    if workload.serves:
        problems = []
        if outputs["tree"] != ref["tree"]:
            problems.append(f"selected tree {outputs['tree']} != reference {ref['tree']}")
        if not _close(outputs["selection_score"], ref["selection_score"]):
            problems.append("selection score differs from the reference")
        return problems
    if len(outputs["folds"]) != len(ref["folds"]):
        return ["fold count differs from the reference"]
    problems = []
    for got, want in zip(outputs["folds"], ref["folds"]):
        for key in ("tree", "distinct_trees", "iterations_run"):
            if got[key] != want[key]:
                problems.append(f"fold {key}: {got[key]} != reference {want[key]}")
        for key in ("inner_mean_score", "outer_test_score", "fc_score"):
            if not _close(got[key], want[key]):
                problems.append(f"fold {key}: {got[key]!r} != reference {want[key]!r}")
    return problems


def _bad_batches(workload: Workload, labels: list[int], ref_labels: list[int]) -> int:
    if len(labels) != len(ref_labels):
        return math.ceil(len(ref_labels) / workload.batch_rows)
    rows = workload.batch_rows
    return sum(
        labels[at : at + rows] != ref_labels[at : at + rows] for at in range(0, len(labels), rows)
    )
