"""The import surface: ``__all__`` names exactly what the package exports, and
scipy is loaded only by ``analyze``'s p-values.

Every ``hiertsc cv`` cell of an evaluation grid and every served
``hiertsc predict`` batch is its own process, so what the package imports at
start-up is paid once per process.  Only :func:`hiertsc.analysis.pearson`
needs scipy, and it imports it on its first p-value.
"""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import hiertsc
from hiertsc.cli import main
from hiertsc.dataset import collinear_superclusters
from hiertsc.io import save_dataset

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hiertsc"

#: what a module of the package may import when it is itself imported
ALLOWED_AT_IMPORT = set(sys.stdlib_module_names) | {"numpy"}


def test_all_names_every_public_binding_of_the_package():
    public = {
        name
        for name, value in vars(hiertsc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(hiertsc.__all__) == public


def _import_time_imports(tree: ast.Module):
    """Every import statement that runs when the module is imported: all but
    those inside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_modules_import_only_the_standard_library_numpy_and_each_other():
    heavy = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _import_time_imports(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                continue
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            heavy += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] not in ALLOWED_AT_IMPORT
            ]
    assert heavy == []


# Runs every subcommand but analyze in a fresh interpreter, in the current
# directory, and prints what each wrote and which scipy modules were loaded.
# With "blocked", scipy cannot be imported at all.
CHILD = r"""
import contextlib, io, json, sys

if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
import hiertsc, hiertsc.cli

COMMANDS = [
    "cv --data data.tsv --iters 1 --outer-folds 3 --inner-folds 2 --out nested",
    "cv --mode flat --data data.tsv --iters 1 --outer-folds 3 --out flat",
    "fit --data data.tsv --iters 1 --inner-folds 2 --classifier kernel-ridge --kernels 16 --out fit",
    "predict --model fit/model.json --data data.tsv --out fit",
    "trees --classes 4",
    "bench --tree chain --classes 4 --instances 20 --out bench",
    "filter --data-root catalog --kernels 16 --out filter",
]


def scipy_modules():
    return sorted(n for n, m in sys.modules.items() if n.split(".")[0] == "scipy" and m is not None)


doc = {"runs": [], "scipy_before_analyze": None, "scipy_after_analyze": None}
for command in COMMANDS:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hiertsc.cli.main(command.split())
    doc["runs"].append([command, code, out.getvalue()])
doc["scipy_before_analyze"] = scipy_modules()
if sys.argv[1] == "plain":
    with contextlib.redirect_stdout(io.StringIO()):
        code = hiertsc.cli.main("analyze --reports nested/report.json flat/report.json --out analysis".split())
    doc["runs"].append(["analyze", code, ""])
    doc["scipy_after_analyze"] = scipy_modules()
print(json.dumps(doc))
"""


def _outputs(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.suffix != ".tsv"
    }


def _run_child(directory: Path, mode: str) -> dict:
    data = collinear_superclusters(n_per_class=8, series_length=16, seed=0)
    save_dataset(data, directory / "data.tsv")
    (directory / "catalog" / "Toy").mkdir(parents=True)
    for part in ("TRAIN", "TEST"):
        save_dataset(data, directory / "catalog" / "Toy" / f"Toy_{part}.tsv")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, mode],
        cwd=directory, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_only_analyze_loads_scipy_and_nothing_else_needs_it(tmp_path, capsys):
    (tmp_path / "plain").mkdir()
    (tmp_path / "blocked").mkdir()
    plain = _run_child(tmp_path / "plain", "plain")
    blocked = _run_child(tmp_path / "blocked", "blocked")

    assert [code for _, code, _ in plain["runs"]] == [0] * 8
    assert plain["scipy_before_analyze"] == []
    assert "scipy.special" in plain["scipy_after_analyze"]
    # with scipy unimportable, every other subcommand prints and writes the same bytes
    assert blocked["runs"] == plain["runs"][:-1]
    assert blocked["scipy_before_analyze"] == []
    plain_files = _outputs(tmp_path / "plain")
    analysis = {k: plain_files.pop(k) for k in list(plain_files) if k.startswith("analysis/")}
    assert _outputs(tmp_path / "blocked") == plain_files

    # analyze in this process gives the same correlations as in the fresh one
    reports = [str(tmp_path / "plain" / s / "report.json") for s in ("nested", "flat")]
    assert main(["analyze", "--reports", *reports, "--out", str(tmp_path / "again")]) == 0
    capsys.readouterr()
    for name in ("correlations.json", "correlations.csv"):
        assert (tmp_path / "again" / name).read_bytes() == analysis[f"analysis/{name}"]
