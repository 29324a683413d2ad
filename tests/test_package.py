"""Package-wide checks: the README quickstart runs as written, no module or
script keeps an import it never uses, the package namespace imports its
submodules lazily, and each CLI subcommand loads only the modules it runs."""

import ast
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tensorbss

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "tensorbss").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_readme_quickstart_separates():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1, "expected one python block, the library quickstart"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    assert float(out.getvalue().split()[-1]) >= 0.99


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_detector():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.ones(1)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_serves_every_public_name():
    assert len(tensorbss.__all__) == 52
    for name in tensorbss.__all__:
        module = importlib.import_module(f"tensorbss.{tensorbss._EXPORTS[name]}")
        assert getattr(tensorbss, name) is getattr(module, name)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from tensorbss import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(tensorbss.__all__)
    assert set(tensorbss.__all__) <= set(dir(tensorbss))
    assert tensorbss.__version__ == "0.1.0"


def _run_python(code: str, *args) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports this checkout's package."""
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout


def test_unknown_attribute_raises_and_loads_nothing():
    code = (
        "import sys, tensorbss\n"
        "try:\n    tensorbss.no_such_name\nexcept AttributeError as exc:\n    print(exc)\n"
        "print(sorted(m for m in sys.modules if m.startswith('tensorbss.')))\n"
    )
    assert _run_python(code).splitlines() == [
        "module 'tensorbss' has no attribute 'no_such_name'", "[]"
    ]


FOOTPRINT = """
import json, sys
from tensorbss import cli

def run(*argv):
    assert cli.main(list(argv)) == 0
    return sorted(m for m in sys.modules if m.startswith(("tensorbss.", "numpy.polynomial")))

d = sys.argv[1]
loaded = {"gen": run("gen", "--sources", "2", "--samples", "300",
                     "--out", d + "/s.csv", "--manifest", d + "/m.json")}
with open(d + "/r.json", "w") as fh:
    json.dump({"separator": [[1.0, 0.0], [0.0, 1.0]]}, fh)
loaded["score"] = run("score", "--result", d + "/r.json", "--manifest", d + "/m.json",
                      "--out", d + "/score.json")
loaded["ica"] = run("ica", "--in", d + "/s.csv", "--out", d + "/r.json")
print(json.dumps(loaded))
"""


def test_cli_subcommands_import_only_what_they_run(tmp_path):
    loaded = json.loads(_run_python(FOOTPRINT, str(tmp_path)))
    base = {f"tensorbss.{m}" for m in ("cli", "io", "simulate", "core", "indexing")}
    assert set(loaded["gen"]) == base
    assert set(loaded["score"]) == base
    # and no numpy.polynomial: jacobi builds its tables from np.convolve
    assert set(loaded["ica"]) == base | {"tensorbss.jacobi", "tensorbss.cumulants",
                                         "tensorbss.whiten"}
