"""Files shipped with the package: example configs and version metadata."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stancekit
from stancekit.config import load_config

from conftest import synthetic_corpus, write_corpus_files

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = [*sorted((ROOT / "configs").glob("*.yaml")),
           *sorted((ROOT / "bench" / "configs").glob("*.yaml"))]


def test_configs_present():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_loads(path):
    cfg = load_config(path)
    for spec in cfg.keyword_specs.values():
        if spec.selector == "manual":
            assert spec.terms
            assert all(isinstance(t, str) for t in spec.terms)


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match
    assert stancekit.__version__ == match.group(1)


def test_cli_imports_no_scipy_sparse():
    """A command starts without importing scipy.sparse, about 0.1 s of every
    process: mlp loads scipy's compiled CSR kernels from their file alone."""
    code = ("import stancekit.cli, sys; "
            "print([m for m in ('scipy.sparse', 'scipy._lib') if m in sys.modules])")
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout == "[]\n"


def test_readme_library_snippet_runs(tmp_path):
    """The README's library example runs as written against the package."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match
    code = match.group(1)
    stances, bodies = tmp_path / "stances.csv", tmp_path / "bodies.csv"
    write_corpus_files(synthetic_corpus(n_instances=40, n_bodies=8, seed=3), stances, bodies)
    for name, path in (("train_stances.csv", stances), ("train_bodies.csv", bodies)):
        assert f'"{name}"' in code
        code = code.replace(f'"{name}"', repr(str(path)))
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["stances"]) == 40
    assert namespace["probabilities"].shape == (40, 4)
