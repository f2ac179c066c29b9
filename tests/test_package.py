"""Files shipped with the package: example configs and version metadata."""

import re
from pathlib import Path

import pytest

import stancekit
from stancekit.config import load_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))


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
