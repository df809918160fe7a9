"""``pyproject.toml`` and ``repro.__version__`` name the same version."""

import pathlib
import re

import repro

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_package_version_matches_pyproject():
    # A regex, not tomllib: the suite also runs on Python 3.10.
    declared = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert declared is not None
    assert repro.__version__ == declared.group(1)
