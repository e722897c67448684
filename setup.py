"""Project metadata and installation.

This file is the project's only packaging metadata (there is no
``pyproject.toml``).  Plain setuptools keeps editable installs working on
offline machines that lack the ``wheel`` package required by the PEP 517
editable-install path (``pip install -e . --no-use-pep517``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def _package_version() -> str:
    """Read ``repro.__version__`` without importing the package.

    The package is the single source of truth for the version (it is what
    ``repro.cli --version`` prints); a regex read keeps installation from
    requiring the package's own dependencies.
    """
    init_text = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text()
    match = re.search(r'^__version__ = "([^"]+)"$', init_text, re.MULTILINE)
    if match is None:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro",
    version=_package_version(),
    description="Spatial Memory Streaming (ISCA 2006) - trace-driven reproduction",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
