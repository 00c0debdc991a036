"""Setuptools build script: ``pip install -e .`` from the repository root.

The version has one definition, ``__version__`` in ``src/repro/__init__.py``;
it is read from there as text, so building does not import the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.M).group(1)

setup(
    name="spardl-repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21"],
)
