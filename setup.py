"""Classic setuptools metadata for the MetaCache-GPU reproduction.

Kept as a plain ``setup.py`` (no pyproject build backend) because the
sandbox this project grows in has no ``wheel`` package and no network,
so PEP-660 editable installs cannot build; ``pip install -e .
--no-build-isolation`` falls back to the ``setup.py develop`` path.
"""

import os
import re

from setuptools import find_packages, setup


def _readme() -> str:
    if os.path.exists("README.md"):
        with open("README.md", encoding="utf-8") as fh:
            return fh.read()
    return ""


def _version() -> str:
    """Single-source the version from the package itself."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "src", "repro", "__init__.py"), encoding="utf-8") as fh:
        return re.search(r'__version__ = "([^"]+)"', fh.read()).group(1)


setup(
    name="metacache-repro",
    version=_version(),
    description=(
        "Python reproduction of MetaCache-GPU: ultra-fast metagenomic "
        "classification via minhash sketching over a multi-bucket hash table"
    ),
    long_description=_readme(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # 1.25: first release with fast ufunc.at (table construction's
    # np.minimum.at claims); the query tail's single-key np.sort is
    # SIMD from 2.0 and merely slower before it
    install_requires=["numpy>=1.25"],
    entry_points={
        "console_scripts": [
            "metacache-repro = repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Bio-Informatics",
    ],
)
