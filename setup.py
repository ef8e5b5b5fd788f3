"""Setuptools shim.

Keeping the legacy ``setup.py`` path (and no ``[build-system]`` table in
pyproject.toml) lets ``pip install -e .`` work in fully offline
environments, where PEP 517 build isolation would try to download
setuptools/wheel.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "PolarStore reproduction: dual-layer compression for cloud-native "
        "databases (FAST 2026)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    # What the suite under tests/ and benchmarks/ imports beyond numpy
    # (kept in step with requirements-ci.txt).
    extras_require={"test": ["hypothesis", "pytest", "pytest-benchmark"]},
)
