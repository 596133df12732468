"""Package metadata for the ``repro`` package (``src`` layout).

There is no ``pyproject.toml``: this file is the whole build
configuration, so ``pip install -e .`` works offline through
``setup.py develop`` without the ``wheel`` package.  The core needs
numpy only; the ``apps`` extra adds scipy for the application golden
models in ``repro.apps``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    extras_require={"apps": ["scipy"]},
)
