"""Legacy entry point: all metadata lives in pyproject.toml.

Kept so that ``python setup.py develop`` can install the package in place
where the ``wheel`` package, which ``pip install -e .`` needs with
setuptools < 70.1, is not available.
"""
from setuptools import setup

setup()
