"""Setuptools metadata for the ``repro`` package.

The package lives under ``src/`` and needs nothing beyond the standard
library at run time.  Installing it is optional: the root ``conftest.py``
puts ``src`` on the import path for the test suite, and the scripts and
CLIs run with ``PYTHONPATH=src``.  To install, ``pip install -e .`` or,
where pip cannot fetch its ``wheel`` build dependency (offline hosts),
``python setup.py develop``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
