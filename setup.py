"""Build script: compiles the optional arithmetic accelerator from the
tracked, Cython-generated src/qaltsum/_speedups.c.  The extension is
optional: without a working C compiler the build warns and the package
keeps its pure-Python kernel lane (see qaltsum._kernels).
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("qaltsum._speedups", ["src/qaltsum/_speedups.c"], optional=True)])
