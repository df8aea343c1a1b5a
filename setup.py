"""Build script for the optional compiled kernels.

``_fiber.c`` is plain C99 without the Python C-API; ``qsatkit.kernels``
loads it with ctypes.  The package works without it (the numpy kernel is
used instead), so ``optional=True`` lets installation go on without a C
compiler.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("qsatkit._fiber", ["src/qsatkit/_fiber.c"], optional=True)])
