"""Build the optional compiled kernel extension.

The pure-Python kernels are selected at import time when it is missing, so a
failed build only warns (``optional=True``) and the install goes on.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "jacobipc._kernels",
            ["src/jacobipc/_kernels.c"],
            # no fused multiply-add contraction: results must match the pure
            # Python kernels bit for bit
            extra_compile_args=["-O3", "-Wall", "-ffp-contract=off"],
            optional=True,
        )
    ],
)
