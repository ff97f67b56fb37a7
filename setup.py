"""Build the optional compiled kernel extension.

The package is fully functional without the extension (pure-Python kernels are
selected at import time), so a missing compiler must not fail the install.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build ``jacobipc._kernels`` if possible, otherwise warn and continue."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain missing entirely
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # compile/link failure
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        import warnings

        warnings.warn(
            "compiled kernels unavailable, falling back to pure Python: %s" % exc
        )


setup(
    ext_modules=[
        Extension(
            "jacobipc._kernels",
            ["src/jacobipc/_kernels.c"],
            # no fused multiply-add contraction: results must match the pure
            # Python kernels bit for bit
            extra_compile_args=["-O3", "-Wall", "-ffp-contract=off"],
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
