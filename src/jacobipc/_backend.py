"""Kernel backend selection.

The compiled extension ``_kernels`` (a plain C extension built from
``_kernels.c`` when a C compiler is available) is preferred; the pure-Python
``_kernels_py``, which holds the reference semantics, is the drop-in
fallback.  Set JACOBIPC_PURE=1 to force the fallback (used by the parity
tests).
"""

import os

if os.environ.get("JACOBIPC_PURE") == "1":
    from jacobipc import _kernels_py as kernels
else:
    try:
        from jacobipc import _kernels as kernels
    except ImportError:
        from jacobipc import _kernels_py as kernels

USING_COMPILED = kernels.COMPILED
