"""Fixtures for the kernel backends.

``compiled`` builds ``_kernels.c`` with ``setup.py build_ext`` into a
temporary directory once per session, so the C kernels are exercised whether
or not the package was installed with them; it skips only when no C compiler
is on PATH.
"""

import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from jacobipc import _kernels_py

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The C kernel module, freshly built outside the source tree."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler on PATH ({cc!r})")
    out = tmp_path_factory.mktemp("build")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=REPO, capture_output=True, text=True)
    log = proc.stdout + proc.stderr
    # the extension is optional: setuptools only warns on a failed build, so
    # look for the module
    built = sorted((out / "lib" / "jacobipc").glob("_kernels*" + sysconfig.get_config_var("EXT_SUFFIX")))
    assert proc.returncode == 0 and built, "extension did not build:\n" + log
    warnings = [line for line in log.splitlines() if "_kernels.c" in line and "warning:" in line]
    assert not warnings, "compiler warnings:\n" + "\n".join(warnings)
    spec = importlib.util.spec_from_file_location("jacobipc._kernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session", params=["pure", "compiled"])
def backend(request):
    """Each kernel module in turn: the reference, then the C build."""
    return _kernels_py if request.param == "pure" else request.getfixturevalue("compiled")

