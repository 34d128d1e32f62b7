"""Running a snippet of code under another OpenBLAS kernel: the last bits of
BLAS products depend on the kernel, so tests that pin bits or integers that
BLAS products reach rerun them under each kernel this CPU can run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

# the CPU flags (as /proc/cpuinfo names them) that each OpenBLAS kernel runs on
KERNEL_FLAGS = {"Haswell": {"avx2", "fma"}, "Prescott": {"pni"}, "Sandybridge": {"avx"}}


def run_on_kernel(code, kernel) -> str:
    """The standard output of `code` run by a fresh interpreter with
    OPENBLAS_CORETYPE set to `kernel`; skips the test where this CPU cannot
    tell or lacks the kernel's instructions, and fails it on an exit status
    or any standard error output."""
    try:
        flags = set(next(line for line in Path("/proc/cpuinfo").read_text().splitlines()
                         if line.startswith("flags")).split(":")[1].split())
    except (OSError, StopIteration):
        pytest.skip("no /proc/cpuinfo flags to tell which kernels this CPU runs")
    if not KERNEL_FLAGS[kernel] <= flags:
        pytest.skip(f"this CPU lacks the {kernel} kernel's instructions")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=kernel))
    assert out.returncode == 0 and out.stderr == "", out.stderr
    return out.stdout
