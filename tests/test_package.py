"""Process-wide effects of importing the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# mapped blocks before and after a 3 MiB array, which glibc maps afresh
# unless the mmap threshold is above 3 MiB
_PROBE = """
import ctypes, sys
import numpy as np
{import_line}
class Info(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in
                "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]
mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Info
before = mallinfo2().hblks
block = np.ones(3 << 17)
print(mallinfo2().hblks - before)
"""


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _mapped_blocks(import_line: str) -> int:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for var in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_"):
        env.pop(var, None)
    done = subprocess.run([sys.executable, "-c", _PROBE.format(import_line=import_line)],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    return int(done.stdout)


@pytest.mark.skipif(not _glibc(), reason="the thresholds are pinned under glibc only")
def test_import_pins_the_mmap_threshold():
    # a fresh process maps the block; one that imported pkgquery serves it
    # from the heap
    assert _mapped_blocks("") == 1
    assert _mapped_blocks("import pkgquery") == 0
