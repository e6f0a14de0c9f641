"""Peak resident memory that one run adds, read in a fresh interpreter."""
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# VmHWM counts this process image alone.  ru_maxrss would start from the
# peak of the process that spawned it, so under a test runner larger than
# the run it reads 0 whatever the run takes.
_PEAK_KB = '''
def peak_kb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
'''


def bytes_per_letter(script: str) -> float:
    """What the script prints: a peak growth from peak_kb(), which it may
    call, in bytes a letter (CPython 3.11 on Linux)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _PEAK_KB + script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return float(done.stdout)
