"""Run one command in a child process and print its wall time and peak RSS.

    PYTHONPATH=src python tools/peak_rss.py python -m psilab.cli bohm-bs --csv --svg

The child's standard output is discarded; its standard error passes through.
Prints one line, `exit N, wall S s, peak RSS M MB`, and exits with the
child's code.  Peak RSS is `ru_maxrss` of `RUSAGE_CHILDREN` (KiB on Linux),
the largest over every child this process has waited for, so each command to
compare needs its own run of this script.
"""

import resource
import subprocess
import sys
import time


def main(argv) -> int:
    if not argv:
        sys.exit(__doc__)
    start = time.perf_counter()
    rc = subprocess.run(argv, stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"exit {rc}, wall {wall:.2f} s, peak RSS {rss_mb:.1f} MB")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
