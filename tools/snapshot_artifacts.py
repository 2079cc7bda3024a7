"""Write every subcommand's artifacts at fixed inputs, one directory per case.

    PYTHONPATH=src python tools/snapshot_artifacts.py OUT

Runs `psilab.cli.main` for each case below into `OUT/<case>/`.  Identical
code gives byte-identical trees, so a refactor is checked by running the
script against two checkouts (point PYTHONPATH at each one's `src/`) and
comparing the trees with `diff -r`.  Exits 1 if any case exits non-zero.
"""

import os
import sys

from psilab.cli import main

CASES = {
    **{f"bohm-bs-{prep}": ["bohm-bs", "--prep", prep, "--n", "400",
                           "--csv", "--svg"]
       for prep in ("psi1", "psi2", "plus", "minus")},
    "bohm-sg": ["bohm-sg", "--n", "10000", "--csv", "--svg"],
    # The benchmark's sg_analyzer run: no point tracked, so the local spin
    # is computed for the last frame only.
    "bohm-sg-json": ["bohm-sg", "--n", "10000"],
    # The one CLI run whose down component is exactly zero (at theta = pi,
    # up is 6e-17 times the packet, not zero).
    "bohm-sg-theta0": ["bohm-sg", "--theta", "0", "--n", "2000",
                       "--csv", "--svg"],
    # Every scientific option off its default: checks config_hash and the
    # writers beyond the defaults.
    "bohm-sg-options": ["bohm-sg", "--theta", "1.0", "--n", "300", "--seed", "7",
                        "--cells", "1024", "--dt", "2e-3", "--t-final", "2.5",
                        "--b1", "-3.0", "--csv", "--svg"],
    # Off the exact mirror (x != -x[::-1] in floating point at 1000 cells):
    # the one case that steps the packet under +b1 x and -b1 x both.
    "bohm-sg-cells1000": ["bohm-sg", "--cells", "1000", "--n", "2000",
                          "--csv", "--svg"],
    "pbr-table": ["pbr-table"],
    "pbr-check-overlap": ["pbr-check", "--scene", "overlap"],
    "pbr-check-disjoint": ["pbr-check", "--scene", "disjoint"],
    "pbr-check-n3": ["pbr-check", "--scene", "n3"],
    "pbr-check-n3-wide": ["pbr-check", "--scene", "n3",
                          "--cells-per-support", "5", "--shared", "2"],
    # Off the defaults that the scenes read: a wider 3-copy angle (a basis
    # exists there) and an overlap of one cell.
    "pbr-check-n3-theta": ["pbr-check", "--scene", "n3", "--theta", "1.2"],
    "pbr-check-overlap-shared1": ["pbr-check", "--scene", "overlap",
                                  "--shared", "1"],
    # Disjoint supports on the overlap and 3-copy scenes: FEASIBLE expected.
    "pbr-check-overlap-shared0": ["pbr-check", "--scene", "overlap",
                                  "--shared", "0"],
    "pbr-check-n3-shared0": ["pbr-check", "--scene", "n3", "--shared", "0"],
    "escape-demo": ["escape-demo"],
    # One scene at a time: the single-scene path through the escape builder.
    **{f"escape-demo-{scene}": ["escape-demo", "--scene", scene]
       for scene in ("beam-splitter", "single-qubit-orthogonal")},
    "selftest": ["selftest"],
}


def run(out_root: str) -> int:
    failed = []
    for case, argv in CASES.items():
        rc = main(argv + ["--out", os.path.join(out_root, case)])
        if rc != 0:
            failed.append(f"{case} exited {rc}")
    for line in failed:
        print(f"error: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(sys.argv[1]))
