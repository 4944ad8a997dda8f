"""Digest of the stdout of a fixed matrix of ``lsnav`` CLI commands, for one or
more source trees of lsnav:

    python3 scripts/cli_digest.py change=src
    python3 scripts/cli_digest.py parent=/path/to/parent/src change=src

Each ``LABEL=SRC`` argument runs every command as ``python3 -m lsnav.cli ...``
with SRC first on PYTHONPATH, and prints one line per command and tree: the
sha256 of the command's stdout, the label and the command.  The matrix is
``critfind`` on the nav field (sphere:1 r=2, sphere:3 r=3, product:1,3 r=2;
sphere:3 r=3 also as ``--format text`` and at 4500 seeds, where its Newton
solves along the batch axis in three row blocks; product:1,1,1 r=3 at the default
200 seeds, whose 59 distinct labels of three factors each show a slip in the
label format across many sign patterns), on ut-f (stiefel:4) and on the
height (ellipsoid:1,2,3, and the torus of revolution (2, 0.5) at level 0.25
at seeds 0, 1 and 2), ``pairs`` on the ellipsoid (1,2,3), on the ellipsoid
(0.03,1,30) at 3000 seeds (the row whose pair nullity sits next to the kernel
threshold: the smallest Hessian eigenvalue of its middle-axis pair is 4.44444e-3
against a threshold of 4.44544e-3, so a changed bit in the spectrum rule shows
there), on S^2 (at 2000 seeds and at 50, where the continuum must not depend on
the seed count) and on that torus (``--torus 2,0.5``, a continuum of pairs),
``bound --unit-tangent --m 1 --r 4`` as JSON and as ``--format text``,
``plan`` with the product-spheres planner on a 3-slot critical tuple of
product:1,3 (as JSON and as ``--format csv --samples 64``) and with the sigma-u
planner on a 3-entry fiber tuple of stiefel:8 over x = (1/2, 1/2, 1/2, 1/2,
0, 0, 0, 0), and ``verify``, whose per-criterion seconds are masked before
hashing.  Every other command runs at ``--seed 0``.  The torus spec and the
two tuples are written as JSON files to a temporary directory; each command is
shown with its file names relative to that directory.

With two or more trees the last line says whether every command printed the
same bytes in each tree.  Exit status: 0 when they agree (or one tree ran), 1
when some command differs, 2 when a command fails or the arguments are bad.
A deletion that must not change numerics shows byte-identity with one run.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

HALF = [0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0]
I_HALF = [0.5, -0.5, 0.5, -0.5, 0.0, 0.0, 0.0, 0.0]  # mult_i of HALF
INPUT_FILES = {
    "torus.json": {"kind": "implicit_hypersurface", "level": 0.25,
                   "field": {"name": "torus_of_revolution",
                             "params": {"major_radius": 2.0, "minor_radius": 0.5}}},
    # signs (+, -, -) on the S^1 factor and (+, +, -) on the S^3 factor
    "spheres-tuple.json": [[0.6, 0.8, 0.5, 0.5, 0.5, 0.5],
                           [-0.6, -0.8, 0.5, 0.5, 0.5, 0.5],
                           [-0.6, -0.8, -0.5, -0.5, -0.5, -0.5]],
    # the frames (x, i x), (x, -i x), (x, i x)
    "fibers-tuple.json": [HALF + I_HALF, HALF + [-v for v in I_HALF], HALF + I_HALF],
}
SECONDS = re.compile(rb"\(\s*\d+\.\ds\)")


def commands(tmp: str) -> list:
    """The CLI argument lists of the matrix, verify last; the input files are in tmp."""
    torus_file, spheres, fibers = (os.path.join(tmp, name) for name in INPUT_FILES)
    plan = ["plan", "--seed", "0", "--planner"]
    crit = ["critfind", "--seed", "0", "--field"]
    cmds = [crit + ["nav", "--manifold", "sphere:1", "--r", "2", "--seeds", "200"],
            crit + ["nav", "--manifold", "sphere:3", "--r", "3", "--seeds", "200"],
            crit + ["nav", "--manifold", "sphere:3", "--r", "3", "--seeds", "200",
                    "--format", "text"],
            crit + ["nav", "--manifold", "sphere:3", "--r", "3", "--seeds", "4500"],
            crit + ["nav", "--manifold", "product:1,3", "--r", "2", "--seeds", "200"],
            crit + ["nav", "--manifold", "product:1,1,1", "--r", "3"],
            crit + ["ut-f", "--manifold", "stiefel:4", "--seeds", "100"],
            crit + ["height", "--manifold", "ellipsoid:1,2,3", "--seeds", "100"]]
    cmds += [["critfind", "--seed", str(s), "--field", "height",
              "--manifold", "@" + torus_file, "--seeds", "150"] for s in (0, 1, 2)]
    cmds += [["pairs", "--seed", "0", "--ellipsoid", "1,2,3", "--seeds", "3000"],
             ["pairs", "--seed", "0", "--ellipsoid", "0.03,1,30", "--seeds", "3000"],
             ["pairs", "--seed", "0", "--sphere", "2", "--seeds", "2000"],
             ["pairs", "--seed", "0", "--sphere", "2", "--seeds", "50"],
             ["pairs", "--seed", "0", "--torus", "2,0.5", "--seeds", "2000"],
             ["bound", "--seed", "0", "--unit-tangent", "--m", "1", "--r", "4"],
             ["bound", "--seed", "0", "--unit-tangent", "--m", "1", "--r", "4",
              "--format", "text"],
             plan + ["product-spheres", "--manifold", "product:1,3", "--tuple", spheres],
             plan + ["product-spheres", "--manifold", "product:1,3", "--tuple", spheres,
                     "--format", "csv", "--samples", "64"],
             plan + ["sigma-u", "--manifold", "stiefel:8", "--tuple", fibers],
             ["verify", "--seed", "0"]]
    return cmds


def digest(src: str, argv: list) -> str:
    """sha256 of the stdout of ``lsnav argv`` run from src; raises on failure."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-m", "lsnav.cli", *argv], env=env,
                          capture_output=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode} under {src}:\n"
                           + done.stderr.decode(errors="replace"))
    out = SECONDS.sub(b"(s)", done.stdout) if argv[0] == "verify" else done.stdout
    return hashlib.sha256(out).hexdigest()


def main(argv) -> int:
    pairs = argv or ["change=src"]
    if not all("=" in a for a in pairs):
        print(__doc__, file=sys.stderr)
        return 2
    trees = dict(a.split("=", 1) for a in pairs)
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, payload in INPUT_FILES.items():
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(payload, fh)
        for cmd in commands(tmp):
            shown = " ".join(cmd).replace(tmp + os.sep, "")
            try:
                sums = {label: digest(src, cmd) for label, src in trees.items()}
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 2
            for label, s in sums.items():
                print(f"{s}  {label}  {shown}", flush=True)
            if len(set(sums.values())) > 1:
                differ.append(shown)
    if len(trees) > 1:
        print("identical" if not differ else "DIFFERENT: " + "; ".join(differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
