"""Digest of the stdout of a fixed matrix of ``lsnav`` CLI commands, for one or
more source trees of lsnav:

    python3 scripts/cli_digest.py change=src
    python3 scripts/cli_digest.py parent=/path/to/parent/src change=src

Each ``LABEL=SRC`` argument runs every command as ``python3 -m lsnav.cli ...``
with SRC first on PYTHONPATH, and prints one line per command and tree: the
sha256 of the command's stdout, the label and the command.  The matrix is
``critfind`` on the nav field (sphere:1 r=2, sphere:3 r=3, product:1,3 r=2),
on ut-f (stiefel:4) and on the height (ellipsoid:1,2,3, and the torus of
revolution (2, 0.5) at level 0.25 at seeds 0, 1 and 2), ``pairs`` on the
ellipsoid (1,2,3), on S^2 and on that torus (``--torus 2,0.5``, a continuum
of pairs), ``bound --unit-tangent --m 1 --r 4``, and
``verify``, whose per-criterion seconds are masked before hashing.  Every
other command runs at ``--seed 0``.

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

TORUS_SPEC = {"kind": "implicit_hypersurface", "level": 0.25,
              "field": {"name": "torus_of_revolution",
                        "params": {"major_radius": 2.0, "minor_radius": 0.5}}}
SECONDS = re.compile(rb"\(\s*\d+\.\ds\)")


def commands(torus_file: str) -> list:
    """The CLI argument lists of the matrix, verify last."""
    crit = ["critfind", "--seed", "0", "--field"]
    cmds = [crit + ["nav", "--manifold", "sphere:1", "--r", "2", "--seeds", "200"],
            crit + ["nav", "--manifold", "sphere:3", "--r", "3", "--seeds", "200"],
            crit + ["nav", "--manifold", "product:1,3", "--r", "2", "--seeds", "200"],
            crit + ["ut-f", "--manifold", "stiefel:4", "--seeds", "100"],
            crit + ["height", "--manifold", "ellipsoid:1,2,3", "--seeds", "100"]]
    cmds += [["critfind", "--seed", str(s), "--field", "height",
              "--manifold", "@" + torus_file, "--seeds", "150"] for s in (0, 1, 2)]
    cmds += [["pairs", "--seed", "0", "--ellipsoid", "1,2,3", "--seeds", "3000"],
             ["pairs", "--seed", "0", "--sphere", "2", "--seeds", "2000"],
             ["pairs", "--seed", "0", "--torus", "2,0.5", "--seeds", "2000"],
             ["bound", "--seed", "0", "--unit-tangent", "--m", "1", "--r", "4"],
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
        torus_file = os.path.join(tmp, "torus.json")
        with open(torus_file, "w") as fh:
            json.dump(TORUS_SPEC, fh)
        for cmd in commands(torus_file):
            shown = " ".join(cmd).replace(torus_file, "torus(2,0.5)@0.25")
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
