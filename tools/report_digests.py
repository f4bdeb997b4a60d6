"""sha256 digests of every CLI report, for checking that a refactor keeps
the reports byte-identical.

Usage (from any directory): python3 tools/report_digests.py > digests.txt

It runs every command on twelve map/observable pairs at one small seeded
setting, from the checkout that holds this script (``PYTHONPATH=src``),
each in a fresh temporary directory, ``os.cpu_count()`` commands at a time.
It prints one line per stdout and per ``--out`` file, skipping the
``*.meta.json`` timestamp sidecars, in the order of the pairs and commands
below:

    sha256 exit command map obs file

Run it on two checkouts and ``diff`` the outputs.  It prints 295 lines
and took about 25 s on a 2-core Xeon host with Python 3.11.  The pairs cover
every builtin, declared coboundaries, constants (``lsv:0.25``/``0``, and
``doubling``/``2*pi``, whose quadrature mean rounds apart from it), a
small-scale observable without a CLT (``lsv:0.8``/``1e-7*y``), whose
decay flags must not depend on the scale, ``lsv:0.6``/``lip1`` past
gamma = 1/2, where the resolvent solves take the most steps, and a
large-scale coboundary (``doubling``/``coboundary:1000*cos(2*pi*y)``),
whose coboundary verdict must not depend on the scale either.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = ["density", "decay", "gordin", "sigma", "clt", "fclt", "verify",
            "report"]
PAIRS = [
    ("doubling", "cos1"),
    ("lsv:0.25", "lip1"),
    ("chebyshev:2", "y"),
    ("manneville_pomeau:0.25", "lip1"),
    ("doubling", "coboundary:cos1"),
    ("lsv:0.25", "coboundary:lip1"),
    ("lsv:0.25", "0"),
    ("lsv:0.8", "1e-7*y"),
    ("doubling", "cos2"),
    ("doubling", "2*pi"),
    ("lsv:0.6", "lip1"),
    ("doubling", "coboundary:1000*cos(2*pi*y)"),
]
SETTING = ["--cells", "1024", "--samples", "5000", "--n", "512",
           "--seed", "11", "--threads", "2", "--m", "16"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(job) -> list:
    """The digest lines of one command on one map/observable pair."""
    map_spec, obs, command = job
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "ergolab", command, "--map", map_spec,
             "--obs", obs, *SETTING, "--out", str(out)],
            cwd=tmp, env=env, capture_output=True)
        files = [("stdout", proc.stdout)]
        if out.is_dir():
            files += [(p.name, p.read_bytes()) for p in sorted(out.iterdir())
                      if not p.name.endswith(".meta.json")]
    return [f"{digest(data)} {proc.returncode} {command} {map_spec} {obs} "
            f"{name}" for name, data in files]


def main() -> int:
    jobs = [(map_spec, obs, command) for map_spec, obs in PAIRS
            for command in COMMANDS]
    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        for lines in pool.map(run, jobs):
            print(*lines, sep="\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
