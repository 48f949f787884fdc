#!/usr/bin/env python3
"""Output digests of every CLI command on run configs.

Runs the five snls commands (simulate, ensemble, verify-identities,
convergence, blowup-scan) on each config (default: configs/*.cfg), one
after another, each in a fresh temporary working directory with
`--out out`, and prints per command one line

    config command exit CODE

and one line per output file, stdout and stderr included as <stdout> and
<stderr>:

    config command file sha256

The package comes from this checkout's src/, and relative paths in a config
resolve against the temporary directory.  Two checkouts whose outputs agree
byte for byte print the same lines, so `diff` of their output is a
byte-identity check of the CLI:

    SNLS_THREADS=2 python3 scripts/output_digests.py > tree.txt
"""

import argparse
import glob
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("simulate", "ensemble", "verify-identities", "convergence", "blowup-scan")
MAIN = "import sys; from snls.cli import main; sys.exit(main())"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="*", metavar="CONFIG",
                    help="run config files (default: configs/*.cfg of this checkout)")
    args = ap.parse_args()

    configs = args.configs or sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))
    path = [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    for cfg in configs:
        label, cfg = os.path.basename(cfg), os.path.abspath(cfg)
        for command in COMMANDS:
            with tempfile.TemporaryDirectory(prefix="snls-digest-") as cwd:
                proc = subprocess.run([sys.executable, "-c", MAIN, command, "--config", cfg,
                                       "--out", "out"], cwd=cwd, env=env, capture_output=True)
                print(label, command, "exit", proc.returncode)
                print(label, command, "<stdout>", _sha256(proc.stdout))
                print(label, command, "<stderr>", _sha256(proc.stderr))
                out = os.path.join(cwd, "out")
                for name in sorted(os.path.relpath(os.path.join(d, f), out)
                                   for d, _, files in os.walk(out) for f in files):
                    with open(os.path.join(out, name), "rb") as fh:
                        print(label, command, name, _sha256(fh.read()), flush=True)


if __name__ == "__main__":
    main()
