#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload hetero_ar --seed 1 --seconds 40 --trace 0

Workloads: hetero_ar, torus512_ar, hier_1k, serve_mix, or `all` to run the
four in turn. The last line of standard output is the result object (for
`all`, one object keyed by workload); the build log and the human-readable
metric table go to standard error. Exits with 2, printing no result, when the
repository sources are missing or do not build.
"""

import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["hetero_ar", "torus512_ar", "hier_1k", "serve_mix"]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (dune-project and lib/ not found)",
              file=sys.stderr)
        return False
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return False
    # The shared dune cache lives outside the checkout; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    result = subprocess.run([dune, "build", "--root", ".", "./perfbench/bench.exe"],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    if result.returncode != 0:
        sys.stderr.write(result.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def run_all(args):
    """Runs every workload with the same other arguments."""
    i = args.index("--workload")
    results = {}
    for w in WORKLOADS:
        print(f"== {w}", file=sys.stderr, flush=True)
        p = subprocess.run([EXE] + args[:i + 1] + [w] + args[i + 2:], stdout=subprocess.PIPE)
        if p.returncode != 0:
            return p.returncode
        results[w] = json.loads(p.stdout.decode().strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main():
    if not build():
        return 2
    args = sys.argv[1:]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        return run_all(args)
    return subprocess.run([EXE] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
