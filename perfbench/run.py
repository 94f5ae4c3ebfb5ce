#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py compare --parent <dir> --change <dir> [--claim w:metric,...]
  python3 perfbench/run.py pair --parent <checkout> [--pairs 10] [--seconds <s>]
                                [--seed <n>] [--claim w:metric,...]

The benchmark is the Go module in this directory.  It is built against the
program source of the checkout it sits in; everything the build writes goes
under .bench_build/ at the checkout root.  "pair" also builds the same
benchmark code against a second checkout (the parent); this checkout's
binary then alternates its own runs with the parent binary's on every
workload and compares them.
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOWORK"] = "off"
    env["GOFLAGS"] = ""
    env["GOPROXY"] = "off"
    return env


def build(out, program_root=None):
    """Build the benchmark into out, against program_root's source
    (this checkout's when None).  Exits with status 2 on failure."""
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: no go toolchain on PATH")
    cmd = [go, "build", "-o", out]
    if program_root is not None:
        modfile = out + ".mod"
        with open(modfile, "w") as f:
            f.write("module repro/perfbench\n\ngo 1.23\n\nrequire repro v0.0.0\n\n"
                    "replace repro => %s\n" % os.path.abspath(program_root))
        cmd += ["-modfile", modfile]
    cmd.append(".")
    try:
        subprocess.run(cmd, cwd=BENCH_DIR, env=go_env(), check=True, timeout=850)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit(2 if isinstance(e, subprocess.CalledProcessError) else "perfbench: build timed out")


def flag_value(args, name):
    """Remove --name <value> from args and return the value, or None."""
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            value = args[i + 1]
            del args[i:i + 2]
            return value
    return None


def main():
    args = sys.argv[1:]
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    if args and args[0] == "pair":
        rest = args[1:]
        parent = flag_value(rest, "--parent")
        if parent is None:
            sys.exit("perfbench pair: --parent <checkout> is required")
        pair_dir = os.path.join(BUILD, "pair")
        os.makedirs(pair_dir, exist_ok=True)
        parent_bin = os.path.join(pair_dir, "perfbench-parent")
        build(parent_bin, parent)
        args = ["pair", "-parent-bin", parent_bin, "-out", pair_dir] + rest
    build(binary)
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
