"""Run one command in a fresh interpreter and print one line: its
arguments, exit code, peak RSS and wall time.

    python tests/child_run.py [--bound MIB [--above-import]] [--stdout FILE] -- ARG...

The child is `python ARG...`, for example `-m stableset.cli random --n 5`,
with its stdout written to FILE or discarded.  Its peak RSS is its own, as
`os.wait4` reports it for that child alone.  The run fails (exit 1) if the
child exits non-zero or peaks at or above MIB MiB; with --above-import the
bound is MIB above the peak of a child that only imports `stableset.cli`.
The CI workflow runs its large documents through this script; pytest does
not collect it.
"""

import argparse
import os
import subprocess
import sys
import time


def child(args: list[str], stdout) -> tuple[int, float, float]:
    """The exit code, peak RSS in MiB and wall time in seconds of
    `python args`."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=stdout)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024, time.perf_counter() - start


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child_run.py")
    parser.add_argument("--bound", type=float, metavar="MIB")
    parser.add_argument("--above-import", action="store_true")
    parser.add_argument("--stdout", metavar="FILE")
    parser.add_argument("args", nargs="+")
    opts = parser.parse_args(argv)
    bound = opts.bound
    if opts.above_import:
        if bound is None:
            parser.error("--above-import needs --bound")
        bound += child(["-c", "import stableset.cli"], subprocess.DEVNULL)[1]
    if opts.stdout is None:
        code, peak, wall = child(opts.args, subprocess.DEVNULL)
    else:
        with open(opts.stdout, "wb") as out:
            code, peak, wall = child(opts.args, out)
    line = (f"{' '.join(opts.args)}: exit {code}, peak RSS {peak:.1f} MiB, "
            f"wall {wall:.2f} s")
    print(line if bound is None else f"{line}, bound {bound:.1f} MiB")
    return int(code != 0 or (bound is not None and peak >= bound))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
