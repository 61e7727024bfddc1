"""Run one colcodec command in a fresh process and report its peak RSS.

Usage: python3 rss_child.py SRC_DIR COMMAND [ARGS...]

Prints the command's own standard output, then one JSON line with the exit
code and the peak resident set size of this process in KiB. The peak is
``VmHWM`` from ``/proc/self/status``, which starts afresh at exec; Linux
carries ``ru_maxrss`` over from the parent that forked this process, so that
figure would read the benchmark's own size.
"""

import contextlib
import io
import json
import sys

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from colcodec import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(sys.argv[2:])
    sys.stdout.write(out.getvalue())
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    print(json.dumps({"exit": code, "peak_kib": peak}))
