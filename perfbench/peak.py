"""Run a Python module or script, then write its peak resident set to a
file.

    python3 perfbench/peak.py OUT -m MODULE ARG...
    python3 perfbench/peak.py OUT SCRIPT ARG...

The peak is VmHWM of /proc/self/status, in KiB: the high-water mark of
this process's memory since it was exec'd.  ru_maxrss would not do: at
exec Linux folds into it the memory of the process that spawned the child,
and the benchmark's runner is larger than the children it times.  The
exit code is the target's.
"""

import runpy
import sys


def vm_hwm_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    try:
        if argv[0] == "-m":
            sys.argv = argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = argv
            runpy.run_path(argv[0], run_name="__main__")
    finally:
        with open(out, "w") as fh:
            fh.write(str(vm_hwm_kb()))


if __name__ == "__main__":
    main()
