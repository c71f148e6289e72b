"""Set-up probe: a fresh interpreter imports the library, constructs the
given fields and their projective planes, then prints ``ready``.

    python3 perfbench/probe.py 2,2 3,1 ...      # one p,k pair per field

The parent times the interval from spawning this process to reading
``ready``; that interval is the workload's set-up time.
"""

import sys

from common import MissingLibrary, import_planecurves, pin_threads


def main(argv) -> int:
    pin_threads()
    try:
        import_planecurves()
    except MissingLibrary as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    from planecurves.field import FiniteField
    from planecurves.plane import get_plane

    for spec in argv:
        p, k = (int(x) for x in spec.split(","))
        get_plane(FiniteField(p, k))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
