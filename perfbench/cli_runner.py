"""Runs ``planecurves.cli.main(argv)`` as the ``planecurves`` executable
would, for the benchmark's ``cli`` workload.

    python3 perfbench/cli_runner.py count --field p=2,k=4 --catalog hermitian

When the environment names a trace file in ``PERFBENCH_TRACE``, the runner
samples the whole process (imports included) and writes the sampler's
aggregates and the layer counts there as JSON before exiting.  Standard
output and the exit code are those of the command either way.
"""

import json
import os
import sys


def main(argv) -> int:
    trace_path = os.environ.get("PERFBENCH_TRACE")
    sampler = None
    if trace_path:
        from sampler import Sampler

        # Started before the benchmark's own imports, so that the sampled
        # time covers as much of the process as it can.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        sampler = Sampler(os.path.join(root, "src", "planecurves"))
        sampler.start()
    from common import MissingLibrary, import_planecurves, pin_threads

    pin_threads()
    try:
        import_planecurves()
    except MissingLibrary as exc:
        if sampler:
            sampler.stop()
        sys.stderr.write(f"error: {exc}\n")
        return 1
    from planecurves.cli import main as cli_main

    if sampler is None:
        return cli_main(argv)
    from layers import Probes

    probes = Probes(sampler)
    try:
        code = cli_main(argv)
    finally:
        sampler.stop()
    with open(trace_path, "w") as fh:
        json.dump({"snapshot": sampler.snapshot(), "counts": probes.finish()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
