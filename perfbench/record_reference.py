#!/usr/bin/env python3
"""Record the outputs of the default seed's pass of every workload into
``reference_seed0.json``, the reference the benchmark compares against.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known good: it refuses to record
while any seed-independent check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, WORK, Runner, use_checkout_source


def main() -> int:
    use_checkout_source()
    import workloads
    from checks import normalize

    work = WORK / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            runner = Runner()
            runner.outputs = {}
            requests = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, work)
            runner.run_pass(requests)
            if runner.failed:
                sys.exit("refusing to record:\n" + "\n".join(runner.failures))
            reference[name] = {r.label: normalize(r.expect, runner.outputs[r.label])
                               for r in requests}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference_seed0.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
