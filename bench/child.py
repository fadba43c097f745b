"""One measurement in a fresh interpreter: a set-up, or one timed CLI suite.

Usage: ``python3 child.py '<json job>'``, where the job is

* ``{"mode": "setup", "experiment": ..., "build": {...}, "seed": s, "repeat": r}``:
  import the package and its CLI, build the experiment and its initial
  points, and print the ``time.monotonic()`` reading at which that ended
  (the launcher took its own reading just before starting this process);
* ``{"mode": "suite", "argv": [...], "trace": bool, "kernel": kind}``: run
  ``fpiter.cli.main(argv)`` once, optionally with every layer wrapped in
  spans, and print the suite's wall time, exit status and peak resident
  memory (plus the span table when traced), and the times of the
  reference kernel ``kind`` (``speed.py``) run right before and right
  after the suite.

The result is the last line of standard output, as JSON. The package is
found through ``PYTHONPATH``, which the launcher points at the source tree.
"""

import json
import resource
import sys
import time


def setup(job):
    import numpy as np

    import fpiter
    import fpiter.cli  # noqa: F401  (a suite imports the CLI as well)

    spec = fpiter.build_experiment(job["experiment"], **job["build"])
    spec.make_initials(np.random.default_rng([job["seed"], 1]), job["repeat"])
    return {"done": time.monotonic()}


def suite(job):
    import fpiter.cli
    import speed

    speed.sample(job["kernel"], 1)  # warm-up
    kernel_s = speed.sample(job["kernel"])
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    start = time.perf_counter()
    status = fpiter.cli.main(job["argv"])
    suite_s = time.perf_counter() - start
    kernel_s += speed.sample(job["kernel"])
    out = {
        "status": status,
        "suite_s": suite_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "kernel_s": kernel_s,
    }
    if tracer is not None:
        out["spans"] = tracer.table()
    return out


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    result = setup(job) if job["mode"] == "setup" else suite(job)
    print(json.dumps(result))
