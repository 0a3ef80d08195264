"""One benchmark repetition in a fresh interpreter.

Usage: python3 perfbench/child.py RESULT.json [--trace] [--] [CLI ARGS...]

Imports ``fuzzyheat.cli`` from ``src/`` of the current directory, runs
``fuzzyheat.cli.main(CLI ARGS)`` once (or nothing when no CLI ARGS are
given, to measure set-up alone) and writes a JSON record to RESULT.json:

* ``setup_end``: ``time.monotonic()`` when the import finished; the
  parent subtracts its own clock reading taken before it started this
  process, so set-up covers interpreter start-up too.
* ``run_s``: wall time of ``cli.main``; ``exit_code``: its return value.
* ``maxrss_kib``: peak resident memory of this process.
* ``env``: package, numpy, scipy and BLAS versions.
* ``layers``: per-layer metrics, with ``--trace`` only.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import fuzzyheat.cli as cli  # noqa: E402

setup_end = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402  (perfbench/spans.py)


def _environment() -> dict:
    import numpy
    import scipy

    import fuzzyheat

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "fuzzyheat": getattr(fuzzyheat, "__version__", "unknown"),
        "fuzzyheat_file": fuzzyheat.__file__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def _workers(argv: list[str]) -> int:
    if "--workers" in argv:
        return int(argv[argv.index("--workers") + 1])
    return 1


def main() -> int:
    result_path = sys.argv[1]
    rest = sys.argv[2:]
    trace = bool(rest) and rest[0] == "--trace"
    argv = rest[1:] if trace else rest
    if argv[:1] == ["--"]:
        argv = argv[1:]

    record: dict = {"setup_end": setup_end, "env": _environment()}
    if argv:
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
            root = tracer.open("cli.main")
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed run, not a crash here
            traceback.print_exc()
            code = 1
        run_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            record["layers"] = layer_metrics(tracer, _workers(argv))
            record["absent"] = tracer.absent
        record.update(run_s=run_s, exit_code=code)
    record["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
