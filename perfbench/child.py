"""One measured grassflow run, in the fresh interpreter the caller started.

    python3 perfbench/child.py setup --root ROOT --config CFG --out PREFIX COMMAND
    python3 perfbench/child.py run   --root ROOT --config CFG --out PREFIX COMMAND [--trace]

``setup`` times importing ``grassflow.cli`` and building the run's inputs
(``load_config``, ``build_tolerances`` and, unless ``--no-schedule``,
``build_setup``).  ``run`` imports ``grassflow.cli`` untimed, then times
``cli.main(argv)`` until it has written PREFIX.csv and PREFIX.json; with
``--trace`` the layers are wrapped by ``tracer.Tracer`` around that call.
The last line of standard output is one JSON object with the measurements,
and with the ``time.monotonic()`` interval of each timed part (``*_at``), by
which the caller looks up how fast the CPU ran meanwhile (see probe.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import time
from pathlib import Path

from workloads import import_cli


def setup(args, argv) -> dict:
    at = time.monotonic()
    start = time.perf_counter()
    cli = import_cli(args.root)
    cfg = cli.load_config(cli.build_parser().parse_args(argv))
    tol = cli.build_tolerances(cfg)
    if not args.no_schedule:
        cli.build_setup(cfg, tol)
    setup_s = time.perf_counter() - start
    return {"rc": 0, "setup_s": setup_s, "setup_at": [at, time.monotonic()]}


def run(args, argv) -> dict:
    at = time.monotonic()
    start = time.perf_counter()
    cli = import_cli(args.root)
    import_s = time.perf_counter() - start
    import_at = [at, time.monotonic()]
    tracer = None
    if args.trace:
        from grassflow.dynamics import FramePath, ProjectorPath
        from tracer import Tracer, summarize
        tracer = Tracer(path_types=(ProjectorPath, FramePath))
    with tracer if tracer is not None else contextlib.nullcontext():
        at = time.monotonic()
        start = time.perf_counter()
        rc = cli.main(argv)
        wall_s = time.perf_counter() - start
        main_at = [at, time.monotonic()]
    result = {"rc": rc, "wall_s": wall_s, "main_at": main_at,
              "import_s": import_s, "import_at": import_at,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.write_spans(args.out + ".spans.jsonl")
        calls, inclusive, layer_self = summarize(tracer.spans)
        result.update(calls=calls, inclusive_s=inclusive, self_s=layer_self,
                      path_bytes=tracer.path_bytes, missing=tracer.missing)
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("command")
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--no-schedule", action="store_true")
    args = parser.parse_args()
    argv = [args.command, "--config", args.config, "--out", args.out]
    result = (setup if args.mode == "setup" else run)(args, argv)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
