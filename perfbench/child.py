"""One benchmark sample, in a fresh process: write a workload's inputs, run its commands.

Usage (run.py starts it with the working directory set to an empty run
directory): python3 child.py <workload> <seed> <traced 0|1>

Set-up is timed from the first line of this file: ``import astopo`` plus
writing the inputs. The commands then run one after another through
``astopo.cli.main`` with relative paths, so every output byte, manifests
included, depends only on the workload and the seed. The sample is written to
``result.json`` (and the raw spans to ``spans.json`` when traced).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _write(relpath: str, data: bytes) -> None:
    path = Path(relpath)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def main(workload: str, seed: int, traced: bool) -> int:
    sys.path.insert(0, str(SRC))
    import astopo.cli

    if not Path(astopo.__file__).resolve().is_relative_to(SRC):
        print(f"error: astopo imported from {astopo.__file__}, not {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(HERE))
    import corpus

    rec = corpus.make(workload, seed, sink=_write)
    setup_s = time.perf_counter() - T0

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    runs = []
    t_seq = time.perf_counter()
    for argv in corpus.commands(workload, rec):
        error = None
        t = time.perf_counter()
        try:
            rc = astopo.cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the sample
            rc = None
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        runs.append({"argv": argv, "s": time.perf_counter() - t, "rc": rc, "error": error})
    wall_s = time.perf_counter() - t_seq

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "commands": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = spans.summarize(tracer.spans)
        Path("spans.json").write_text(json.dumps(tracer.spans))
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"))
