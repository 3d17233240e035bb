"""Write (or check) ``expected.json``: every op's output digest.

Each op runs twice in this process: on the reference paths (the
instruction-at-a-time interpreter, per-op retirement, the full cache walk)
and on the fast paths the benchmark measures.  The file is written only when
the two digests agree for every op, so it pins the modelled results
themselves: a speed-only change that alters a cycle count, an instruction
count or a sample fails the benchmark's ``ok_ratio``.

Run it through the coordinator, which scrubs the environment::

    python3 steadybench/run.py --write-expected     # regenerate
    python3 steadybench/run.py --check-expected     # must be byte-identical
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import ops as bench_ops

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "expected.json")
FAST_PATHS = ("fast_dispatch", "block_delta", "fast_cache")


def run_digest(request: dict, reference: bool) -> str:
    from repro.api import RunRequest, Session
    from repro.workloads import registry
    if reference:
        request = json.loads(json.dumps(request))
        request["spec"].update({name: False for name in FAST_PATHS})
    run_request = RunRequest.from_dict(request)
    run = Session(run_request.platform,
                  vendor_driver=run_request.vendor_driver).run(
        registry.create(run_request.workload, **run_request.params),
        run_request.spec)
    return bench_ops.digest(run.deterministic_dict())


def render() -> str:
    entries = {}
    disagree = []
    for name, op in sorted(bench_ops.all_ops().items()):
        reference = run_digest(op.request, reference=True)
        fast = run_digest(op.request, reference=False)
        if reference != fast:
            disagree.append(name)
        entries[name] = {"request": op.request, "digest": reference}
    if disagree:
        raise SystemExit("fast paths disagree with the reference paths on: "
                         + ", ".join(disagree))
    document = {"schema": "steadybench-expected/v1",
                "reference_paths_off": list(FAST_PATHS),
                "ops": entries}
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="regenerate in memory and compare byte for byte")
    args = parser.parse_args(argv)
    text = render()
    if args.check:
        with open(PATH, encoding="utf-8") as handle:
            if handle.read() != text:
                print("expected.json does not regenerate byte-identical",
                      file=sys.stderr)
                return 1
        print("expected.json regenerates byte-identical")
        return 0
    with open(PATH, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {len(bench_ops.all_ops())} op digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
