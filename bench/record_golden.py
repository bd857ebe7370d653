"""Record golden.json: the SHA-256 of result.json and of every SVG for the
golden block of each workload and for the built-ins.

    python3 bench/record_golden.py

Run it at a commit whose outputs are known good; every benchmark run then
compares against these digests.  Outputs are meant to stay byte-identical,
so re-recording is a deliberate change to review.
"""

import json
import sys

import generators as gen
import run
from gate import output_digests, scenario_key


def main() -> int:
    run.load_program()
    runner = run.InProcess()
    todo = [gen.builtin_scenario(name) for name in gen.BUILTINS]
    for workload in gen.WORKLOADS:
        todo += gen.block(workload, gen.GOLDEN_SEED, 0)
    digests = {}
    for sc in todo:
        if sc["expect"].get("digests_of") or sc["expect"]["exit"] != 0:
            continue
        _, outcome = runner.run(sc)
        if outcome["error"] is not None:
            sys.exit(f"{sc['name']} raised {outcome['error']}: {outcome['stderr']}")
        digests[scenario_key(sc)] = output_digests(outcome["result"], outcome["figures"])
    data = {"recorded_with": run.environment(), "digests": digests}
    with open(run.BENCH / "golden.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
