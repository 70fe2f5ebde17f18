"""Record the output digests that the default seed must reproduce.

    python3 perfbench/record_expected.py

Runs one job per input of every workload in this process and rewrites
``expected.json``.  Run it only when an output is meant to change; the
benchmark then fails any job whose output differs from the recorded one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from tempfile import TemporaryDirectory

import corpus
import run
import worker


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import contrascale.cli as cli

    recorded = {}
    run.STATE.mkdir(exist_ok=True)
    for workload in corpus.WORKLOADS:
        with TemporaryDirectory(dir=run.STATE) as tmp:
            work = Path(tmp)
            inputs = run.write_corpus(workload, run.DEFAULT_SEED, work)
            items = json.loads((work / "corpus.json").read_text())["inputs"]
            outputs = []
            for item in items:
                files = {k: str(work / v) for k, v in item["files"].items()}
                _, sinks, codes = worker.run_job(cli.main, worker.job_steps(workload, files, item))
                if codes != [0] * len(codes):
                    raise SystemExit(f"{workload}: exit codes {codes}")
                outputs.append(worker.output_digest(files, sinks)[0])
        recorded[workload] = {"inputs": inputs, "outputs": outputs}
        print(workload, len(outputs), file=sys.stderr)
    (run.HERE / "expected.json").write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
