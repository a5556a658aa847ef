"""Record the SHA-256 of every answer the benchmark workloads can produce.

Computes each input of every workload palette (``workloads.PALETTES``)
once, without the serving layer's store or pool, and writes
``golden.json``: per palette, input digest -> answer SHA-256. ``run.py``
checks every answer it is served against this table, so a modeled
output that moves fails the benchmark. Re-record only when an answer is
meant to change (e.g. a report schema bump), and say why in the commit.

Usage (from the repository root)::

    python3 perfbench/record.py [--jobs 2]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _init() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _record_chunk(job: Tuple[str, List[Dict[str, Any]]]) -> List[Tuple[str, str]]:
    """Answer hashes for one slot's inputs (memos shared within a slot)."""
    _init()
    import workloads as wl
    from run import XGENE_WINNER, line_sha

    from repro.obs.run_report import validate_report
    from repro.sim.gebp_cachesim import clear_warm_memo

    palette, docs = job
    out = []
    for doc in docs:
        if palette == "tune":
            from repro.serve.store import ResultStore
            from repro.tune import tune_search

            tmp = tempfile.mkdtemp(prefix="perfbench-record-")
            try:
                answer = tune_search(**doc, store=ResultStore(tmp))
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            w = answer["winner"]["candidate"]
            if doc["machine"] == "xgene" and (w["mr"], w["nr"], w["kc"]) != (
                XGENE_WINNER
            ):
                raise SystemExit(f"xgene winner moved: {w}")
        else:
            from repro.serve.engine import compute_answer
            from repro.serve.query import query_key

            canonical, key = query_key(doc)
            answer = compute_answer(canonical, key)
            problems = validate_report(answer)
            if problems:
                raise SystemExit(f"invalid answer for {doc}: {problems}")
        out.append((wl.input_digest(doc),
                    line_sha(json.dumps(answer, sort_keys=True))))
    # RANDOM-replacement warm snapshots are tens of MB each; drop them
    # between slots so recording stays small.
    clear_warm_memo()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    _init()
    import workloads as wl

    jobs = []
    for palette, generate in wl.PALETTES.items():
        docs = list(generate())
        if len({wl.input_digest(doc) for doc in docs}) != len(docs):
            # A repeated input would be a hit in a cold workload.
            raise SystemExit(f"{palette} palette repeats an input")
        for start in range(0, len(docs), wl.VARIANTS):
            jobs.append((palette, docs[start:start + wl.VARIANTS]))
    golden: Dict[str, Dict[str, str]] = {name: {} for name in wl.PALETTES}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs, maxtasksperchild=8) as pool:
        for (palette, _), pairs in zip(jobs, pool.imap(_record_chunk, jobs)):
            golden[palette].update(pairs)
            print(f"{palette}: {len(golden[palette])} answers", flush=True)
    doc = {
        "answer_hash": "sha256(json.dumps(answer, sort_keys=True))[:32]",
        **{name: dict(sorted(table.items())) for name, table in golden.items()},
    }
    (HERE / "golden.json").write_text(json.dumps(doc, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
