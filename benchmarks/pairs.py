"""Compare two commits on the perfbench workloads, as alternating pairs of runs.

Usage, from anywhere inside a git checkout:

    python3 benchmarks/pairs.py --parent REV --change REV --label NAME \
        --run regions:0:dev:1-10 --run regions:0:fresh:11-13 \
        --run regions:1:dev:1-3 --run paper:0:dev:1-3

Each side is exported with ``git archive`` into its own temporary directory,
and ``perfbench/run.py`` runs there, from that side's own files.  To measure
uncommitted work, stage it and pass ``--change $(git stash create)``, which
makes a commit object without touching the working tree, the index or any
branch.

Every run lasts the ``run_seconds`` of the change side's ``BENCHMARK.json``.

A ``--run`` is ``WORKLOAD:TRACE:SET:SEEDS``, where SEEDS is a list of seeds and
ranges such as ``1-10`` or ``1,4,7``.  Each seed is one pair: both sides run it
back to back, the parent first in even-numbered pairs and the change first
in odd ones, counting from 0 over the whole sequence, so a drift of the
machine's speed does not favour one side.  ``BENCH_<NAME>.json`` is written
to the root of the checkout: every result line, and per metric the median,
quartiles and IQR of each side, the pairs in which the change was better or
worse, and the ratio of the medians.
"""

from __future__ import annotations

import argparse
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

MACHINE_KEYS = ("python", "numpy", "blas", "opiniondyn_backend", "nproc", "cpus_usable",
                "machine", "blas_threads")
SUMMARY_NOTE = (
    "median and quartiles are numpy percentiles (linear interpolation) over the runs of "
    "each side; a pair counts as better or worse by the metric's direction in "
    "BENCHMARK.json; median_ratio is change median / parent median"
)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_run(text: str) -> tuple[str, int, str, list[int]]:
    workload, trace, label, seeds = text.split(":")
    if trace not in ("0", "1"):
        raise argparse.ArgumentTypeError(f"trace must be 0 or 1, got {trace!r}")
    return workload, int(trace), label, parse_seeds(seeds)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}


def summarize(parent: list[dict], change: list[dict], specs: list[dict]) -> dict:
    """Per-metric summary of paired result lines (``result["metrics"]``), in
    the order of ``specs`` (the ``BENCHMARK.json`` entries of one trace level)."""
    out = {}
    for spec in specs:
        name, higher = spec["name"], spec["better"] == "higher"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        entry = {
            "parent": quartiles(p),
            "change": quartiles(c),
            "change_better_pairs": sum((b > a) if higher else (b < a) for a, b in zip(p, c)),
            "change_worse_pairs": sum((b < a) if higher else (b > a) for a, b in zip(p, c)),
        }
        if entry["parent"]["median"] != 0.0:
            entry["median_ratio"] = entry["change"]["median"] / entry["parent"]["median"]
        if "bound" in spec:
            entry["bound"] = spec["bound"]
        out[name] = entry
    return out


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(root: Path, rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=root, check=True,
                             capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run_once(side: Path, workload: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {side}:\n{proc.stderr}")
    *_, detail, result = proc.stdout.strip().splitlines()
    return {"run": json.loads(detail), "result": json.loads(result)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--change", required=True, help="git revision of the change side")
    ap.add_argument("--label", required=True, help="output file is BENCH_<label>.json")
    ap.add_argument("--run", type=parse_run, action="append", required=True,
                    metavar="WORKLOAD:TRACE:SET:SEEDS")
    ap.add_argument("--change-note", default="", help="what the change is, for the file")
    ap.add_argument("--seeds-note", default="", help="which seed sets mean what, for the file")
    ap.add_argument("--machine-note", default="")
    args = ap.parse_args(argv)

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    revs = {side: _git(root, "rev-parse", "--short", getattr(args, side))
            for side in ("parent", "change")}
    runs, pair = [], 0
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        dirs = {side: Path(tmp) / side for side in revs}
        for side, d in dirs.items():
            _export(root, revs[side], d)
        bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"]
        for workload, trace, label, seeds in args.run:
            raw = {"parent": [], "change": []}
            for seed in seeds:
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    raw[side].append(_run_once(dirs[side], workload, seed, trace, seconds))
                print(f"pair {pair}: {workload} trace={trace} seed={seed} done", file=sys.stderr)
                pair += 1
            specs = bench["per_layer" if trace else "end_to_end"]
            summary = summarize([r["result"] for r in raw["parent"]],
                                [r["result"] for r in raw["change"]], specs)
            runs.append({"workload": workload, "trace": trace, "set": label, "seeds": seeds,
                         "pairs": len(seeds), "summary": summary, "raw": raw})

    env = runs[0]["raw"]["parent"][0]["run"]["env"]
    machine = {k: env[k] for k in MACHINE_KEYS if k in env}
    if args.machine_note:
        machine["note"] = args.machine_note
    doc = {
        "what": "perfbench/run.py result lines of the parent commit and of the change, run as "
                "alternating pairs on the same seed (parent first in even-numbered pairs, "
                "counting from 0 over the whole sequence), each side from a clean export of "
                "its tree",
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} "
                   "--trace T",
        "made_by": shlex.join(["python3", "benchmarks/pairs.py", *(argv or sys.argv[1:])]),
        "parent": revs["parent"],
        "change": f"{revs['change']} {args.change_note}".strip(),
        "machine": machine,
        "not_timed": "the CLI as a subprocess (interpreter start, import and argparse); "
                     "perfbench calls cli.main in process",
        "seeds_note": args.seeds_note,
        "summary_note": SUMMARY_NOTE,
        "runs": runs,
    }
    out = root / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
