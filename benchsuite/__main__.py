"""The benchmark suite.

    python -m benchsuite run [--workload W ...] [--seed S] [--repeat R]
    python -m benchsuite pair BASE NEW [--workload W ...] [--seed S] [--repeat R]
    python -m benchsuite trace [--workload W ...] [--seed S]
    python -m benchsuite compare BASE NEW
    python -m benchsuite --regen-golden

``run`` measures each workload in a fresh child interpreter (one
``benchsuite/run.py`` per workload and seed, one at a time), prints every
metric by name and unit and writes ``benchsuite/results/BENCH_<w>.json``.
It exits non-zero if any op failed its golden check.  ``pair`` does the
same for two programs, the trees BASE and NEW, with this checkout's
benchmark: for each seed it runs both, alternating which goes first, and
writes ``results/pair/base/`` and ``results/pair/new/``.  ``trace`` runs
the separate traced pass and writes ``BENCH_trace_<w>.json``.
``compare`` takes two result files, or two directories of them, and
gives every end-to-end metric of every workload a verdict against the
bounds in ``BENCHMARK.json``; only sets that ``pair`` measured
interleaved can read better or worse.  ``--regen-golden`` rewrites
``golden.json`` from the sequential, uncached engine; nothing else
writes it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import uuid
from pathlib import Path

from benchsuite.stats import spread, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SCHEMA = 2

#: Fewest interleaved pairs a gain may be claimed on, and the share of
#: them the new side must win (the choosing-metrics method).
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(program: Path) -> dict:
    """What the numbers were measured on and against."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=program, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    src_loc = sum(
        len(path.read_text().splitlines())
        for path in (program / "src" / "repro").rglob("*.py")
    )
    return {
        "schema": SCHEMA,
        "cores": len(os.sched_getaffinity(0)),
        "program": str(program),
        "git_sha": sha,
        "python": platform.python_version(),
        "src_loc": src_loc,
    }


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool, trace_out: Path | None = None,
              program: Path = ROOT) -> tuple[dict, dict]:
    """One ``run.py`` child; its result object and its details line."""
    from benchsuite.run import DETAILS_PREFIX

    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--program", str(program),
    ]
    if smoke:
        argv.append("--smoke")
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (seed {seed}) failed: exit {proc.returncode}")
    details = next(
        json.loads(line[len(DETAILS_PREFIX):])
        for line in lines if line.startswith(DETAILS_PREFIX)
    )
    return json.loads(lines[-1]), details


def measure(workload: str, seed: int, seconds: float, smoke: bool,
            program: Path) -> dict:
    """One untraced run, as a result file records it."""
    result, details = run_child(
        workload, seed, seconds, False, smoke, program=program
    )
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "details": details,
    }


def bench_document(workload: str, runs: list[dict], seconds: float,
                   smoke: bool, program: Path = ROOT) -> dict:
    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    metrics = {
        name: {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **summary([run["metrics"][name] for run in runs]),
        }
        for name, m in spec.items()
    }
    # Numbers without a bound: explored states per second, the per-kind
    # latencies of serve-n2's misses and hits, the raw timings and the
    # host speed they were scaled by.
    extra = {
        "states_per_s": {
            "unit": "1/s",
            **summary([run["details"]["states_per_s"] for run in runs]),
        }
    }
    kinds = sorted(
        key for key in runs[0]["details"]
        if key.endswith("_ms") and key != "op_ms"
    )
    for key in kinds:
        for quantile in ("p50", "p99"):
            extra[f"{key[:-3]}_{quantile}_ms"] = {
                "unit": "ms",
                **summary([run["details"][key][quantile] for run in runs]),
            }
    for name in runs[0]["details"]["raw"]:
        extra[f"raw_{name}"] = {
            "unit": spec[name]["unit"],
            **summary([run["details"]["raw"][name] for run in runs]),
        }
    extra["host_speed"] = {
        "unit": "x",
        **summary([run["details"]["host_speed"]["median"] for run in runs]),
    }
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return {
        **environment(program),
        "workload": workload,
        "seeds": [run["seed"] for run in runs],
        "seconds": seconds,
        "smoke": smoke,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": metrics,
        "extra": extra,
        "runs": runs,
    }


def print_metric(name: str, summ: dict, unit: str) -> None:
    print(
        f"  {name:<24} {summ['median']:>12.6g} {unit:<6} "
        f"[q1 {summ['q1']:.6g}, q3 {summ['q3']:.6g}] n={summ['n']}"
    )


def write_document(out: Path, document: dict) -> bool:
    """Write and print one result file; whether every run was correct."""
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{document['workload']}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")
    print(
        f"{document['workload']}: {document['attempted']} ops, "
        f"failed_ratio {document['failed_ratio']:.6g} -> {path}"
    )
    for name, summ in document["metrics"].items():
        print_metric(name, summ, summ["unit"])
    for name, summ in document["extra"].items():
        print_metric(name, summ, summ["unit"])
    return all(run["correct"] for run in document["runs"])


def workloads_of(args, spec: dict) -> list[str]:
    return args.workload or [w["name"] for w in spec["workloads"]]


def cmd_run(args) -> int:
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    all_correct = True
    for workload in workloads_of(args, spec):
        runs = [
            measure(workload, seed, seconds, args.smoke, ROOT)
            for seed in range(args.seed, args.seed + args.repeat)
        ]
        document = bench_document(workload, runs, seconds, args.smoke)
        all_correct = write_document(args.out, document) and all_correct
    return 0 if all_correct else 1


def cmd_pair(args) -> int:
    """Both programs on every seed, back to back, alternating which runs
    first: a change in machine load, short or lasting minutes, then lands
    on both sides instead of on one set."""
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    programs = {"base": args.base.resolve(), "new": args.new.resolve()}
    session = uuid.uuid4().hex
    all_correct = True
    for workload in workloads_of(args, spec):
        runs: dict[str, list] = {"base": [], "new": []}
        for i, seed in enumerate(range(args.seed, args.seed + args.repeat)):
            for side in ("base", "new") if i % 2 == 0 else ("new", "base"):
                runs[side].append(
                    measure(workload, seed, seconds, args.smoke, programs[side])
                )
        for side, program in programs.items():
            document = bench_document(
                workload, runs[side], seconds, args.smoke, program
            )
            document["session"] = {"id": session, "side": side}
            print(f"[{side}]", end=" ")
            all_correct = write_document(args.out / side, document) and all_correct
    return 0 if all_correct else 1


def cmd_trace(args) -> int:
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    args.out.mkdir(parents=True, exist_ok=True)
    all_correct = True
    for workload in workloads_of(args, spec):
        path = args.out / f"BENCH_trace_{workload}.json"
        result, details = run_child(
            workload, args.seed, seconds, True, args.smoke, trace_out=path
        )
        document = json.loads(path.read_text())
        document.update(environment(ROOT), workload=workload, seed=args.seed,
                        seconds=seconds, smoke=args.smoke, details=details)
        path.write_text(json.dumps(document) + "\n")
        all_correct = all_correct and result["correct"]
        print(f"{workload}: {result['attempted']} ops traced -> {path}")
        for name, unit in units.items():
            print(f"  {name:<40} {result['metrics'][name]['value']:>12.6g} {unit}")
    return 0 if all_correct else 1


# -- compare -----------------------------------------------------------------

def load_results(path: Path) -> dict:
    """``{workload: BENCH document}`` from a file or a directory."""
    files = (
        sorted(p for p in path.glob("BENCH_*.json")
               if not p.name.startswith("BENCH_trace_"))
        if path.is_dir() else [path]
    )
    documents = [json.loads(p.read_text()) for p in files]
    return {doc["workload"]: doc for doc in documents}


def interleaved(base_doc: dict, new_doc: dict) -> bool:
    """Whether the two sets are the two sides of one ``pair`` session,
    so that their runs pair up seed by seed."""
    base, new = base_doc.get("session"), new_doc.get("session")
    return (
        base is not None and new is not None
        and base["id"] == new["id"] and base["side"] != new["side"]
        and base_doc["seeds"] == new_doc["seeds"]
    )


def pair_wins(base: dict, new: dict, better: str) -> int:
    """Pairs in which the new run reads better; ties count for neither."""
    sign = 1 if better == "lower" else -1
    return sum(
        sign * (b - n) > 0 for b, n in zip(base["samples"], new["samples"])
    )


def all_worse(base: dict, new: dict, better: str) -> bool:
    """Every new run reads worse than every base run."""
    if better == "lower":
        return min(new["samples"]) > max(base["samples"])
    return max(new["samples"]) < min(base["samples"])


def verdict(base: dict, new: dict, better: str, bound: float,
            paired: bool) -> tuple[str, float]:
    """``(verdict, change)``; *change* is the share by which the new
    median is worse (negative when better).

    Only *paired* sets, measured interleaved seed by seed, read better or
    worse: separate sets can sit in different load regimes of the
    machine, which move whole sets by more than the bounds.

    - better: at least ``MIN_PAIRS`` pairs, the new run wins
      ``WIN_SHARE`` of them, and the medians differ by more than the
      base's own quartile distance;
    - worse: the median is worse by more than the bound, with both
      spreads inside it, or every new run worse than every base run;
    - unresolved: fewer than three runs a side, a spread wider than the
      bound, or a move beyond the bound that the rules above do not
      confirm;
    - unchanged: otherwise.
    """
    sign = 1 if better == "lower" else -1
    change = sign * (new["median"] - base["median"]) / base["median"]
    if min(base["n"], new["n"]) < 3:
        return "unresolved", change
    noisy = max(spread(base), spread(new)) > bound
    if paired:
        pairs = min(base["n"], new["n"])
        if (
            change < 0 and pairs >= MIN_PAIRS
            and pair_wins(base, new, better) >= WIN_SHARE * pairs
            and abs(new["median"] - base["median"]) > base["q3"] - base["q1"]
        ):
            return "better", change
        if change > bound and (not noisy or all_worse(base, new, better)):
            return "worse", change
    if noisy or abs(change) > bound:
        return "unresolved", change
    return "unchanged", change


def compare(base_path: Path, new_path: Path) -> list[str]:
    spec = load_spec()
    base, new = load_results(base_path), load_results(new_path)
    lines = [
        f"{'workload':<14} {'metric':<12} {'base median [q1, q3] n':<34} "
        f"{'new median [q1, q3] n':<34} {'change':>8} {'new wins':>8}  verdict"
    ]

    def cell(summ: dict) -> str:
        return (f"{summ['median']:.4g} [{summ['q1']:.4g}, {summ['q3']:.4g}] "
                f"{summ['n']}")

    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            continue
        paired = interleaved(base[workload], new[workload])
        for m in spec["end_to_end"]:
            b = base[workload]["metrics"][m["name"]]
            n = new[workload]["metrics"][m["name"]]
            label, change = verdict(b, n, m["better"], m["bound"], paired)
            wins = f"{pair_wins(b, n, m['better'])}/{n['n']}" if paired else "-"
            note = f"bound {m['bound']:.0%}" + ("" if paired else ", not interleaved")
            lines.append(
                f"{workload:<14} {m['name']:<12} {cell(b):<34} {cell(n):<34} "
                f"{change:>+8.1%} {wins:>8}  {label} ({note})"
            )
    return lines


def regen_golden() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from benchsuite.workloads import GOLDEN_PATH, build_golden

    GOLDEN_PATH.write_text(json.dumps(build_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchsuite", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regen-golden", action="store_true",
        help="rewrite golden.json from the sequential, uncached engine",
    )
    sub = parser.add_subparsers(dest="command")
    for name in ("run", "pair", "trace"):
        p = sub.add_parser(name)
        if name == "pair":
            p.add_argument("base", type=Path, help="tree holding the base program's src/")
            p.add_argument("new", type=Path, help="tree holding the new program's src/")
        p.add_argument("--workload", action="append",
                       help="a workload to measure (repeatable; default all)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float,
                       help="measured seconds per run (default: BENCHMARK.json)")
        p.add_argument("--smoke", action="store_true", help="small inputs")
        p.add_argument("--out", type=Path,
                       default=RESULTS / "pair" if name == "pair" else RESULTS)
        if name != "trace":
            p.add_argument("--repeat", type=int, default=1,
                           help="runs per workload, with seeds S, S+1, ...")
    p = sub.add_parser("compare")
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.regen_golden:
        return regen_golden()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "pair":
        return cmd_pair(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "compare":
        print("\n".join(compare(args.base, args.new)))
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
