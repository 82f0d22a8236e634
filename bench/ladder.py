"""Wall time of ``rokhlin`` commands on the north-star ladder of systems.

Run from the root of a checkout:

    python3 bench/ladder.py --base PARENT --change CHANGE --label NAME [RUNG ...]

Each ``RUNG`` is a rung name, optionally followed by ``:ITEM,ITEM,..``; an
item is ``towers``, ``decompose`` (run with ``--emit-decomposition``) or the
name of one ``verify`` check.  Without items a rung runs ``towers``,
``decompose`` and every registered check, one check per ``verify`` call;
without rungs every rung but Rudin-Shapiro runs.  Each (run, rung, side) is
one fresh process that imports the package from that checkout's ``src/``
and times each item as one in-process ``cli.main`` call, so every call pays
its own tower build.  A rung runs all its runs before the next rung starts,
so no small rung follows a large one, and the two sides alternate which
goes first from one run to the next.  Both sides read the same config files, written from this
checkout's ``tests/configs``.  With ``--base`` left out only the change
side runs, which is a smoke test of the ladder itself.

The result goes to ``OUT/BENCH_<label>.json``: the Python and numpy versions
and the core count, every run (seconds and exit code per item, a SHA-256 of
each item's output, peak RSS per process), and per (rung, item) the median
and quartiles of each side.  Each change process is paired with the base
process of the same run, which ran next to it, so the two share the host's
state of the moment: on a small shared host a process may run in one of
two speed phases about 1.8x apart, and every item of one process moves
with it.  Per (rung, item) the report gives the median of the paired
ratios change / base and how many pairs each side won; an item is flagged
``faster`` (``slower``) when the change wins (loses) at least nine tenths
of its pairs, so with few runs a flag says little (one run: one pair
decides).  ``same_output`` says whether both sides printed the same
bytes in every run.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "tests" / "configs"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

RUDIN_SHAPIRO = {"alphabet": ["a", "b", "c", "d"],
                 "rules": {"a": "ab", "b": "ac", "c": "db", "d": "dc"}}

# rung -> (config in tests/configs or a system, base-set spec or None for
# the config's own); the reference configs, period-doubling and Thue-Morse
# cylinders with taller towers, and the five-tower Rudin-Shapiro system of
# tests/conftest.py, whose boundaries and path overlaps are nonempty
RUNGS = {
    "fibonacci": ("fibonacci.json", None),
    "period_doubling": ("period_doubling.json", None),
    "thue_morse": ("thue_morse.json", None),
    "pd-101": ("period_doubling.json", "0=101"),
    "pd-10101": ("period_doubling.json", "0=10101"),
    "tm-0110": ("thue_morse.json", "0=0110"),
    "rs-a": (RUDIN_SHAPIRO, "0=a"),
}
SMALL = [name for name in RUNGS if name != "rs-a"]


def worker(config: str, items: list) -> None:
    """Time each item as one ``cli.main`` call and print one JSON line."""
    import rokhlin
    from rokhlin import cli

    result = {"rokhlin": rokhlin.__file__, "items": {}}
    for item in items or ["towers", "decompose", *cli.CHECKS]:
        argv = {"towers": ["towers"],
                "decompose": ["decompose", "--emit-decomposition"]}.get(
            item, ["verify", "--checks", item])
        text = io.StringIO()
        with redirect_stdout(text), redirect_stderr(text):
            start = time.perf_counter()
            code = cli.main(argv + ["--config", config])
            seconds = time.perf_counter() - start
        result["items"][item] = {
            "seconds": seconds, "exit": code,
            "sha256": hashlib.sha256(text.getvalue().encode()).hexdigest()}
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


def _write_config(directory: Path, rung: str) -> Path:
    source, y = RUNGS[rung]
    if isinstance(source, str):
        config = json.loads((CONFIGS / source).read_text())
    else:
        config = {"system": source, "variant": "full", "seed": 0}
    if y is not None:
        config["y"] = y
    path = directory / f"{rung}.json"
    path.write_text(json.dumps(config))
    return path


def _run_worker(checkout: Path, config: Path, items: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               **{var: "1" for var in THREAD_VARS})
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import ladder; "
            f"ladder.worker({str(config)!r}, {items!r})")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=checkout,
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"the worker in {checkout} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    src = (checkout / "src").resolve()
    if not Path(result["rokhlin"]).resolve().is_relative_to(src):
        raise SystemExit(f"imported {result['rokhlin']}, not from {src}")
    return result


def _quartiles(values: list) -> tuple:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def _summary(runs: list, sides: list) -> dict:
    """Per rung and item: each side's median and quartiles, the paired
    ratios and the flags they give, and whether every run printed the same
    bytes."""
    out = {}
    for run in runs:
        for item in run["items"]:
            out.setdefault(run["rung"], {}).setdefault(item, None)
    for rung, items in out.items():
        for item in items:
            mine = [r for r in runs if r["rung"] == rung]
            entry = {}
            for side in sides:
                times = [r["items"][item]["seconds"] for r in mine
                         if r["side"] == side]
                q1, median, q3 = _quartiles(times)
                entry[side] = {"median_s": median, "q1_s": q1, "q3_s": q3,
                               "runs": len(times)}
            if len(sides) == 2:
                pairs = {}
                for r in mine:
                    pairs.setdefault(r["run"], {})[r["side"]] = \
                        r["items"][item]["seconds"]
                ratios = [p["change"] / p["base"] for p in pairs.values()]
                won = sum(x < 1 for x in ratios)
                lost = sum(x > 1 for x in ratios)
                entry["paired"] = {"median_ratio": float(np.median(ratios)),
                                   "change_won": won, "base_won": lost,
                                   "pairs": len(ratios)}
                entry["faster"] = won >= 0.9 * len(ratios)
                entry["slower"] = lost >= 0.9 * len(ratios)
            entry["same_output"] = len({(r["items"][item]["sha256"],
                                         r["items"][item]["exit"])
                                        for r in mine}) == 1
            items[item] = entry
    return out


def _commit(checkout: Path):
    done = subprocess.run(["git", "-C", str(checkout), "describe", "--always",
                           "--dirty"], capture_output=True, text=True)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="checkout to compare with")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="checkout under test (default: this one)")
    parser.add_argument("--runs", type=int, default=3,
                        help="processes per rung and side (default: 3)")
    parser.add_argument("--label", default="ladder",
                        help="the result goes to BENCH_<label>.json")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory of the result (default: .)")
    parser.add_argument("rungs", nargs="*", metavar="RUNG[:ITEM,..]")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be positive")
    plan = []
    for spec in args.rungs or SMALL:
        rung, _, items = spec.partition(":")
        if rung not in RUNGS:
            parser.error(f"unknown rung {rung!r}; rungs: {', '.join(RUNGS)}")
        plan.append((rung, [item for item in items.split(",") if item]))
    checkouts = {"change": args.change.resolve()}
    if args.base is not None:
        checkouts = {"base": args.base.resolve(), **checkouts}
    for path in checkouts.values():
        if not (path / "src" / "rokhlin").is_dir():
            parser.error(f"{path} is not a checkout: no src/rokhlin")
    sides = list(checkouts)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        configs = {rung: _write_config(Path(tmp), rung) for rung, _ in plan}
        for rung, items in plan:
            for k in range(args.runs):
                for side in (sides if k % 2 == 0 else sides[::-1]):
                    result = _run_worker(checkouts[side], configs[rung], items)
                    runs.append({"run": k, "rung": rung, "side": side,
                                 "items": result["items"],
                                 "peak_rss_mb": result["peak_rss_mb"]})
                    total = sum(v["seconds"] for v in result["items"].values())
                    print(f"run {k} {rung:<16} {side:<6} {total:8.3f} s",
                          file=sys.stderr)
    summary = _summary(runs, sides)
    report = {
        "label": args.label,
        "host": {"python": platform.python_version(),
                 "numpy": np.__version__, "cores": os.cpu_count(),
                 "machine": platform.machine()},
        "commits": {side: _commit(path) for side, path in checkouts.items()},
        "plan": [{"rung": rung, "items": items or "all"} for rung, items in plan],
        "runs": runs,
        "summary": summary,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for rung, items in summary.items():
        for item, entry in items.items():
            cells = "  ".join(f"{side} {entry[side]['median_s']:8.3f} s"
                              for side in sides)
            if "paired" in entry:
                paired = entry["paired"]
                cells += (f"  ratio {paired['median_ratio']:.3f}"
                          f" won {paired['change_won']}/{paired['pairs']}")
            flags = ("" if entry["same_output"] else "  OUTPUT DIFFERS") + (
                "  SLOWER" if entry.get("slower") else "") + (
                "  FASTER" if entry.get("faster") else "")
            print(f"{rung:<16} {item:<20} {cells}{flags}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
