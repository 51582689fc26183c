#!/usr/bin/env python3
"""Alternating A/B comparison of two benchmark commands.

Runs command A (the parent) and command B (the change) alternately for N
pairs, the order flipping every pair (A B, B A, A B, ...) so that a drift
in host load hits both sides alike. Each run's last stdout line must be a
JSON object; the named metric is read from its top level or from
``metrics.<name>`` (a number or an object with a ``value``). The child CPU
time of each run (user + system, from getrusage) is recorded too,
optionally divided by another JSON field (``--per attempted`` gives CPU
seconds per simbench repetition).

For each side it reports the median and quartiles of both, then how many
pairs B won and the verdict: B is better when it wins at least 90% of the
pairs (9 of 10) and its median beats A's by more than A's interquartile
range.

Example (two checkouts, simbench already built in each):

    python3 scripts/ab_pairs.py --pairs 10 --metric sim_us_per_ref_s \\
        --per attempted --a-dir ../parent --b-dir . \\
        -- python3 simbench/run.py --workload exp1_unreg --seed 1 --seconds 25

The same command runs in both directories; everything after the first
``--`` is passed on as is. The last stdout line is one JSON object with
every number.
"""

import argparse
import json
import resource
import shlex
import statistics
import subprocess
import sys

# Share of the pairs B must win to be called better.
WIN_SHARE = 0.9


def child_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def lookup(doc, name):
    """The number named `name` in a result document, or None."""
    for scope in (doc, doc.get("metrics", {})):
        if name in scope:
            v = scope[name]
            return v["value"] if isinstance(v, dict) else v
    return None


def run_once(cmd, cwd, metric, per):
    before = child_cpu_s()
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    cpu = child_cpu_s() - before
    if proc.returncode != 0:
        sys.exit(f"error: {shlex.join(cmd)} in {cwd} exited "
                 f"{proc.returncode}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        sys.exit(f"error: {shlex.join(cmd)} printed nothing")
    doc = json.loads(lines[-1])
    value = lookup(doc, metric)
    if value is None:
        sys.exit(f"error: no metric '{metric}' in the last line of "
                 f"{shlex.join(cmd)}")
    if per:
        count = lookup(doc, per)
        if not count:
            sys.exit(f"error: no nonzero '{per}' in the last line of "
                     f"{shlex.join(cmd)}")
        cpu /= count
    return float(value), cpu


def quartiles(xs):
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(a, b, higher_better):
    """Wins of B over A pair by pair, and whether B is better."""
    wins = sum(1 for x, y in zip(a, b) if (y > x if higher_better else y < x))
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    gap = (mb - ma) if higher_better else (ma - mb)
    better = wins >= WIN_SHARE * len(a) and gap > qa3 - qa1
    return wins, gap, better


def parse_args(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--metric", required=True,
                    help="JSON metric to compare (top level or metrics.*)")
    ap.add_argument("--better", choices=("higher", "lower"),
                    default="higher", help="direction of the metric")
    ap.add_argument("--per", default="",
                    help="JSON field to divide each run's CPU time by")
    ap.add_argument("--a-dir", default=".", help="working directory of A")
    ap.add_argument("--b-dir", default=".", help="working directory of B")
    ap.add_argument("cmd", nargs=argparse.REMAINDER,
                    help="the command to run on both sides, after --")
    args = ap.parse_args(argv)
    # Only the separator goes; a later -- belongs to the command.
    if args.cmd[:1] == ["--"]:
        args.cmd = args.cmd[1:]
    if not args.cmd or args.pairs < 1:
        ap.error("need a command after -- and --pairs >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    higher = args.better == "higher"

    runs = {"a": ([], []), "b": ([], [])}
    sides = {"a": (args.cmd, args.a_dir), "b": (args.cmd, args.b_dir)}
    for i in range(args.pairs):
        for side in ("ab" if i % 2 == 0 else "ba"):
            cmd, cwd = sides[side]
            value, cpu = run_once(cmd, cwd, args.metric, args.per)
            runs[side][0].append(value)
            runs[side][1].append(cpu)
            print(f"pair {i + 1:2d} {side.upper()}: {args.metric} "
                  f"{value:.6g}, cpu {cpu:.4g} s", file=sys.stderr)

    out = {"pairs": args.pairs, "metric": args.metric, "sides": {}}
    cpu_label = "cpu_s" + (f"_per_{args.per}" if args.per else "")
    for side in "ab":
        values, cpus = runs[side]
        out["sides"][side] = {
            args.metric: dict(zip(("q1", "median", "q3"), quartiles(values))),
            cpu_label: dict(zip(("q1", "median", "q3"), quartiles(cpus))),
        }
    for name, idx, better_high in ((args.metric, 0, higher),
                                   (cpu_label, 1, False)):
        wins, gap, better = verdict(runs["a"][idx], runs["b"][idx],
                                    better_high)
        ma = out["sides"]["a"][name]["median"]
        out[name] = {"b_wins": wins, "median_gap": gap,
                     "ratio": (out["sides"]["b"][name]["median"] / ma
                               if ma else None),
                     "b_better": better}
        print(f"{name}: A median {ma:.6g} "
              f"[{out['sides']['a'][name]['q1']:.6g}, "
              f"{out['sides']['a'][name]['q3']:.6g}], "
              f"B median {out['sides']['b'][name]['median']:.6g} "
              f"[{out['sides']['b'][name]['q1']:.6g}, "
              f"{out['sides']['b'][name]['q3']:.6g}]; "
              f"B wins {wins}/{args.pairs}, "
              f"{'B better' if better else 'not resolved'}",
              file=sys.stderr)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
