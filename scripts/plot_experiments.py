#!/usr/bin/env python3
"""Plot the CSV outputs of the bench_exp* binaries.

Usage:
    # run the benches first; they drop exp*.csv next to the binaries
    cd build/bench && for b in ./bench_exp*; do $b; done
    python3 ../../scripts/plot_experiments.py build/bench --out plots/

    # per-hop latency breakdown from a run bundle's metrics snapshot
    # (fgqos_sim --out run)
    python3 scripts/plot_experiments.py hops run/metrics.json --out plots/

    # victim x aggressor interference heatmap (fgqos_sim --out run --blame)
    python3 scripts/plot_experiments.py blame run/blame.csv --out plots/
    python3 scripts/plot_experiments.py blame run/blame.csv --cause dram_refresh

    # per-window metric trajectories (--timeseries), with the decision
    # journal's actions (--journal) overlaid as vertical markers
    python3 scripts/plot_experiments.py timeseries run/timeseries.csv \
        --series 'qos.*.credit,port.cpu.*' --journal run/journal.jsonl

Produces one PNG per known experiment CSV. Only matplotlib is required;
files that are absent are skipped, so partial runs plot fine.
"""
import argparse
import csv
import fnmatch
import json
import os
import sys


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def parse_num(cell):
    """Extracts the leading float from cells like '1.97x' or '150.80 us'."""
    s = str(cell).strip()
    num = ""
    for ch in s:
        if ch.isdigit() or ch in ".-+e":
            num += ch
        else:
            break
    try:
        return float(num)
    except ValueError:
        return None


def plot_exp1(rows, ax):
    series = {}
    for r in rows:
        key = f"{r['workload']}/{r['aggressor']}"
        series.setdefault(key, ([], []))
        series[key][0].append(int(r["n_gens"]))
        series[key][1].append(parse_num(r["slowdown"]))
    for key, (x, y) in sorted(series.items()):
        ax.plot(x, y, marker="o", label=key)
    ax.set_xlabel("active DMA masters")
    ax.set_ylabel("critical slowdown (x)")
    ax.set_title("EXP1: unregulated interference")
    ax.legend(fontsize=7)


def plot_exp2(rows, ax):
    x = [parse_num(r["target"]) for r in rows]
    hw = [parse_num(r["hw_err_%"]) for r in rows]
    sw = [parse_num(r["sw_err_%"]) for r in rows]
    ax.semilogx(x, hw, marker="o", label="hw tightly-coupled")
    ax.semilogx(x, sw, marker="s", label="sw memguard")
    ax.set_xlabel("target bandwidth")
    ax.set_ylabel("relative error (%)")
    ax.set_title("EXP2: regulation accuracy")
    ax.legend()


def plot_exp5(rows, ax):
    schemes = {}
    for r in rows:
        schemes.setdefault(r["scheme"], ([], []))
        schemes[r["scheme"]][0].append(parse_num(r["best_effort_GB/s"]))
        schemes[r["scheme"]][1].append(parse_num(r["slowdown_p99"]))
    for scheme, (x, y) in sorted(schemes.items()):
        ax.plot(x, y, marker="o", label=scheme)
    ax.axhline(1.15, linestyle="--", linewidth=0.8)
    ax.set_xlabel("best-effort bandwidth (GB/s)")
    ax.set_ylabel("critical p99 slowdown (x)")
    ax.set_title("EXP5: guarantee vs. utilisation frontier")
    ax.legend(fontsize=7)


def plot_exp8(rows, ax):
    x = list(range(len(rows)))
    y = [parse_num(r["overshoot_%"]) for r in rows]
    labels = [r["observation_lag"] for r in rows]
    ax.bar(x, y)
    ax.set_xticks(x, labels, rotation=30, fontsize=7)
    ax.set_ylabel("budget overshoot per window (%)")
    ax.set_title("EXP8: coupling-tightness ablation")


KNOWN = {
    "exp1_interference.csv": plot_exp1,
    "exp2_accuracy.csv": plot_exp2,
    "exp5_utilization.csv": plot_exp5,
    "exp8_coupling_ablation.csv": plot_exp8,
}

# Hop order matches the transaction lifecycle: issue -> grant -> xbar ->
# DRAM queue -> DRAM service -> response.
HOPS = ["gate", "xbar", "dram_queue", "dram_service", "response"]


def load_hop_breakdown(path, stat):
    """Reads a bundle's metrics.json; returns {port: [stat per hop in ns]}."""
    with open(path) as fh:
        doc = json.load(fh)
    ports = {}
    for name, m in doc["metrics"].items():
        parts = name.split(".")
        # port.<name>.hop.<hop>_ps
        if (len(parts) == 4 and parts[0] == "port" and parts[2] == "hop"
                and m.get("type") == "histogram"):
            hop = parts[3][:-len("_ps")]
            if hop in HOPS:
                ports.setdefault(parts[1], {})[hop] = m.get(stat, 0) / 1e3
    return {p: [hops.get(h, 0.0) for h in HOPS] for p, hops in ports.items()}


def plot_hops(args, plt):
    stat = args.stat
    breakdown = load_hop_breakdown(args.metrics_json, stat)
    if not breakdown:
        sys.exit(f"no port.<name>.hop.* histograms in {args.metrics_json} "
                 "(run fgqos_sim with --out; its metrics.json has them)")
    fig, ax = plt.subplots(figsize=(6, 4))
    port_names = sorted(breakdown)
    bottoms = [0.0] * len(port_names)
    for i, hop in enumerate(HOPS):
        vals = [breakdown[p][i] for p in port_names]
        ax.bar(port_names, vals, bottom=bottoms, label=hop)
        bottoms = [b + v for b, v in zip(bottoms, vals)]
    ax.set_ylabel(f"read latency {stat} (ns)")
    ax.set_title("Per-hop latency breakdown")
    ax.legend(fontsize=8)
    fig.tight_layout()
    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, f"hops_{stat}.png")
    fig.savefig(out, dpi=150)
    print("wrote", out)


def load_blame(path, cause=None, point=None):
    """Reads a bundle's blame.csv; returns (victims, aggressors, matrix).

    Sums the cumulative `total` rows over causes (or one cause), so both
    fgqos_sim output and one point of a merged fgqos_sweep file (selected
    with --point) plot the same way. The matrix is stall in ms.
    """
    victims, aggressors = [], []
    cells = {}
    for r in read_csv(path):
        if r["scope"] != "total":
            continue
        if point is not None and r.get("point") != point:
            continue
        if cause is not None and r["cause"] != cause:
            continue
        v, a = r["victim"], r["aggressor"]
        if v not in victims:
            victims.append(v)
        if a not in aggressors:
            aggressors.append(a)
        cells[(v, a)] = cells.get((v, a), 0.0) + float(r["stall_ps"]) / 1e9
    matrix = [[cells.get((v, a), 0.0) for a in aggressors] for v in victims]
    return victims, aggressors, matrix


def plot_blame(args, plt):
    victims, aggressors, matrix = load_blame(args.blame_csv, args.cause,
                                             args.point)
    if not victims:
        sys.exit(f"no matching blame rows in {args.blame_csv} "
                 "(run with --out DIR --blame; check --cause/--point "
                 "spelling)")
    fig, ax = plt.subplots(figsize=(5.5, 4.5))
    im = ax.imshow(matrix, cmap="YlOrRd", aspect="auto")
    ax.set_xticks(range(len(aggressors)), aggressors, rotation=30, fontsize=8)
    ax.set_yticks(range(len(victims)), victims, fontsize=8)
    ax.set_xlabel("aggressor (blamed)")
    ax.set_ylabel("victim (stalled)")
    title = "Interference blame (stall ms)"
    if args.cause:
        title += f" — {args.cause}"
    ax.set_title(title, fontsize=10)
    for i, row in enumerate(matrix):
        for j, val in enumerate(row):
            if val > 0:
                ax.text(j, i, f"{val:.2f}", ha="center", va="center",
                        fontsize=7)
    fig.colorbar(im, ax=ax, shrink=0.8)
    fig.tight_layout()
    os.makedirs(args.out, exist_ok=True)
    tag = f"_{args.cause}" if args.cause else ""
    out = os.path.join(args.out, f"blame{tag}.png")
    fig.savefig(out, dpi=150)
    print("wrote", out)


def load_timeseries(path, series_globs=None, point=None):
    """Reads a bundle's timeseries.csv; returns {series: (t_us, values)}.

    Skips `#` manifest comments and handles both fgqos_sim output and a
    merged fgqos_sweep file (leading `point` column, selected with
    --point). Times are window midpoints in microseconds.
    """
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    if rows and "point" in rows[0] and point is None:
        points = sorted({r["point"] for r in rows})
        sys.exit(f"{path} is a merged sweep file; pick one of "
                 f"--point {{{','.join(points)}}}")
    globs = ([g.strip() for g in series_globs.split(",") if g.strip()]
             if series_globs else None)
    data = {}
    for r in rows:
        if point is not None and r.get("point") != point:
            continue
        name = r["series"]
        if globs and not any(fnmatch.fnmatchcase(name, g) for g in globs):
            continue
        t = (float(r["start_ps"]) + float(r["end_ps"])) / 2 / 1e6
        xs, ys = data.setdefault(name, ([], []))
        xs.append(t)
        ys.append(float(r["value"]))
    return data


def load_journal(path):
    """Reads a bundle's journal.jsonl; returns [(t_us, component, action)].

    The manifest line and the `dropped` trailer carry no `seq` key and
    are skipped.
    """
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if "seq" not in doc:
                continue
            events.append((doc["at_ps"] / 1e6, doc["component"],
                           doc["action"]))
    return events


def plot_timeseries(args, plt):
    data = load_timeseries(args.timeseries_csv, args.series, args.point)
    if not data:
        sys.exit(f"no matching series in {args.timeseries_csv} "
                 "(run with --out DIR --timeseries; check --series/--point)")
    fig, ax = plt.subplots(figsize=(7, 4))
    for name in sorted(data):
        xs, ys = data[name]
        ax.plot(xs, ys, marker=".", markersize=3, linewidth=1, label=name)
    if args.journal:
        events = load_journal(args.journal)
        for t, _component, _action in events:
            ax.axvline(t, color="grey", linestyle="--", linewidth=0.6,
                       alpha=0.5)
        if events:
            ax.set_title(f"Windowed time series ({len(events)} journaled "
                         "decisions marked)", fontsize=10)
    else:
        ax.set_title("Windowed time series", fontsize=10)
    ax.set_xlabel("time (us)")
    ax.set_ylabel("per-window value")
    ax.legend(fontsize=7)
    fig.tight_layout()
    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, "timeseries.png")
    fig.savefig(out, dpi=150)
    print("wrote", out)


def load_serving(path, tenant=None):
    """Reads a serving CSV; returns ({group: (x, attain, p99_us)}, xlabel).

    Handles both bench_serving's serving_defense.csv (one line per QoS
    scheme, x = offered load in kqps) and the merged serving.csv of an
    fgqos_sweep bundle (one line per tenant, x = the sweep-point knob
    value, optionally filtered with --tenant).
    """
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    if not rows:
        return {}, ""
    series = {}
    if "scheme" in rows[0]:  # bench_serving defense CSV
        for r in rows:
            if r["attainment_pct"] == "n/a":  # tenant finished no requests
                continue
            xs, att, p99 = series.setdefault(r["scheme"], ([], [], []))
            xs.append(float(r["load_qps"]) / 1e3)
            att.append(float(r["attainment_pct"]))
            p99.append(float(r["p99_us"]))
        return series, "offered load (kqps)"
    for r in rows:  # merged sweep serving CSV
        if tenant is not None and r["tenant"] != tenant:
            continue
        if r["attainment_pct"] == "n/a":  # tenant finished no requests
            continue
        xs, att, p99 = series.setdefault(r["tenant"], ([], [], []))
        xs.append(parse_num(r["point"]))
        att.append(float(r["attainment_pct"]))
        p99.append(float(r["p99_ps"]) / 1e6)
    return series, "sweep point"


def plot_serving(args, plt):
    series, xlabel = load_serving(args.serving_csv, args.tenant)
    if not series:
        hint = f" for tenant '{args.tenant}'" if args.tenant else ""
        sys.exit(f"no serving rows in {args.serving_csv}{hint} (run "
                 "bench_serving, or fgqos_sweep --serving-spec ... --out DIR)")
    fig, (ax_att, ax_p99) = plt.subplots(1, 2, figsize=(9, 4))
    for key in sorted(series):
        xs, att, p99 = series[key]
        ax_att.plot(xs, att, marker="o", label=key)
        ax_p99.plot(xs, p99, marker="o", label=key)
    ax_att.axhline(99.0, linestyle="--", linewidth=0.8, color="grey")
    ax_att.set_xlabel(xlabel)
    ax_att.set_ylabel("SLO attainment (%)")
    ax_att.set_title("Attainment vs. load", fontsize=10)
    ax_att.legend(fontsize=7)
    ax_p99.set_xlabel(xlabel)
    ax_p99.set_ylabel("request p99 (us)")
    ax_p99.set_title("Request p99 vs. load", fontsize=10)
    ax_p99.legend(fontsize=7)
    fig.tight_layout()
    os.makedirs(args.out, exist_ok=True)
    tag = f"_{args.tenant}" if args.tenant else ""
    out = os.path.join(args.out, f"serving{tag}.png")
    fig.savefig(out, dpi=150)
    print("wrote", out)


def load_bank(path):
    """Reads bench_exp13's exp13_bank_regulation.csv; returns
    {scheme: (load_kqps, attain, p99_us, bulk_gbps)}."""
    series = {}
    for r in read_csv(path):
        if r["attainment_pct"] == "n/a":  # tenant finished no requests
            continue
        xs, att, p99, bulk = series.setdefault(
            r["scheme"], ([], [], [], []))
        xs.append(float(r["load_qps"]) / 1e3)
        att.append(float(r["attainment_pct"]))
        p99.append(float(r["p99_us"]))
        bulk.append(float(r["bulk_gbps"]))
    return series


def plot_bank(args, plt):
    series = load_bank(args.bank_csv)
    if not series:
        sys.exit(f"no bank-regulation rows in {args.bank_csv} "
                 "(run bench_exp13_bank_regulation)")
    fig, (ax_att, ax_p99, ax_bulk) = plt.subplots(1, 3, figsize=(12.5, 4))
    for key in sorted(series):
        xs, att, p99, bulk = series[key]
        ax_att.plot(xs, att, marker="o", label=key)
        ax_p99.plot(xs, p99, marker="o", label=key)
        ax_bulk.plot(xs, bulk, marker="o", label=key)
    ax_att.axhline(99.0, linestyle="--", linewidth=0.8, color="grey")
    ax_att.set_ylabel("SLO attainment (%)")
    ax_att.set_title("Attainment vs. load", fontsize=10)
    ax_p99.set_ylabel("request p99 (us)")
    ax_p99.set_title("Request p99 vs. load", fontsize=10)
    ax_bulk.set_ylabel("total bulk throughput (GB/s)")
    ax_bulk.set_title("Admitted bulk vs. load", fontsize=10)
    for ax in (ax_att, ax_p99, ax_bulk):
        ax.set_xlabel("offered load (kqps)")
        ax.legend(fontsize=7)
    fig.tight_layout()
    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, "bank_regulation.png")
    fig.savefig(out, dpi=150)
    print("wrote", out)


def load_profile(path):
    """Reads a host-profile artifact (a bundle's profile.json, or the
    'profile' section spliced into BENCH_micro.json, or a folded-stack
    file); returns (tags, total_cycles) with tags = {name: cycles}."""
    with open(path) as f:
        text = f.read()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        prof = doc.get("profile", doc)
        tags = {t["name"]: int(t["cycles"]) for t in prof["tags"]}
        total = int(prof.get("total_cycles", 0)) or sum(tags.values())
        return tags, total
    tags = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        frames, _, cycles = line.rpartition(" ")
        tags[frames.split(";")[-1]] = (
            tags.get(frames.split(";")[-1], 0) + int(cycles))
    return tags, sum(tags.values())


def plot_profile(args, plt):
    tags_a, total_a = load_profile(args.profile)
    if not tags_a:
        sys.exit(f"no tags in {args.profile}")
    if args.baseline:
        # Delta view: share movement per tag, fresh minus baseline.
        tags_b, total_b = load_profile(args.baseline)
        names = sorted(set(tags_a) | set(tags_b),
                       key=lambda n: -(tags_a.get(n, 0) / total_a -
                                       tags_b.get(n, 0) / max(total_b, 1)))
        deltas = [100.0 * (tags_a.get(n, 0) / total_a -
                           tags_b.get(n, 0) / max(total_b, 1))
                  for n in names]
        fig, ax = plt.subplots(figsize=(7, 0.35 * len(names) + 1.5))
        colors = ["firebrick" if d > 0 else "steelblue" for d in deltas]
        ax.barh(range(len(names)), deltas, color=colors)
        ax.set_yticks(range(len(names)))
        ax.set_yticklabels(names, fontsize=7)
        ax.invert_yaxis()
        ax.axvline(0.0, color="grey", linewidth=0.8)
        ax.set_xlabel("cycle-share delta vs. baseline (pp)")
        ax.set_title("Host hot-path share movement", fontsize=10)
        name = "profile_delta.png"
    else:
        names = sorted(tags_a, key=tags_a.get, reverse=True)[:args.top]
        shares = [100.0 * tags_a[n] / total_a for n in names]
        fig, ax = plt.subplots(figsize=(7, 0.35 * len(names) + 1.5))
        ax.barh(range(len(names)), shares, color="steelblue")
        ax.set_yticks(range(len(names)))
        ax.set_yticklabels(names, fontsize=7)
        ax.invert_yaxis()
        ax.set_xlabel("share of measured host cycles (%)")
        ax.set_title("Host hot-path attribution", fontsize=10)
        name = "profile_shares.png"
    fig.tight_layout()
    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, name)
    fig.savefig(out, dpi=150)
    print("wrote", out)


def import_pyplot():
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        return plt
    except ImportError:
        sys.exit("matplotlib is required: pip install matplotlib")


def main():
    # "hops"/"blame"/"timeseries" subcommands; anything else is the
    # legacy csv_dir form.
    if len(sys.argv) > 1 and sys.argv[1] == "timeseries":
        ap = argparse.ArgumentParser(
            prog="plot_experiments.py timeseries",
            description="per-window metric trajectories from a "
                        "bundle's timeseries.csv, optionally overlaying the "
                        "journal.jsonl decision timeline")
        ap.add_argument("timeseries_csv",
                        help="timeseries.csv of an fgqos_sim/fgqos_sweep "
                             "bundle (--out DIR --timeseries)")
        ap.add_argument("--series", default=None,
                        help="comma-separated series globs "
                             "(e.g. 'qos.*.credit,port.cpu.*')")
        ap.add_argument("--point", default=None,
                        help="sweep point to plot (merged sweep CSVs only)")
        ap.add_argument("--journal", default=None,
                        help="journal.jsonl of the same bundle; decisions "
                             "drawn as vlines")
        ap.add_argument("--out", default="plots", help="output directory")
        args = ap.parse_args(sys.argv[2:])
        plot_timeseries(args, import_pyplot())
        return

    if len(sys.argv) > 1 and sys.argv[1] == "serving":
        ap = argparse.ArgumentParser(
            prog="plot_experiments.py serving",
            description="SLO attainment and request-p99 vs. load from a "
                        "serving CSV (bench_serving's serving_defense.csv "
                        "or a sweep bundle's serving.csv)")
        ap.add_argument("serving_csv",
                        help="serving_defense.csv or a sweep bundle's "
                             "serving.csv")
        ap.add_argument("--tenant", default=None,
                        help="plot only this tenant (sweep CSVs only)")
        ap.add_argument("--out", default="plots", help="output directory")
        args = ap.parse_args(sys.argv[2:])
        plot_serving(args, import_pyplot())
        return

    if len(sys.argv) > 1 and sys.argv[1] == "bank":
        ap = argparse.ArgumentParser(
            prog="plot_experiments.py bank",
            description="per-bank vs. aggregate regulation: attainment, "
                        "request p99, and admitted bulk throughput vs. "
                        "load, one line per scheme")
        ap.add_argument("bank_csv",
                        help="bench_exp13's exp13_bank_regulation.csv")
        ap.add_argument("--out", default="plots", help="output directory")
        args = ap.parse_args(sys.argv[2:])
        plot_bank(args, import_pyplot())
        return

    if len(sys.argv) > 1 and sys.argv[1] == "profile":
        ap = argparse.ArgumentParser(
            prog="plot_experiments.py profile",
            description="host hot-path attribution from a bundle's "
                        "profile.json or profile.folded: top-tag cycle-share "
                        "bars, or share deltas against a --baseline profile")
        ap.add_argument("profile",
                        help="profile JSON or folded-stack file")
        ap.add_argument("--baseline", default=None,
                        help="baseline profile; plots share deltas instead")
        ap.add_argument("--top", type=int, default=20,
                        help="tags shown in the share view (default 20)")
        ap.add_argument("--out", default="plots", help="output directory")
        args = ap.parse_args(sys.argv[2:])
        plot_profile(args, import_pyplot())
        return

    if len(sys.argv) > 1 and sys.argv[1] == "blame":
        ap = argparse.ArgumentParser(
            prog="plot_experiments.py blame",
            description="victim x aggressor stall heatmap from a "
                        "bundle's blame.csv")
        ap.add_argument("blame_csv", help="blame.csv of an fgqos_sim/"
                                          "fgqos_sweep bundle (--blame)")
        ap.add_argument("--cause", default=None,
                        help="restrict to one cause (e.g. dram_bus_turnaround)")
        ap.add_argument("--point", default=None,
                        help="sweep point to plot (merged sweep CSVs only)")
        ap.add_argument("--out", default="plots", help="output directory")
        args = ap.parse_args(sys.argv[2:])
        plot_blame(args, import_pyplot())
        return

    if len(sys.argv) > 1 and sys.argv[1] == "hops":
        ap = argparse.ArgumentParser(
            prog="plot_experiments.py hops",
            description="per-hop latency breakdown from a bundle's "
                        "metrics.json")
        ap.add_argument("metrics_json", help="metrics JSON snapshot")
        ap.add_argument("--stat", default="mean",
                        choices=["mean", "p50", "p90", "p99", "p999", "max"])
        ap.add_argument("--out", default="plots", help="output directory")
        args = ap.parse_args(sys.argv[2:])
        plot_hops(args, import_pyplot())
        return

    ap = argparse.ArgumentParser()
    ap.add_argument("csv_dir", help="directory containing exp*.csv")
    ap.add_argument("--out", default="plots", help="output directory")
    args = ap.parse_args()
    plt = import_pyplot()

    os.makedirs(args.out, exist_ok=True)
    made = 0
    for name, fn in KNOWN.items():
        path = os.path.join(args.csv_dir, name)
        if not os.path.exists(path):
            continue
        fig, ax = plt.subplots(figsize=(5.5, 4))
        fn(read_csv(path), ax)
        fig.tight_layout()
        out = os.path.join(args.out, name.replace(".csv", ".png"))
        fig.savefig(out, dpi=150)
        print("wrote", out)
        made += 1
    if made == 0:
        sys.exit(f"no known experiment CSVs found in {args.csv_dir}")


if __name__ == "__main__":
    main()
