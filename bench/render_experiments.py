#!/usr/bin/env python3
"""Rewrites the measured tables of EXPERIMENTS.md from BENCH_paper.json.

Usage, from the repo root:

    python3 bench/render_experiments.py
        Replaces every table between a `<!-- paper_matrix:NAME -->` line
        and the matching `<!-- /paper_matrix:NAME -->` line with the table
        rendered from BENCH_paper.json. Text outside the markers is kept.

    python3 bench/render_experiments.py --check-counters OTHER.json
        Exits 1 unless BENCH_paper.json and OTHER.json hold the same rows
        with the same exact fields: every ExecCounters field, relaxations,
        answers, digest and corpus size. Wall times are not compared.

BENCH_paper.json is written by ./build/bench/paper_matrix.
"""

import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "BENCH_paper.json")
EXPERIMENTS = os.path.join(ROOT, "EXPERIMENTS.md")

KEY_FIELDS = ("figure", "op", "query", "algorithm", "scheme", "k", "mb",
              "threads")
EXACT_FIELDS = ("corpus_nodes", "relaxations_used", "answers", "digest",
                "counters")


def ms(row):
    """Median ± MAD wall time in milliseconds."""
    med, mad = row["wall_ms_median"], row["wall_ms_mad"]
    digits = 2 if med < 10 else 1
    return f"{med:.{digits}f} ± {mad:.{digits}f}"


def both(a, b, fn):
    return f"{fn(a)} / {fn(b)}"


def ctr(name):
    return lambda row: f"{row['counters'][name]:,}"


def relax(row):
    return str(row["relaxations_used"])


def ratio(num, den):
    if num is None:
        return "—"
    return f"{num['wall_ms_median'] / den['wall_ms_median']:.2f}×"


def ms_or_dash(row):
    return ms(row) if row else "—"


def grouped(rows, figure, key, column):
    """{key value: {column value: row}} for one figure, in file order."""
    out = {}
    for row in rows:
        if row["figure"] == figure:
            out.setdefault(row[key], {})[row[column]] = row
    return out


def markdown(header, body):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(cells) + " |" for cells in body]
    return "\n".join(lines)


def two_algo(rows, figure, key, key_header, a, b, extra):
    """One line per key value, comparing algorithms a and b."""
    body = []
    for value, cols in grouped(rows, figure, key, "algorithm").items():
        ra, rb = cols[a], cols[b]
        body.append([str(value), both(ra, rb, relax), ms(ra), ms(rb)] +
                    [fn(ra, rb) for _, fn in extra])
    header = [key_header, f"relax {a} / {b}", f"{a} ms", f"{b} ms"]
    return markdown(header + [h for h, _ in extra], body)


def dpo_sso(rows, figure, key, key_header):
    return two_algo(rows, figure, key, key_header, "DPO", "SSO", [
        ("SSO / DPO time", lambda d, s: ratio(s, d)),
        ("tuples DPO / SSO", lambda d, s: both(d, s, ctr("tuples_created"))),
    ])


def sso_hybrid(rows, figure, key, key_header):
    return two_algo(rows, figure, key, key_header, "SSO", "Hybrid", [
        ("Hybrid / SSO time", lambda s, h: ratio(h, s)),
        ("sorted items SSO", lambda s, h: ctr("score_sorted_items")(s)),
        ("tuples SSO / Hybrid", lambda s, h: both(s, h,
                                                 ctr("tuples_created"))),
    ])


def threads(rows):
    body = []
    for algo, cols in grouped(rows, "threads", "algorithm", "threads").items():
        one, four = cols[1], cols[4]
        body.append([algo, ms(one), ms(four), ratio(one, four),
                     ctr("tuples_created")(one)])
    return markdown(["Algorithm", "1 thread ms", "4 threads ms",
                     "speed-up", "tuples"], body)


def joins(rows):
    body = []
    for mb, cols in grouped(rows, "abl_join", "mb", "op").items():
        stack, nested = cols["stack_join"], cols.get("nested_loop_join")
        body.append([f"{mb:g}", f"{stack['answers']:,}", ms(stack),
                     ms_or_dash(nested), ratio(nested, stack)])
    return markdown(["MB", "pairs", "stack join ms", "nested loop ms",
                     "nested / stack"], body)


def bucketization(rows):
    body = []
    for k, cols in grouped(rows, "abl_bucketization", "k", "op").items():
        flat, buckets = cols["sso_flat"], cols["hybrid_buckets"]
        body.append([str(k), ms(flat), ms(buckets), ratio(buckets, flat),
                     ctr("score_sorted_items")(flat),
                     ctr("buckets_peak")(buckets),
                     both(flat, buckets, ctr("tuples_created")),
                     str(flat["answers"])])
    return markdown(["K", "SSO flat ms", "Hybrid buckets ms",
                     "buckets / flat", "sorted items (flat)",
                     "buckets peak", "tuples flat / buckets", "answers"],
                    body)


def ranking(rows):
    body = []
    for row in rows:
        if row["figure"] == "abl_ranking_schemes":
            body.append([row["scheme"], ms(row), relax(row),
                         ctr("tuples_created")(row),
                         ctr("plan_passes")(row), str(row["answers"])])
    return markdown(["Scheme", "Hybrid ms", "relax", "tuples",
                     "plan passes", "answers"], body)


def data_relaxation(rows):
    body = []
    for mb, cols in grouped(rows, "abl_data_relaxation", "mb", "op").items():
        build, plan = cols["closure_build"], cols["generalized_plan"]
        query = cols.get("closure_query")
        answers = [str(r["answers"]) for r in (query, plan) if r]
        body.append([
            f"{mb:g}", f"{build['corpus_nodes']:,}", f"{build['answers']:,}",
            ms(build), ms_or_dash(query), ms(plan), ratio(query, plan),
            " / ".join(answers)])
    return markdown(["MB", "tree nodes", "closure edges", "closure build ms",
                     "closure query ms", "plan query ms", "closure / plan",
                     "answers closure / plan"], body)


TABLES = {
    "fig09": lambda r: dpo_sso(r, "fig09", "query", "Query"),
    "fig10": lambda r: dpo_sso(r, "fig10", "k", "K"),
    "fig11": lambda r: dpo_sso(r, "fig11", "mb", "MB"),
    "fig12": lambda r: dpo_sso(r, "fig12", "mb", "MB"),
    "fig13": lambda r: sso_hybrid(r, "fig13", "query", "Query"),
    "fig14": lambda r: sso_hybrid(r, "fig14", "mb", "MB"),
    "fig15": lambda r: sso_hybrid(r, "fig15", "k", "K"),
    "fig16": lambda r: sso_hybrid(r, "fig16", "k", "K"),
    "threads": threads,
    "abl_join": joins,
    "abl_bucketization": bucketization,
    "abl_ranking_schemes": ranking,
    "abl_data_relaxation": data_relaxation,
}


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def render():
    bench = load(BENCH)
    with open(EXPERIMENTS, encoding="utf-8") as f:
        text = f.read()
    for name, fn in TABLES.items():
        pattern = re.compile(
            rf"(<!-- paper_matrix:{name} -->\n).*?(<!-- /paper_matrix:{name} -->)",
            re.S)
        if not pattern.search(text):
            sys.exit(f"EXPERIMENTS.md has no paper_matrix:{name} markers")
        table = fn(bench["rows"])
        text = pattern.sub(lambda m: m.group(1) + table + "\n" + m.group(2),
                           text)
    with open(EXPERIMENTS, "w", encoding="utf-8") as f:
        f.write(text)


def check_counters(other_path):
    def exact(path):
        return {tuple(row.get(k) for k in KEY_FIELDS):
                {k: row[k] for k in EXACT_FIELDS}
                for row in load(path)["rows"]}

    mine, other = exact(BENCH), exact(other_path)
    problems = [f"row only in {BENCH}: {key}" for key in mine
                if key not in other]
    problems += [f"row only in {other_path}: {key}" for key in other
                 if key not in mine]
    for key in mine.keys() & other.keys():
        for field in EXACT_FIELDS:
            if mine[key][field] != other[key][field]:
                problems.append(f"{key} {field}: {mine[key][field]} != "
                                f"{other[key][field]}")
    for p in sorted(problems):
        print(p)
    print(f"{len(mine)} rows compared, {len(problems)} differences")
    return 1 if problems else 0


def main(argv):
    if len(argv) == 1:
        render()
        return 0
    if len(argv) == 3 and argv[1] == "--check-counters":
        return check_counters(argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
