#!/usr/bin/env python
"""Generate EXPERIMENTS.md from the bench JSON artifacts.

Run after ``pytest benchmarks/ --benchmark-only``:

    python benchmarks/make_experiments_md.py

Every paper table/figure gets a paper-vs-measured section; missing
artifacts are reported as not-yet-run.
"""

from __future__ import annotations

import json
from datetime import date
from pathlib import Path

from repro.bench import format_table
from repro.bench.harness import environment_info

RESULTS = Path(__file__).parent / "results"
OUT = Path(__file__).parent.parent / "EXPERIMENTS.md"


def load(name: str) -> dict | None:
    path = RESULTS / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def section(title: str, paper_claim: str, body: str) -> str:
    return f"## {title}\n\n**Paper:** {paper_claim}\n\n{body}\n"


def table1() -> str:
    d = load("table1_rtree_fraction")
    if d is None:
        return "_not run_"
    rows = [
        [r["dataset"], r["eps"], round(r["frac_index_time"], 3), r["n_points"]]
        for r in d["rows"]
    ]
    frac = [r["frac_index_time"] for r in d["rows"]]
    body = format_table(["Dataset", "eps", "frac index time", "n"], rows)
    body += (
        f"\n\nMeasured range: {min(frac):.2f}-{max(frac):.2f} (paper: "
        "0.48-0.72). The pure-Python R-tree traversal is relatively more "
        "expensive than the paper's C++ one, so the fraction is higher, "
        "but the claim — index search dominates sequential DBSCAN and "
        "shrinks as ε grows — reproduces."
    )
    return body


def table2() -> str:
    d = load("table2_kernel_efficiency")
    if d is None:
        return "_not run_"
    rows = []
    for r in d["rows"]:
        rows.append(
            [
                r["dataset"],
                round(r["eps"], 3),
                round(r.get("occupancy", 0), 1),
                round(r["global_ms"], 3),
                r["global_ngpu"],
                round(r["shared_ms"], 3),
                r["shared_ngpu"],
                round(r["shared_ms"] / r["global_ms"], 1),
            ]
        )
    body = format_table(
        ["Dataset", "eps*", "pts/cell", "global ms", "global nGPU",
         "shared ms", "shared nGPU", "shared/global"],
        rows,
    )
    body += (
        "\n\n*ε calibrated per dataset to the paper's grid occupancy "
        "(derived from its nGPU column). Reproduced: the global kernel "
        "wins everywhere; the shared kernel launches one block per "
        "non-empty cell (nGPU explodes) and degrades far more on the "
        "near-uniform SDSS regime than on skewed SW (paper: 2.4x on SW4 "
        "vs 21x on SDSS2; our cost model overshoots the ratio at reduced "
        "scale but preserves the ordering). Both kernels scan their "
        "candidates twice — a counting pass, then a writing pass into "
        "the row one atomic reserved — so no device sort follows them; "
        "against the append-and-sort kernels (one atomic per pair) the "
        "modeled kernel ms moved -5% to +34% (global: one atomic per "
        "row instead of per pair pays for most of the second scan) and "
        "+67% to +93% (shared)."
    )
    return body


def fig3() -> str:
    d = load("fig3_response_vs_eps")
    if d is None:
        return "_not run_"
    out = []
    for name, panel in d["panels"].items():
        series = {s["label"]: s for s in panel["series"]}
        ref, tot = series["Ref. Implementation"], series["Hybrid: Total Time"]
        gpu, db = series["Hybrid: GPU Time"], series["Hybrid: DBSCAN Time"]
        rows = []
        for i, x in enumerate(ref["x"]):
            rows.append(
                [
                    x,
                    round(ref["y"][i], 3),
                    round(tot["y"][i], 3),
                    round(gpu["y"][i], 3),
                    round(db["y"][i], 3),
                    round(ref["y"][i] / tot["y"][i], 1),
                ]
            )
        out.append(
            format_table(
                ["eps", "ref s", "hybrid s", "gpu s", "dbscan s", "speedup"],
                rows,
                title=f"{name}",
            )
        )
    body = "\n\n".join(out)
    body += (
        "\n\nReproduced: hybrid total time sits below the reference at "
        "every ε on every dataset (including small ε / small |D|, where "
        "GPUs are usually ill-suited — the paper's headline observation); "
        "response time grows with ε on both sides; building T and running "
        "DBSCAN-over-T are the two comparable phases."
    )
    return body


def fig4() -> str:
    d = load("fig4_table4_pipeline")
    if d is None:
        return "_not run_"
    rows = [
        [
            r["dataset"],
            round(r["ref_total_s"], 2),
            round(r["nonpipelined_s"], 2),
            round(r["pipelined_s"], 2),
            round(r["speedup_vs_ref"], 2),
            round(r["speedup_vs_nonpipelined"], 2),
        ]
        for r in d["rows"]
    ]
    body = format_table(
        ["Dataset", "ref s", "non-pipelined s", "pipelined s",
         "pipelined/ref", "pipelined/non-pipelined"],
        rows,
    )
    body += (
        "\n\nPaper: pipelined vs ref 3.36x-5.13x (growing with |D|, SDSS3 "
        "largest); pipelined vs non-pipelined 1.42x-1.66x. Reproduced "
        "shape: pipelining always helps and the hybrid dominates the "
        "reference with the largest dataset among the biggest gainers. "
        "Our vs-ref factors are larger (the vectorized table build "
        "outpaces the scalar Python reference more than CUDA outpaced "
        "C++), and our pipeline gain is smaller because DBSCAN-over-T is "
        "much cheaper than table construction here, so there is less to "
        "hide (the paper's two phases were near-equal)."
    )
    return body


def fig5() -> str:
    d = load("fig5_reuse_threads")
    if d is None:
        return "_not run_"
    rows = []
    for name, by_eps in d["panels"].items():
        for eps, r in by_eps.items():
            rows.append(
                [
                    name,
                    eps,
                    round(r["build_s"], 3),
                    round(r["dbscan_serial_s"], 3),
                    round(r["speedup_16_threads"], 2),
                ]
            )
    body = format_table(
        ["Dataset", "eps", "T build s", "16-variant DBSCAN serial s",
         "clustering speedup @16 threads"],
        rows,
    )
    body += (
        "\n\nPaper: 16-thread speedups 4.37x-6.07x (SW1) and 2.89x-5.1x "
        "(SDSS1), saturating with thread count. Reproduced: response time "
        "falls monotonically with threads (modeled on the simulated "
        "16-core host from measured per-variant durations) with speedups "
        "in the same band; the constant gap between total and "
        "DBSCAN-only curves is the single table build."
    )
    return body


def fig6() -> str:
    d = load("fig6_reuse_speedup")
    if d is None:
        return "_not run_"
    rows = [
        [r["dataset"], r["eps"], round(r["speedup"], 1)] for r in d["rows"]
    ]
    body = format_table(["Dataset", "eps", "speedup"], rows)
    body += (
        "\n\nPaper: 27x-54x. Reproduced shape — reusing one T for 16 "
        "minpts values beats clustering each variant with the reference "
        "by two orders of magnitude; our factors are larger for the same "
        "reason as Fig. 4 (bigger single-variant advantage), compounded "
        "16-fold. The reference total is extrapolated from 2 probe runs "
        "x 16 (see DESIGN.md §6)."
    )
    return body


def ablations() -> str:
    parts = []
    specs = [
        ("ablation_alpha", "α overestimation factor",
         "larger α plans more batches; all batch sizes stay within b_b"),
        ("ablation_overflow", "per-batch overflow recovery",
         "one injected overflow in an 8-batch SW4 build re-runs only the "
         "failed batch and yields the fault-free table. Last measured "
         "against the removed whole-table restart fallback (scale "
         "0.005): 0.282 s per-batch (0.074 kernel-s wasted) vs 0.447 s "
         "restart (0.536 kernel-s wasted)"),
        ("ablation_batch_order", "strided vs contiguous batches",
         "strided keeps |R_l| near-uniform on skewed SW data"),
        ("ablation_streams", "stream count",
         "3 streams hide transfers behind kernels; >3 gains ~nothing. "
         "With each ε-row written in place and no device sort, the "
         "modeled makespans at scale 0.005 went 6.39 / 4.92 / 4.68 / "
         "4.52 / 4.33 → 2.80 / 2.33 / 2.28 / 2.40 / 2.23 ms for 1 / 2 / "
         "3 / 4 / 6 streams"),
        ("ablation_block_size", "shared-kernel block size",
         "nGPU scales with block size; timing sensitive to density"),
        ("ablation_sample_fraction", "estimator fraction f",
         "f=1% estimates |R| within the α guard band"),
        (None, "density-adaptive kernel (extension, retired)",
         "never faster than global, so it was removed. HybridSelect ran "
         "GPUCalcShared's blocks on the cells of more than a quarter of "
         "the block size in points and GPUCalcGlobal elsewhere (§VII-C's "
         "future work). At scale 0.005 its modeled ms read 1.79 / 1.28 / "
         "1.00× global's on SW1 and 1.46 / 1.03 / 1.00× on SDSS1 at 64 / "
         "128 / 256 threads per block (commit 964befd, the last to run "
         "it); at 256 threads no cell was dense and it ran the global "
         "path. GPUCalcShared is 6.5–750× slower than GPUCalcGlobal on "
         "every Table II dataset, so every cell moved to it cost time"),
        ("BENCH_tuner", "static cost-guided configuration pruning (extension)",
         "the KC007 cost model prunes the {global, shared} × "
         "{64, 128, 256, 512} lattice before any launch and never "
         "eliminates the measured-fastest configuration: at scale 0.005 "
         "it eliminates the 4 shared configurations on SW1 and SDSS1 and "
         "keeps the fastest, global@512, on the frontier of 4. A run at "
         "the committed scale fails on any change to the workload "
         "statistics, a prediction, a modeled time, a verdict, the "
         "fastest configuration or the frontier"),
        ("ablation_multi_eps", "multi-ε reuse (extension)",
         "one annotated table beats per-ε rebuilds across the S2 sweep. "
         "An annotated append is charged its float64 row's six 4-byte "
         "stores on both backends (the vector backend charged 3, the "
         "interpreter 2): the annotated build's modeled GPUCalcGlobal ms "
         "at scale 0.005 went 0.520 → 0.641 (SW1) and 0.468 → 0.560 "
         "(SDSS1)"),
        ("BENCH_shards", "sharded out-of-core clustering (extension)",
         "per-shard peak residency stays under the cap (below the "
         "single-device peak); labels bit-identical at every shard grid. "
         "A run at the committed scale fails on any change to a byte or "
         "count field, of the run, of a shard grid or of a shard"),
        ("BENCH_shard_recovery", "shard-level fault recovery (extension)",
         "wholesale shard faults (device OOM, device loss) are absorbed "
         "by retry/fallback or quad-split without recomputing finished "
         "shards; labels bit-identical under every policy"),
        ("BENCH_placement", "multi-device shard placement (extension)",
         "locality placement keeps adjacent tiles' halo rings "
         "device-local (less collective all-to-all volume than "
         "round-robin), and builds pinned to concurrent devices give a "
         "modeled makespan below the sequential-shard baseline while "
         "labels stay bit-identical"),
        ("BENCH_serve", "long-lived clustering service (extension)",
         "under rising offered load the serving loop sheds typed "
         "rejections and flagged stale/sampled answers instead of "
         "collapsing: zero sheds at light load, load-responsive "
         "shedding at heavy load, cache hit rate > 0 on repeated "
         "(epoch, eps) queries, and every exact response bit-identical "
         "to a direct fit — with retry/backoff + circuit breaking "
         "absorbing injected transient faults"),
        ("BENCH_cluster_device", "device-resident cluster formation (extension)",
         "union-find label kernels replace the host DBSCAN pass; labels "
         "bit-identical to the host components path at every density, "
         "round count grows with neighborhood density (2 / 4 / 8 rounds "
         "at ε = 0.02 / 0.06 / 0.12); hooking old roots cut the densest "
         "from 18 to 8, and a run at the committed scale fails on more "
         "rounds or changed core/cluster counts"),
        ("bandwidth_model", "bandwidth model (future work)",
         "device phase accelerates toward NVLink; saturates when "
         "compute-bound. Without the device sort in the compute term, "
         "the device-phase speedup at 150 GB/s (vs 6 GB/s) reads 3.07 "
         "on SW1 and 2.88 on SDSS1 at scale 0.005 (SW1 read 1.16 with "
         "the sort, failing the bench's > 1.2 check), so host–GPU "
         "transfers are again the device phase's bottleneck, as §VIII "
         "states"),
    ]
    for name, title, claim in specs:
        if name is None:
            status = "its bench is gone with it"
        elif load(name):
            status = "ran — see benchmarks/results/%s.json" % name
        else:
            status = "_not run_"
        parts.append(f"* **{title}** — {claim}. ({status})")
    return "\n".join(parts)


def main() -> None:
    env = environment_info()
    header = (
        "# EXPERIMENTS — paper vs measured\n\n"
        f"Generated {date.today().isoformat()} by "
        "`benchmarks/make_experiments_md.py` from the JSON artifacts in "
        "`benchmarks/results/` (produced by `pytest benchmarks/ "
        "--benchmark-only`).\n\n"
        f"Environment: Python {env['python']}, {env['cpu_count']} CPU core(s), "
        f"{env['platform']}.\n\n"
        "Absolute numbers are this machine's (simulated GPU + scaled "
        "datasets; see DESIGN.md §2 for every substitution); the claims "
        "under reproduction are the paper's *shapes*: who wins, rough "
        "factors, and trends.\n"
    )
    sections = [
        section(
            "Table I — fraction of time in R-tree search",
            "index search is 48.0%-72.2% of sequential DBSCAN time, "
            "motivating GPU offload",
            table1(),
        ),
        section(
            "Table II (S1) — kernel efficiency",
            "GPUCalcGlobal beats GPUCalcShared on all datasets; shared "
            "launches far more threads and is worst on uniform data "
            "(143% slower on SW4, 2023% on SDSS2)",
            table2(),
        ),
        section(
            "Figure 3 / Table III (S2) — response time vs ε",
            "hybrid outperforms the reference at every ε, even small "
            "datasets/ε; T-construction and DBSCAN costs are comparable",
            fig3(),
        ),
        section(
            "Figure 4 + Table IV (S2) — pipelined throughput",
            "pipelined hybrid is 3.36x-5.13x over the reference and "
            "1.42x-1.66x over non-pipelined, growing with dataset size",
            fig4(),
        ),
        section(
            "Figure 5 / Table V (S3) — reuse vs threads",
            "one T consumed by up to 16 threads: speedups 2.89x-6.07x, "
            "saturating with threads",
            fig5(),
        ),
        section(
            "Figure 6 (S3) — reuse speedup over the reference",
            "reusing one T for 16 minpts values is 27x-54x faster than "
            "per-variant reference clustering",
            fig6(),
        ),
        "## Ablations and extensions\n\n" + ablations() + "\n",
    ]
    OUT.write_text(header + "\n" + "\n".join(sections))
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
