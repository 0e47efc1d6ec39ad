"""Reproduction experiments — one function per paper figure.

All functions take a ``scale`` knob (1.0 = the paper's Table 3 sizes) so
tests and pytest-benchmark targets can run them in seconds; shapes are
stable across scales.  Every result object renders via
:func:`repro.harness.report.render`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.policy import policy_by_name
from repro.graphs.datasets import REAL_WORLD_GRAPHS, load_real_world
from repro.graphs.generators import powerlaw
from repro.nsc.engine import EngineMode
from repro.perf.compare import energy_efficiency, geomean, speedup, traffic_ratio
from repro.perf.model import RunResult
from repro.workloads import run_workload
from repro.workloads.graph_kernels import bfs_iteration_stats, default_graph
from repro.workloads.vecadd import run_vecadd_delta

__all__ = [
    "fig4_vecadd_delta",
    "fig6_chunk_remap",
    "fig12_overall",
    "fig13_policies",
    "fig14_atomic_timeline",
    "fig15_affine_scaling",
    "fig16_graph_scaling",
    "fig17_bfs_iterations",
    "fig18_push_pull_timeline",
    "fig19_degree_sweep",
    "fig20_real_world",
    "ablation_node_size",
    "ablation_pool_granularity",
    "ablation_codesign",
    "fig_relayout",
    "fig_interfere",
]

FIG12_WORKLOADS = ("pathfinder", "hotspot", "srad", "hotspot3D", "pr_push",
                   "bfs", "sssp", "link_list", "hash_join", "bin_tree")
FIG13_WORKLOADS = ("pr_push", "pr_pull", "bfs", "sssp", "link_list",
                   "hash_join", "bin_tree")
FIG13_POLICIES = ("Rnd", "Lnr", "Min-Hop", "Hybrid-1", "Hybrid-3", "Hybrid-5",
                  "Hybrid-7")


@dataclass
class SweepResult:
    """Generic labeled-rows result."""

    title: str
    headers: Sequence[str]
    data: List[Sequence] = field(default_factory=list)
    raw: Dict = field(default_factory=dict)

    def rows(self) -> List[Sequence]:
        return self.data


# ----------------------------------------------------------------------
# Fig 4 — affine layout sensitivity of vector add
# ----------------------------------------------------------------------
def fig4_vecadd_delta(deltas: Sequence[int] = tuple(range(0, 68, 4)),
                      n: int = 1 << 20,
                      config: SystemConfig = DEFAULT_CONFIG,
                      seed: int = 0) -> SweepResult:
    """Speedup and NoC hops of vec-add vs forwarding distance (Fig 4).

    Rows: In-Core, Δ Bank 0..64, Random; speedup and hops normalized to
    In-Core, exactly as the figure.
    """
    base = run_vecadd_delta(0, EngineMode.IN_CORE, config, n=n, seed=seed)
    res = SweepResult(
        "Fig 4: Impact of Affine Data Layout on Vec Add",
        ["layout", "speedup", "noc_hops_norm"],
        raw={"in_core": base, "deltas": {}},
    )
    res.data.append(["In-Core", 1.0, 1.0])
    for d in deltas:
        r = run_vecadd_delta(d, EngineMode.AFF_ALLOC, config, n=n, seed=seed)
        res.raw["deltas"][d] = r
        res.data.append([f"Δ Bank {d}", speedup(base, r), traffic_ratio(base, r)])
    rnd = run_vecadd_delta(None, EngineMode.NEAR_L3, config, n=n, seed=seed)
    res.raw["random"] = rnd
    res.data.append(["Random", speedup(base, rnd), traffic_ratio(base, rnd)])
    return res


# ----------------------------------------------------------------------
# Fig 6 — irregular layout limit study (chunk remap)
# ----------------------------------------------------------------------
def fig6_chunk_remap(workloads: Sequence[str] = ("pr_push", "bfs_push", "sssp",
                                                 "pr_pull", "bfs_pull"),
                     scale: float = 0.25,
                     config: SystemConfig = DEFAULT_CONFIG,
                     seed: int = 0) -> SweepResult:
    """Speedup & traffic of chunk-remapped edge arrays (Fig 6).

    Configs: Base (CSR), Ind-4kB/1kB/256B/64B (remap with <=2% imbalance),
    Ind-Ideal; all under Near-L3, normalized to Base.
    """
    layouts = [("Base", None), ("Ind-4kB", ("chunk", 4096)),
               ("Ind-1kB", ("chunk", 1024)), ("Ind-256B", ("chunk", 256)),
               ("Ind-64B", ("chunk", 64)), ("Ind-Ideal", ("ideal",))]
    res = SweepResult(
        "Fig 6: Impact of Irregular Data Layout",
        ["workload"] + [name for name, _ in layouts]
        + [f"hops:{name}" for name, _ in layouts],
        raw={},
    )
    per_layout_speedups: Dict[str, List[float]] = {name: [] for name, _ in layouts}
    for wl in workloads:
        base: Optional[RunResult] = None
        runs = {}
        for name, lay in layouts:
            r = run_workload(wl, EngineMode.NEAR_L3, config, scale=scale,
                             seed=seed, edge_layout=lay)
            runs[name] = r
            if name == "Base":
                base = r
        res.raw[wl] = runs
        sp = [speedup(base, runs[name]) for name, _ in layouts]
        tr = [traffic_ratio(base, runs[name]) for name, _ in layouts]
        for (name, _), s in zip(layouts, sp):
            per_layout_speedups[name].append(s)
        res.data.append([wl] + sp + tr)
    res.data.append(["geomean"]
                    + [geomean(per_layout_speedups[name]) for name, _ in layouts]
                    + [""] * len(layouts))
    return res


# ----------------------------------------------------------------------
# Fig 12 — overall performance / energy / traffic
# ----------------------------------------------------------------------
def fig12_overall(workloads: Sequence[str] = FIG12_WORKLOADS,
                  scale: float = 0.25,
                  config: SystemConfig = DEFAULT_CONFIG,
                  seed: int = 0) -> SweepResult:
    """The headline comparison: In-Core vs Near-L3 vs Aff-Alloc.

    Speedup and energy efficiency are normalized to Near-L3; NoC traffic
    to In-Core (the paper's conventions).
    """
    res = SweepResult(
        "Fig 12: Overall Performance and Traffic Reduction",
        ["workload", "speedup:In-Core", "speedup:Aff-Alloc",
         "energy_eff:In-Core", "energy_eff:Aff-Alloc",
         "traffic:Near-L3", "traffic:Aff-Alloc", "noc_util:Aff-Alloc"],
        raw={},
    )
    sp_ic, sp_af, ee_ic, ee_af, tr_nl, tr_af = [], [], [], [], [], []
    for wl in workloads:
        runs = {m: run_workload(wl, m, config, scale=scale, seed=seed)
                for m in EngineMode}
        res.raw[wl] = runs
        ic, nl, af = (runs[EngineMode.IN_CORE], runs[EngineMode.NEAR_L3],
                      runs[EngineMode.AFF_ALLOC])
        row = [wl, speedup(nl, ic), speedup(nl, af),
               energy_efficiency(nl, ic), energy_efficiency(nl, af),
               traffic_ratio(ic, nl), traffic_ratio(ic, af),
               af.noc_utilization]
        res.data.append(row)
        sp_ic.append(row[1]); sp_af.append(row[2])
        ee_ic.append(row[3]); ee_af.append(row[4])
        tr_nl.append(row[5]); tr_af.append(row[6])
    res.data.append(["geomean", geomean(sp_ic), geomean(sp_af),
                     geomean(ee_ic), geomean(ee_af),
                     float(np.mean(tr_nl)), float(np.mean(tr_af)), ""])
    return res


# ----------------------------------------------------------------------
# Fig 13 — bank-select policy sensitivity
# ----------------------------------------------------------------------
def fig13_policies(workloads: Sequence[str] = FIG13_WORKLOADS,
                   policies: Sequence[str] = FIG13_POLICIES,
                   scale: float = 0.25,
                   config: SystemConfig = DEFAULT_CONFIG,
                   seed: int = 0) -> SweepResult:
    """Irregular-layout policies under Aff-Alloc, normalized to Rnd."""
    res = SweepResult(
        "Fig 13: Sensitivity on Irregular Layout Policies",
        ["workload"] + list(policies),
        raw={},
    )
    per_policy: Dict[str, List[float]] = {p: [] for p in policies}
    for wl in workloads:
        runs = {p: run_workload(wl, EngineMode.AFF_ALLOC, config, scale=scale,
                                seed=seed, policy=policy_by_name(p))
                for p in policies}
        res.raw[wl] = runs
        base = runs["Rnd"]
        sp = [speedup(base, runs[p]) for p in policies]
        for p, s in zip(policies, sp):
            per_policy[p].append(s)
        res.data.append([wl] + sp)
    res.data.append(["geomean"] + [geomean(per_policy[p]) for p in policies])
    return res


# ----------------------------------------------------------------------
# Fig 14 — atomic-stream occupancy timeline in bfs_push
# ----------------------------------------------------------------------
def fig14_atomic_timeline(policies: Sequence[str] = ("Rnd", "Min-Hop",
                                                     "Hybrid-5"),
                          scale: float = 0.25,
                          config: SystemConfig = DEFAULT_CONFIG,
                          seed: int = 0) -> SweepResult:
    """Distribution of concurrent atomic streams per bank over the run.

    For each BFS iteration (a recorded phase) the mean number of in-flight
    atomic streams at bank ``b`` is ``atomics[b] * stream_latency /
    phase_cycles`` (Little's law), where the stream latency includes the
    request's travel distance — which is why the affinity-oblivious Rnd
    policy keeps more streams in flight (paper: "it takes much longer for
    each stream to finish the indirect atomic access").  The figure plots
    min/25%/avg/75%/max across banks over normalized time.
    """
    res = SweepResult(
        "Fig 14: Distribution of Atomic Streams in BFS-Push",
        ["policy", "t_norm", "min", "p25", "avg", "p75", "max"],
        raw={},
    )
    from repro.arch.noc import MessageClass
    lat = float(config.cache.access_latency)
    hop_lat = float(config.noc.hop_latency)
    for pol in policies:
        r = run_workload("bfs_push", EngineMode.AFF_ALLOC, config, scale=scale,
                         seed=seed, policy=policy_by_name(pol))
        res.raw[pol] = r
        total = sum(c for _, c in r.phase_cycles) or 1.0
        t = 0.0
        for phase, (_, cyc) in zip(r.phases, r.phase_cycles):
            if cyc <= 0:
                continue
            # mean request distance this phase (control messages)
            w = config.noc.width
            n = config.noc.num_tiles
            pidx = np.arange(n * n)
            src, dst = pidx // n, pidx % n
            hops = np.abs(src % w - dst % w) + np.abs(src // w - dst // w)
            ctl = phase.pair_flits[MessageClass.CONTROL]
            mean_hops = float(np.dot(ctl, hops) / ctl.sum()) if ctl.sum() else 0.0
            occ = phase.bank_atomics * (lat + mean_hops * hop_lat) / cyc
            res.data.append([
                pol, t / total, float(occ.min()),
                float(np.percentile(occ, 25)), float(occ.mean()),
                float(np.percentile(occ, 75)), float(occ.max()),
            ])
            t += cyc
    return res


# ----------------------------------------------------------------------
# Fig 15 / Fig 16 — input-size scaling
# ----------------------------------------------------------------------
def fig15_affine_scaling(workloads: Sequence[str] = ("pathfinder", "hotspot",
                                                     "srad", "hotspot3D"),
                         multipliers: Sequence[int] = (1, 2, 4, 8),
                         scale: float = 0.5,
                         config: SystemConfig = DEFAULT_CONFIG,
                         seed: int = 0) -> SweepResult:
    """Affine workloads at growing input sizes: speedup + L3 miss %."""
    res = SweepResult(
        "Fig 15: Speedup of Affine Layout on Large Inputs",
        ["workload", "mult", "speedup_vs_nearL3", "miss_pct_aff",
         "miss_pct_near"],
        raw={},
    )
    gm: Dict[int, List[float]] = {m: [] for m in multipliers}
    for wl in workloads:
        for m in multipliers:
            nl = run_workload(wl, EngineMode.NEAR_L3, config, scale=scale * m,
                              seed=seed)
            af = run_workload(wl, EngineMode.AFF_ALLOC, config,
                              scale=scale * m, seed=seed)
            res.raw[(wl, m)] = (nl, af)
            s = speedup(nl, af)
            gm[m].append(s)
            res.data.append([wl, f"{m}x", s, af.l3_miss_pct, nl.l3_miss_pct])
    for m in multipliers:
        res.data.append(["geomean", f"{m}x", geomean(gm[m]), "", ""])
    return res


def fig16_graph_scaling(workloads: Sequence[str] = ("pr_push", "bfs", "sssp"),
                        log_sizes: Sequence[int] = (14, 15, 16, 17),
                        config: SystemConfig = DEFAULT_CONFIG,
                        seed: int = 0) -> SweepResult:
    """Graph workloads at growing |V| (paper: 2^17..2^20): speedup of
    Hybrid-5 and Min-Hops over Near-L3 plus L3 miss %."""
    res = SweepResult(
        "Fig 16: Speedup of Linked CSR on Large Graphs",
        ["workload", "log2|V|", "Hybrid-5", "Min-Hops", "miss_pct"],
        raw={},
    )
    base_scale = 17
    for wl in workloads:
        for ls in log_sizes:
            sc = 2.0 ** (ls - base_scale)
            nl = run_workload(wl, EngineMode.NEAR_L3, config, scale=sc,
                              seed=seed)
            h5 = run_workload(wl, EngineMode.AFF_ALLOC, config, scale=sc,
                              seed=seed, policy=policy_by_name("Hybrid-5"))
            mh = run_workload(wl, EngineMode.AFF_ALLOC, config, scale=sc,
                              seed=seed, policy=policy_by_name("Min-Hop"))
            res.raw[(wl, ls)] = (nl, h5, mh)
            res.data.append([wl, ls, speedup(nl, h5), speedup(nl, mh),
                             h5.l3_miss_pct])
    return res


# ----------------------------------------------------------------------
# Fig 17 / Fig 18 — BFS characteristics and push-pull timelines
# ----------------------------------------------------------------------
def fig17_bfs_iterations(scale: float = 0.25, seed: int = 0) -> SweepResult:
    """Per-iteration visited/active/scout-edge ratios of BFS."""
    g = default_graph(scale, seed, symmetrize=True)
    stats = bfs_iteration_stats(g)
    res = SweepResult(
        "Fig 17: BFS Iteration Characteristic",
        ["iteration", "visited", "active", "scout_edges"],
        raw={"stats": stats, "graph": g},
    )
    for i, st in enumerate(stats):
        res.data.append([i, st["visited"], st["active"], st["scout_edges"]])
    return res


def fig18_push_pull_timeline(scale: float = 0.25,
                             config: SystemConfig = DEFAULT_CONFIG,
                             seed: int = 0) -> SweepResult:
    """Per-iteration runtime share of push/pull/switch BFS per engine."""
    res = SweepResult(
        "Fig 18: BFS Push vs Pull Timeline",
        ["engine", "variant", "total_cycles", "per-iter (dir:share)"],
        raw={},
    )
    for mode in EngineMode:
        for variant in ("bfs_pull", "bfs_push", "bfs"):
            r = run_workload(variant, mode, config, scale=scale, seed=seed)
            res.raw[(mode.value, variant)] = r
            total = sum(c for _, c in r.phase_cycles) or 1.0
            timeline = " ".join(
                f"{label.split(':')[-1][:4]}:{cyc / total:.2f}"
                for label, cyc in r.phase_cycles if cyc > 0)
            res.data.append([mode.value, variant, r.cycles, timeline])
    return res


# ----------------------------------------------------------------------
# Fig 19 / Fig 20 — degree sweep and real-world graphs
# ----------------------------------------------------------------------
def fig19_degree_sweep(workloads: Sequence[str] = ("pr_push", "bfs", "sssp"),
                       degrees: Sequence[int] = (4, 8, 16, 32, 64, 128),
                       total_edges: int = 1 << 20, seed: int = 0,
                       config: SystemConfig = DEFAULT_CONFIG) -> SweepResult:
    """Speedup vs average degree at fixed |E|, normalized to Rnd."""
    res = SweepResult(
        "Fig 19: Speedup vs Avg. Node Degree",
        ["workload", "D", "Hybrid-5", "Min-Hops", "Near-L3"],
        raw={},
    )
    gm: Dict[int, List[float]] = {d: [] for d in degrees}
    for wl in workloads:
        weighted = wl == "sssp"
        symmetrize = wl.startswith("bfs") or wl == "bfs"
        for d in degrees:
            nv = max(total_edges // d, 256)
            g = powerlaw(nv, d, seed=seed,
                         weights_range=(1, 255) if weighted else None)
            if symmetrize:
                from repro.graphs.csr import CSRGraph
                g = CSRGraph.from_edge_list(g.num_vertices, g.sources(),
                                            g.edges, g.weights,
                                            symmetrize=True)
            rnd = run_workload(wl, EngineMode.AFF_ALLOC, config, graph=g,
                               seed=seed, policy=policy_by_name("Rnd"))
            h5 = run_workload(wl, EngineMode.AFF_ALLOC, config, graph=g,
                              seed=seed, policy=policy_by_name("Hybrid-5"))
            mh = run_workload(wl, EngineMode.AFF_ALLOC, config, graph=g,
                              seed=seed, policy=policy_by_name("Min-Hop"))
            nl = run_workload(wl, EngineMode.NEAR_L3, config, graph=g,
                              seed=seed)
            res.raw[(wl, d)] = (rnd, h5, mh, nl)
            s5 = speedup(rnd, h5)
            gm[d].append(s5)
            res.data.append([wl, d, s5, speedup(rnd, mh), speedup(rnd, nl)])
    for d in degrees:
        res.data.append(["geomean", d, geomean(gm[d]), "", ""])
    return res


def fig20_real_world(workloads: Sequence[str] = ("pr_push", "bfs", "sssp"),
                     graphs: Sequence[str] = tuple(REAL_WORLD_GRAPHS),
                     scale: float = 0.25, seed: int = 7,
                     config: SystemConfig = DEFAULT_CONFIG) -> SweepResult:
    """Real-world (Table 4 stand-in) graphs: Min-Hops / Hybrid-5 vs Near-L3."""
    res = SweepResult(
        "Fig 20: Performance on Real World Graphs",
        ["graph", "workload", "Min-Hops", "Hybrid-5", "traffic:Hybrid-5"],
        raw={},
    )
    gm: List[float] = []
    for gname in graphs:
        for wl in workloads:
            weighted = wl == "sssp"
            g = load_real_world(gname, scale=scale, seed=seed,
                                weights_range=(1, 255) if weighted else None)
            if wl == "bfs":
                from repro.graphs.csr import CSRGraph
                g = CSRGraph.from_edge_list(g.num_vertices, g.sources(),
                                            g.edges, g.weights,
                                            symmetrize=True)
            nl = run_workload(wl, EngineMode.NEAR_L3, config, graph=g,
                              seed=seed)
            mh = run_workload(wl, EngineMode.AFF_ALLOC, config, graph=g,
                              seed=seed, policy=policy_by_name("Min-Hop"))
            h5 = run_workload(wl, EngineMode.AFF_ALLOC, config, graph=g,
                              seed=seed, policy=policy_by_name("Hybrid-5"))
            res.raw[(gname, wl)] = (nl, mh, h5)
            s5 = speedup(nl, h5)
            gm.append(s5)
            res.data.append([gname, wl, speedup(nl, mh), s5,
                             traffic_ratio(nl, h5)])
    res.data.append(["geomean", "", "", geomean(gm), ""])
    return res


# ----------------------------------------------------------------------
# Ablations (DESIGN.md's design-choice studies, runnable as experiments)
# ----------------------------------------------------------------------
def ablation_node_size(node_sizes: Sequence[int] = (64, 128, 256),
                       scale: float = 0.12,
                       config: SystemConfig = DEFAULT_CONFIG,
                       seed: int = 0) -> SweepResult:
    """Linked CSR node size: placement granularity vs pointer chasing."""
    res = SweepResult(
        "Ablation: Linked CSR Node Size (pr_push, Aff-Alloc)",
        ["node_bytes", "cycles", "flit_hops"],
        raw={},
    )
    for nb in node_sizes:
        r = run_workload("pr_push", EngineMode.AFF_ALLOC, config, scale=scale,
                         seed=seed, node_bytes=nb)
        res.raw[nb] = r
        res.data.append([nb, r.cycles, r.total_flit_hops])
    return res


def ablation_pool_granularity(scale: float = 0.12,
                              config: SystemConfig = DEFAULT_CONFIG,
                              seed: int = 0) -> SweepResult:
    """Page-only pools (4 KiB D-NUCA placement) vs the full pool set."""
    fine = run_workload("pr_push", EngineMode.AFF_ALLOC, config, scale=scale,
                        seed=seed)
    coarse_cfg = config.scaled(pool_interleaves=(4096,))
    coarse = run_workload("pr_push", EngineMode.AFF_ALLOC, coarse_cfg,
                          scale=scale, seed=seed)
    near = run_workload("pr_push", EngineMode.NEAR_L3, config, scale=scale,
                        seed=seed)
    res = SweepResult(
        "Ablation: Interleave Pool Granularity (pr_push)",
        ["config", "speedup_vs_nearL3", "flit_hops"],
        raw={"fine": fine, "coarse": coarse, "near": near},
    )
    res.data.append(["pools 64B..4KiB", speedup(near, fine),
                     fine.total_flit_hops])
    res.data.append(["pools 4KiB only", speedup(near, coarse),
                     coarse.total_flit_hops])
    return res


def ablation_codesign(scale: float = 0.12,
                      config: SystemConfig = DEFAULT_CONFIG,
                      seed: int = 0) -> SweepResult:
    """Affinity alloc without the co-designed structures (paper: "it is
    critical to codesign the data structure")."""
    res = SweepResult(
        "Ablation: Data Structure Co-Design",
        ["variant", "cycles", "flit_hops"],
        raw={},
    )
    for label, wl, overrides in (
            ("pr_push + Linked CSR", "pr_push", {}),
            ("pr_push, plain CSR", "pr_push", {"use_linked": False}),
            ("bfs_push + spatial queue", "bfs_push", {}),
            ("bfs_push, global queue", "bfs_push", {"spatial_queue": False})):
        r = run_workload(wl, EngineMode.AFF_ALLOC, config, scale=scale,
                         seed=seed, **overrides)
        res.raw[label] = r
        res.data.append([label, r.cycles, r.total_flit_hops])
    return res


# ----------------------------------------------------------------------
# Relayout — static placement vs telemetry-driven online re-layout
# ----------------------------------------------------------------------
def fig_relayout(scenarios: Optional[Sequence[str]] = None,
                 scale: float = 1.0,
                 seed: int = 0) -> SweepResult:
    """Static allocation vs epoch-based online re-layout (autoplace).

    Each row is one phase-changing scenario: the static arm keeps the
    allocator's one-shot placement for the whole run; the online arm
    runs the same workload inside a relayout session, which migrates
    drifted arrays back onto their consumers' banks at epoch
    boundaries.  ``recovered_speedup`` is static cycles / online cycles
    (cost of migration already charged to the online arm).
    """
    from repro.harness.arms import DEFAULT_SCENARIOS, run_autoplace
    from repro.relayout.policy import RelayoutConfig
    report = run_autoplace(tuple(scenarios or DEFAULT_SCENARIOS),
                           RelayoutConfig(seed=seed), scale=scale,
                           seed=seed, jobs=1)
    res = SweepResult(
        "Relayout: Online Re-Layout vs Static Placement",
        ["scenario", "static_cycles", "online_cycles", "recovered_speedup",
         "migrations", "moved_kib", "locality_static", "locality_final"],
        raw={"report": report},
    )
    for row in report.rows:
        post = row.get("post_locality")
        res.data.append([
            row["scenario"], row["static"]["cycles"],
            row["online"]["cycles"], report.recovered(row),
            row["migrations"], row["moved_bytes"] / 1024.0,
            row["static"]["locality"],
            post if post is not None else row["online"]["locality"]])
    return res


# ----------------------------------------------------------------------
# Interfere — concurrent-host contention sweep
# ----------------------------------------------------------------------
def fig_interfere(workloads: Optional[Sequence[str]] = None,
                  factors: Optional[Sequence[float]] = None,
                  scale: float = 0.05,
                  seed: int = 0) -> SweepResult:
    """Clean vs host-contended runs across an intensity sweep.

    Each row is one (workload, intensity factor) arm: the clean cycles,
    the contended cycles under :func:`HostTrafficPlan.generate(seed)
    <repro.interfere.plan.HostTrafficPlan.generate>` scaled by the
    factor, the resulting slowdown, the injected host message count,
    and the INT006 injection-model verification verdict.  Under
    ``AFF_ALLOC`` the per-workload recovery arm (contention composed
    with online re-layout at the top factor) appends one extra row.
    """
    from repro.harness import arms
    from repro.interfere.plan import HostTrafficPlan
    plan = HostTrafficPlan.generate(seed)
    names = tuple(workloads or arms.INTERFERE_WORKLOADS)
    report = arms.run_interfere(names, plan, mode="AFF_ALLOC", scale=scale,
                                seed=seed,
                                factors=tuple(factors or arms.DEFAULT_FACTORS),
                                jobs=1)
    res = SweepResult(
        "Interfere: Slowdown Under Concurrent-Host Traffic",
        ["workload", "arm", "clean_cycles", "contended_cycles", "slowdown",
         "host_messages", "int006_ok"],
        raw={"report": report},
    )
    for row in report.rows:
        for arm in row["arms"]:
            res.data.append([
                row["workload"], f"x{arm['factor']:g}",
                row["clean"]["cycles"], arm["metrics"]["cycles"],
                arm["slowdown"], arm["host"].get("messages", 0.0),
                not arm["int006_findings"]])
        rec = row["recovery"]
        if rec is not None:
            res.data.append([
                row["workload"], f"x{rec['factor']:g}+relayout",
                row["clean"]["cycles"], rec["metrics"]["cycles"],
                rec["recovered"], float(rec["migrations"]), True])
    return res
