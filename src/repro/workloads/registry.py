"""Workload registry: all 21 benchmarks of Table 2 with scaled problem sizes.

Each entry records the paper's original problem size and the parameters used
at the three reproduction scales:

* ``tiny``  - unit/integration tests (seconds, small core counts welcome);
* ``small`` - the figure CLI default and the paper configuration its claims
  are checked at (all 21 workloads x all sweep points complete in minutes
  at 64 cores);
* ``full``  - CLI/examples, higher-fidelity shapes.

Sizes scale the *pressure ratios* (working set vs 32KB L1-D, sharing degree,
reuse per line), not raw element counts - that is what the classifier sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ConfigError
from repro.common.params import ArchConfig
from repro.workloads import mibench, others, parsec, splash2, uhpc
from repro.workloads.base import Trace


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark: builder + per-scale parameters + provenance."""

    name: str
    suite: str
    table2_size: str
    builder: Callable[..., Trace]
    scales: dict[str, dict[str, int | float]]

    def build(self, arch: ArchConfig, scale: str = "small", **overrides) -> Trace:
        if scale not in self.scales:
            raise ConfigError(
                f"workload {self.name!r} has no scale {scale!r} "
                f"(available: {sorted(self.scales)})"
            )
        params = dict(self.scales[scale])
        params.update(overrides)
        return self.builder(arch, **params)


def _spec(name, suite, size, builder, tiny, small, full):
    return WorkloadSpec(name, suite, size, builder,
                        {"tiny": tiny, "small": small, "full": full})


_SPECS: tuple[WorkloadSpec, ...] = (
    # ------------------------------------------------------------- SPLASH-2
    _spec("radix", "splash2", "1M integers, radix 1024", splash2.build_radix,
          tiny={"keys_per_thread": 64, "bucket_lines": 2, "passes": 1},
          small={"keys_per_thread": 256, "bucket_lines": 4, "passes": 2},
          full={"keys_per_thread": 1024, "bucket_lines": 8, "passes": 3}),
    _spec("lu-nc", "splash2", "512x512 matrix, 16x16 blocks", splash2.build_lu,
          tiny={"num_blocks": 3, "block_lines": 4},
          small={"num_blocks": 14, "block_lines": 8, "update_uses": 3},
          full={"num_blocks": 20, "block_lines": 10, "update_uses": 3}),
    _spec("barnes", "splash2", "16K particles", splash2.build_barnes,
          tiny={"bodies_per_thread": 8, "tree_lines": 96, "iterations": 1},
          small={"bodies_per_thread": 24, "tree_lines": 340, "iterations": 2},
          full={"bodies_per_thread": 64, "tree_lines": 1024, "iterations": 3}),
    _spec("ocean-nc", "splash2", "258x258 ocean", splash2.build_ocean,
          tiny={"rows_per_thread": 4, "lines_per_row": 4, "iterations": 2},
          small={"rows_per_thread": 20, "lines_per_row": 8, "iterations": 3},
          full={"rows_per_thread": 32, "lines_per_row": 10, "iterations": 4}),
    _spec("water-sp", "splash2", "512 molecules", splash2.build_water_spatial,
          tiny={"molecule_lines": 8, "iterations": 6},
          small={"molecule_lines": 20, "iterations": 24},
          full={"molecule_lines": 24, "iterations": 60}),
    _spec("raytrace", "splash2", "car scene", splash2.build_raytrace,
          tiny={"rays_per_thread": 16, "bvh_mid_lines": 16, "primitive_lines": 256},
          small={"rays_per_thread": 48, "bvh_mid_lines": 48, "primitive_lines": 1024},
          full={"rays_per_thread": 160, "bvh_mid_lines": 96, "primitive_lines": 4096}),
    # --------------------------------------------------------------- PARSEC
    _spec("blackscholes", "parsec", "64K options", parsec.build_blackscholes,
          tiny={"option_lines": 48, "result_lines": 8, "passes": 2},
          small={"option_lines": 192, "result_lines": 24, "passes": 3},
          full={"option_lines": 512, "result_lines": 64, "passes": 5}),
    _spec("streamcluster", "parsec", "8192 points per block", parsec.build_streamcluster,
          tiny={"center_lines": 8, "point_lines": 32, "rounds": 3},
          small={"center_lines": 24, "point_lines": 128, "rounds": 5},
          full={"center_lines": 48, "point_lines": 384, "rounds": 8}),
    _spec("dedup", "parsec", "31 MB data", parsec.build_dedup,
          tiny={"chunks_per_pair": 4, "chunk_lines": 2, "hash_lines": 128},
          small={"chunks_per_pair": 16, "chunk_lines": 4, "hash_lines": 1024},
          full={"chunks_per_pair": 48, "chunk_lines": 6, "hash_lines": 4096}),
    _spec("bodytrack", "parsec", "2 frames, 2000 particles", parsec.build_bodytrack,
          tiny={"weight_lines": 16, "model_lines": 24, "frames": 2},
          small={"weight_lines": 64, "model_lines": 160, "frames": 3},
          full={"weight_lines": 128, "model_lines": 512, "frames": 5}),
    _spec("fluidanimate", "parsec", "5 frames, 100K particles", parsec.build_fluidanimate,
          tiny={"cell_lines": 12, "edge_lines": 3, "iterations": 2},
          small={"cell_lines": 48, "edge_lines": 6, "iterations": 4},
          full={"cell_lines": 96, "edge_lines": 10, "iterations": 8}),
    _spec("canneal", "parsec", "200K elements", parsec.build_canneal,
          tiny={"netlist_lines": 512, "moves_per_thread": 24},
          small={"netlist_lines": 2048, "moves_per_thread": 128},
          full={"netlist_lines": 8192, "moves_per_thread": 512}),
    # --------------------------------------------------------- Parallel MI
    _spec("dijkstra-ss", "mibench", "4096-node graph", mibench.build_dijkstra_ss,
          tiny={"dist_lines": 32, "relax_rounds": 3, "reads_per_round": 8,
                "local_passes": 3},
          small={"dist_lines": 256, "relax_rounds": 5, "reads_per_round": 20,
                 "local_passes": 24},
          full={"dist_lines": 512, "relax_rounds": 10, "reads_per_round": 48,
                "local_passes": 36}),
    _spec("dijkstra-ap", "mibench", "512-node graph", mibench.build_dijkstra_ap,
          tiny={"matrix_lines": 256, "rows_per_source": 8, "sources_per_thread": 1},
          small={"matrix_lines": 1024, "rows_per_source": 40, "sources_per_thread": 2},
          full={"matrix_lines": 4096, "rows_per_source": 96, "sources_per_thread": 4}),
    _spec("patricia", "mibench", "5000 IP address queries", mibench.build_patricia,
          tiny={"queries_per_thread": 24, "leaf_lines": 256, "mid_lines": 16},
          small={"queries_per_thread": 128, "leaf_lines": 768, "mid_lines": 64},
          full={"queries_per_thread": 448, "leaf_lines": 2048, "mid_lines": 128}),
    _spec("susan", "mibench", "2.8 MB PGM picture", mibench.build_susan,
          tiny={"tile_lines": 12, "passes": 5},
          small={"tile_lines": 24, "passes": 20},
          full={"tile_lines": 32, "passes": 48}),
    # ------------------------------------------------------------------ UHPC
    _spec("concomp", "uhpc", "2^18-node graph", uhpc.build_connected_components,
          tiny={"edge_lines_per_thread": 48, "label_lines": 512,
                "label_ops_per_iter": 16, "iterations": 1},
          small={"edge_lines_per_thread": 256, "label_lines": 2048,
                 "label_ops_per_iter": 96, "iterations": 2},
          full={"edge_lines_per_thread": 1024, "label_lines": 8192,
                "label_ops_per_iter": 256, "iterations": 3}),
    _spec("community", "uhpc", "2^16-node graph", uhpc.build_community_detection,
          tiny={"local_lines": 8, "local_passes": 2, "remote_probes": 16},
          small={"local_lines": 32, "local_passes": 4, "remote_probes": 72},
          full={"local_lines": 64, "local_passes": 8, "remote_probes": 256}),
    # ---------------------------------------------------------------- Others
    _spec("tsp", "others", "16 cities", others.build_tsp,
          tiny={"expansions_per_thread": 24, "update_period": 7},
          small={"expansions_per_thread": 72, "update_period": 12},
          full={"expansions_per_thread": 256, "update_period": 14}),
    _spec("dfs", "others", "876800-node graph", others.build_dfs,
          tiny={"nodes_per_thread": 32, "visited_lines": 512, "steal_period": 12},
          small={"nodes_per_thread": 120, "visited_lines": 2048, "steal_period": 24},
          full={"nodes_per_thread": 480, "visited_lines": 8192, "steal_period": 32}),
    _spec("matmul", "others", "512x512 matrix", others.build_matmul,
          tiny={"blocks_per_dim": 4, "block_lines": 4},
          small={"blocks_per_dim": 10, "block_lines": 6},
          full={"blocks_per_dim": 20, "block_lines": 8}),
)

WORKLOADS: dict[str, WorkloadSpec] = {spec.name: spec for spec in _SPECS}
WORKLOAD_NAMES: tuple[str, ...] = tuple(spec.name for spec in _SPECS)


def get_workload(name: str) -> WorkloadSpec:
    spec = WORKLOADS.get(name)
    if spec is None:
        raise ConfigError(f"unknown workload {name!r} (available: {WORKLOAD_NAMES})")
    return spec


def load_workload(name: str, arch: ArchConfig, scale: str = "small", **overrides) -> Trace:
    """Build the named benchmark's trace for ``arch`` at the given scale."""
    return get_workload(name).build(arch, scale, **overrides)
