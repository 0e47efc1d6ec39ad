"""DRAM channel model: four channels at the mesh corners (Table 2).

An L3 miss travels from the bank to its assigned memory controller tile
(address-interleaved across channels), occupies channel bandwidth for one
line transfer, and returns.  We expose per-channel byte loads so the perf
model can find the DRAM bottleneck, plus the extra NoC traffic the misses
generate.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.arch.mesh import Mesh
from repro.config import DramConfig

__all__ = ["DramModel"]


class DramModel:
    def __init__(self, mesh: Mesh, dram: DramConfig):
        self.mesh = mesh
        self.dram = dram
        self.controller_tiles = self._corner_tiles(mesh, dram.channels)
        self._channel_bytes = np.zeros(len(self.controller_tiles), dtype=np.float64)

    @staticmethod
    def _corner_tiles(mesh: Mesh, channels: int) -> List[int]:
        corners = [
            mesh.tile_at(0, 0),
            mesh.tile_at(mesh.width - 1, 0),
            mesh.tile_at(0, mesh.height - 1),
            mesh.tile_at(mesh.width - 1, mesh.height - 1),
        ]
        if channels <= 4:
            return corners[:channels]
        # More than four channels: spread extras along the top/bottom edges.
        extra = []
        for i in range(channels - 4):
            x = (i + 1) * mesh.width // (channels - 3)
            y = 0 if i % 2 == 0 else mesh.height - 1
            extra.append(mesh.tile_at(min(x, mesh.width - 1), y))
        return corners + extra

    def channel_for(self, banks: np.ndarray) -> np.ndarray:
        """Channel id for misses from each bank (address-interleaved).

        We approximate address interleaving by hashing the bank id; the
        per-channel load spread is what matters for the bottleneck model.
        """
        banks = np.asarray(banks, dtype=np.int64)
        return banks % len(self.controller_tiles)

    def controller_tile_for(self, banks: np.ndarray) -> np.ndarray:
        channels = self.channel_for(banks)
        tiles = np.asarray(self.controller_tiles, dtype=np.int64)
        return tiles[channels]

    def record_miss_traffic(self, banks: np.ndarray, bytes_each: float, counts: np.ndarray) -> None:
        """Charge channel bandwidth for ``counts[i]`` line misses from bank i."""
        banks = np.asarray(banks, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.float64)
        channels = self.channel_for(banks)
        self._channel_bytes += np.bincount(
            channels, weights=counts * bytes_each, minlength=len(self.controller_tiles)
        )

    def bottleneck_cycles(self) -> float:
        """Cycles needed by the most-loaded channel to move its bytes."""
        if self._channel_bytes.size == 0:
            return 0.0
        return float(self._channel_bytes.max() / self.dram.bytes_per_cycle_per_channel)

    def reset(self) -> None:
        self._channel_bytes[:] = 0.0
