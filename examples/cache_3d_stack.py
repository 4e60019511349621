#!/usr/bin/env python3
"""The paper Fig. 2 system: a hybrid 3D-stacked cache and its links.

Builds the memory die (fast DRAM L1 + dense DRAM L2) stacked over a
logic die through TSVs, then prices the TSV interface against an
off-chip and an on-chip link (EXPERIMENTS.md E11).

Run:  python examples/cache_3d_stack.py
"""

from repro.core import format_table
from repro.stack3d import compare_links, hybrid_cache_stack
from repro.units import pJ


def main() -> None:
    print("=== The 3D stack (paper Fig. 2) ===")
    stack = hybrid_cache_stack()
    link = stack.interface()
    print(f"dies: {[d.name for d in stack.dies]}, footprint "
          f"{stack.footprint * 1e6:.1f} mm2, memory "
          f"{stack.memory_capacity() / (1024 * 1024):.2f} Mb")
    print(f"TSV interface: {link.max_links} signal vias, "
          f"{link.energy_per_bit / 1e-15:.0f} fJ/bit")
    print()

    print("=== Die-to-die link styles (Sec. I motivation) ===")
    rows = []
    for name, entry in compare_links().items():
        rows.append([
            name,
            f"{entry['energy_per_bit_j'] / pJ:.3f} pJ",
            f"{entry['aggregate_bandwidth_bps'] / 1e9:.0f} Gb/s",
            f"{entry['power_w'] * 1e3:.2f} mW @ 64 Gb/s",
        ])
    print(format_table(["link", "energy/bit", "bandwidth", "power"], rows))


if __name__ == "__main__":
    main()
