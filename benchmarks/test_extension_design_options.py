"""E13 (extension) — design options the paper leaves as future work.

* dedicated DRAM peripherals (paper Sec. IV: "further gain should be
  possible by designing peripherals dedicated to a DRAM matrix"),
* banked composition of large capacities,
* PVT corner envelope of the headline figures.
"""

import dataclasses

from repro.array import compare_banking_options
from repro.core import FastDramDesign, PvtAnalysis, format_table
from repro.units import Mb, kb, mm2, ns, pJ, si_format, uW
from benchmarks._util import record_result


def test_extension_dedicated_peripherals(benchmark, two_point_comparison):
    def areas():
        out = []
        for bits in (128 * kb, 2 * Mb):
            dram = two_point_comparison.dram_macro(bits)
            sram = two_point_comparison.sram_macro(bits)
            dedicated = dataclasses.replace(dram.floorplan,
                                            dedicated_periphery=True)
            out.append((bits, sram.area(), dram.area(),
                        dedicated.total_area()))
        return out

    rows = benchmark.pedantic(areas, rounds=1, iterations=1)
    table = format_table(
        ["size", "SRAM (mm2)", "DRAM shared periph", "DRAM dedicated",
         "gain shared", "gain dedicated"],
        [[f"{bits // kb} kb", sram / mm2, shared / mm2, dedicated / mm2,
          f"{sram / shared:.2f}x", f"{sram / dedicated:.2f}x"]
         for bits, sram, shared, dedicated in rows],
    )
    record_result("extension_dedicated_peripherals", table)

    for _bits, sram, shared, dedicated in rows:
        assert dedicated < shared < sram


def test_extension_banking(benchmark):
    options = benchmark.pedantic(
        compare_banking_options,
        args=(FastDramDesign(), 2 * Mb),
        kwargs={"bank_counts": (1, 2, 4, 8)},
        rounds=1, iterations=1)

    table = format_table(
        ["banks", "access (ns)", "read (pJ)", "area (mm2)"],
        [[count, memory.access_time() / ns, memory.read_energy() / pJ,
          memory.area() / mm2]
         for count, memory in sorted(options.items())],
    )
    record_result("extension_banking", table)

    # The hierarchical single macro already scales: banking buys little
    # speed and costs energy/area — a real (negative) design result.
    mono = options[1]
    assert options[4].access_time() < 1.1 * mono.access_time()
    assert options[4].read_energy() > mono.read_energy()
    assert options[4].area() > mono.area()


def test_extension_pvt_envelope(benchmark):
    analysis = PvtAnalysis(retention_samples=400)
    points = benchmark.pedantic(
        analysis.sweep, kwargs={"temperatures": (300.0, 358.0)},
        rounds=1, iterations=1)

    table = format_table(
        ["corner", "access (ns)", "refresh power (uW)", "worst retention"],
        [[p.label, p.access_time / ns, p.static_power / uW,
          si_format(p.worst_retention, "s")] for p in points],
    )
    record_result("extension_pvt_envelope", table)

    by_label = {p.label: p for p in points}
    assert (by_label["SS@358K"].access_time
            > by_label["FF@300K"].access_time)
    # The hot-retention finding: static power up by >10x at 358 K.
    assert (by_label["TT@358K"].static_power
            > 10 * by_label["TT@300K"].static_power)
