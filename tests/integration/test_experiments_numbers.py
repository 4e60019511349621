"""EXPERIMENTS.md's printed numbers, recomputed at their printed precision.

The benchmarks under ``benchmarks/`` assert each figure's *shape*; this
module pins the *numbers* the E-sections print (E11 is pinned in
``tests/stack3d``), so a model change that moves one must update
EXPERIMENTS.md with it.  Every case recomputes one value, checks that
it rounds to the printed text at the printed number of decimals, and
checks that the text still appears in its E-section.  E9 (Fig. 6
circuit simulations) and E17 (the optimiser's front) are left to their
own tests and benchmarks.
"""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

from repro.array import ReadMarginAnalysis
from repro.core import (FastDramDesign, PvtAnalysis, SramDramComparison,
                        ablate_architecture, voltage_sweep)
from repro.refresh import (LocalizedRefresh, MonoblockRefresh,
                           RefreshSimulator, TemperatureAdaptiveRefresh,
                           plan_binned_refresh, uniform_random_trace)
from repro.stack3d import (RefreshThermalCoupling, StackThermalModel,
                           ThermalLayer)
from repro.units import Mb, kb, mm2, ns, pJ, uW

EXPERIMENTS = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"

# (E-section, measured key, divisor, text as EXPERIMENTS.md prints it)
CASES = [
    # E1 -- Fig. 5 busy cycles, percent, and the localized gain.
    ("E1", "fig5.mono.20us", 1e-2, "81.9"),
    ("E1", "fig5.local.20us", 1e-2, "0.87"),
    ("E1", "fig5.gain.20us", 1.0, "95"),
    ("E1", "fig5.mono.100us", 1e-2, "10.1"),
    ("E1", "fig5.local.100us", 1e-2, "0.085"),
    ("E1", "fig5.gain.100us", 1.0, "119"),
    ("E1", "fig5.mono.1ms", 1e-2, "1.01"),
    ("E1", "fig5.local.1ms", 1e-2, "0.005"),
    ("E1", "fig5.gain.1ms", 1.0, "203"),
    # E2 -- Fig. 7(a) access time.
    ("E2", "access.sram.128kb", ns, "1.01"),
    ("E2", "access.dram.128kb", ns, "1.06"),
    ("E2", "access.sram.2Mb", ns, "1.50"),
    ("E2", "access.dram.2Mb", ns, "1.23"),
    # E3 -- Fig. 7(b) dynamic energy.
    ("E3", "read.sram.128kb", pJ, "3.21"),
    ("E3", "read.dram.128kb", pJ, "3.43"),
    ("E3", "write.sram.128kb", pJ, "6.09"),
    ("E3", "write.dram.128kb", pJ, "4.45"),
    ("E3", "read.sram.2Mb", pJ, "7.32"),
    ("E3", "read.dram.2Mb", pJ, "5.49"),
    ("E3", "write.sram.2Mb", pJ, "18.97"),
    ("E3", "write.dram.2Mb", pJ, "9.96"),
    # E4 -- Fig. 7(c) static power.
    ("E4", "static.sram.128kb", uW, "113"),
    ("E4", "static.dram.128kb", uW, "14.5"),
    ("E4", "static.gain.128kb", 1.0, "7.8"),
    ("E4", "static.sram.2Mb", 1e3 * uW, "1.81"),
    ("E4", "static.dram.2Mb", uW, "232"),
    ("E4", "static.gain.2Mb", 1.0, "7.8"),
    # E5 -- Fig. 7(d) and Table I area.
    ("E5", "area.sram.128kb", mm2, "0.209"),
    ("E5", "area.dram.128kb", mm2, "0.076"),
    ("E5", "area.gain.128kb", 1.0, "2.74"),
    ("E5", "area.sram.2Mb", mm2, "2.79"),
    ("E5", "area.dram.2Mb", mm2, "0.88"),
    ("E5", "area.gain.2Mb", 1.0, "3.16"),
    # E6 -- Fig. 8 energy repartition of the 128 kb macro.
    ("E6", "fig8.read.decode", pJ, "0.85"),
    ("E6", "fig8.read.cell", pJ, "0.54"),
    ("E6", "fig8.read.localblock", pJ, "1.23"),
    ("E6", "fig8.read.global_path", pJ, "0.58"),
    ("E6", "fig8.write.decode", pJ, "2.03"),
    ("E6", "fig8.write.cell", pJ, "0.65"),
    ("E6", "fig8.write.localblock", pJ, "1.40"),
    ("E6", "fig8.write.global_path", pJ, "0.32"),
    # E7 -- Fig. 9 SRAM/DRAM total-power ratio.
    ("E7", "fig9.128kb.low", 1.0, "7.0"),
    ("E7", "fig9.128kb.high", 1.0, "1.23"),
    ("E7", "fig9.2Mb.low", 1.0, "7.7"),
    ("E7", "fig9.2Mb.high", 1.0, "2.05"),
    # E8 -- headline figures of the 128 kb macro.
    ("E8", "headline.access", ns, "1.06"),
    ("E8", "headline.energy_per_bit", pJ, "0.107"),
    ("E8", "headline.read_energy", pJ, "3.43"),
    ("E8", "retention.dram.worst", 1e-3, "1.0"),
    ("E8", "retention.dram.typical", 1e-3, "63"),
    ("E8", "retention.scratchpad.worst", 1e-6, "31"),
    # E10 -- ablations.
    ("E10", "ablation.local_restore", 1.0, "1.18"),
    ("E10", "ablation.local_restore_latency", 1.0, "1.68"),
    ("E10", "ablation.low_swing_gbl", 1.0, "1.27"),
    ("E10", "ablation.signal.proposed", 1.0, "0.737"),
    ("E10", "ablation.signal.ablated", 1.0, "0.022"),
    # E12 -- adaptive refresh savings.
    ("E12", "adaptive.300K", 1.0, "55.7"),
    ("E12", "adaptive.330K", 1.0, "7"),
    ("E12", "binned.block", 1.0, "1.25"),
    ("E12", "binned.row", 1.0, "2.8"),
    # E13 -- design options.
    ("E13", "dedicated.shared_gain", 1.0, "3.16"),
    ("E13", "dedicated.gain", 1.0, "3.52"),
    ("E13", "pvt.SS@358K.access", ns, "1.35"),
    ("E13", "pvt.FF@300K.access", ns, "1.01"),
    # E14 -- sensing-aware read margin.
    ("E14", "margin.mean.100us", 1e-3, "323"),
    ("E14", "margin.mean.5ms", 1e-3, "302"),
    ("E14", "margin.mean.20ms", 1e-3, "243"),
    ("E14", "margin.fail.100us", 1e-2, "0"),
    ("E14", "margin.fail.5ms", 1e-2, "0"),
    ("E14", "margin.fail.20ms", 1e-2, "0.47"),
    ("E14", "margin.max_interval", 1e-3, "15.0"),
    # E15 -- supply scaling.
    ("E15", "voltage.0.9.access", ns, "1.32"),
    ("E15", "voltage.0.9.read", pJ, "2.64"),
    ("E15", "voltage.1.2.access", ns, "1.06"),
    ("E15", "voltage.1.2.read", pJ, "3.43"),
    ("E15", "voltage.1.3.access", ns, "1.00"),
    ("E15", "voltage.1.3.read", pJ, "3.74"),
    # E16 -- 3D-stack thermal feedback.
    ("E16", "thermal.0.5.temperature", 1.0, "319"),
    ("E16", "thermal.0.5.power", uW, "55"),
    ("E16", "thermal.2.0.temperature", 1.0, "322"),
    ("E16", "thermal.2.0.power", uW, "67"),
    ("E16", "thermal.6.0.temperature", 1.0, "330"),
    ("E16", "thermal.6.0.power", uW, "117"),
]


def _fig5(out):
    """E1: the Fig. 5 sweep as ``benchmarks/test_fig5_refresh_busy.py``
    runs it (seed 2009, 60,000 cycles, activity 0.5, 500 MHz)."""
    trace = uniform_random_trace(60_000, 128, 0.5,
                                 np.random.default_rng(2009))
    for label, retention_us in (("20us", 20), ("100us", 100),
                                ("1ms", 1000)):
        # The benchmark's expression, to the cycle (100 us gives 49,999).
        period = int(retention_us * 1e-6 * 500e6)
        busy = {}
        for name, cls in (("mono", MonoblockRefresh),
                          ("local", LocalizedRefresh)):
            policy = cls(n_blocks=128, rows_per_block=32,
                         refresh_period_cycles=period)
            busy[name] = RefreshSimulator(policy).run(trace).busy_fraction
        out[f"fig5.mono.{label}"] = busy["mono"]
        out[f"fig5.local.{label}"] = busy["local"]
        out[f"fig5.gain.{label}"] = busy["mono"] / busy["local"]


def _comparison(out):
    """E2-E7 and the E13 dedicated-periphery gain, on the benchmarks'
    two-point comparison (retention pinned to 1 ms)."""
    comparison = SramDramComparison(sizes=(128 * kb, 2 * Mb),
                                    retention_override=1e-3)
    for metric, rows in (("access", comparison.access_time()),
                         ("read", comparison.read_energy()),
                         ("write", comparison.write_energy()),
                         ("static", comparison.static_power()),
                         ("area", comparison.area())):
        for row, size in zip(rows, ("128kb", "2Mb")):
            out[f"{metric}.sram.{size}"] = row.sram
            out[f"{metric}.dram.{size}"] = row.dram
            out[f"{metric}.gain.{size}"] = row.ratio
    for kind, categories in comparison.energy_repartition().items():
        for category, energy in categories.items():
            out[f"fig8.{kind}.{category}"] = energy
    curves = comparison.total_power_curves(activities=(0.001, 1.0))
    for (_bits, (low, high)), size in zip(sorted(curves.items()),
                                          ("128kb", "2Mb")):
        out[f"fig9.{size}.low"] = low.ratio
        out[f"fig9.{size}.high"] = high.ratio
    dram = comparison.dram_macro(2 * Mb)
    sram = comparison.sram_macro(2 * Mb)
    dedicated = dataclasses.replace(dram.floorplan, dedicated_periphery=True)
    out["dedicated.shared_gain"] = sram.area() / dram.area()
    out["dedicated.gain"] = sram.area() / dedicated.total_area()


def _headline(out):
    """E8 and E14, on the 128 kb macro."""
    macro = FastDramDesign().build(128 * kb, retention_override=1e-3)
    summary = macro.summary()
    out["headline.access"] = summary["access_time_s"]
    out["headline.energy_per_bit"] = summary["read_energy_per_bit_j"]
    out["headline.read_energy"] = summary["read_energy_j"]
    for technology in ("dram", "scratchpad"):
        stats = FastDramDesign(technology=technology).build(
            128 * kb).retention_statistics(count=1000)
        out[f"retention.{technology}.worst"] = stats.worst_case
        out[f"retention.{technology}.typical"] = stats.typical
    analysis = ReadMarginAnalysis(
        organization=macro.organization, local_sa=macro.local_sa,
        retention=macro.cell_design.retention_model(), samples=3000)
    for label, point in zip(("100us", "5ms", "20ms"),
                            analysis.sweep((1e-4, 5e-3, 2e-2))):
        out[f"margin.mean.{label}"] = point.mean_margin
        out[f"margin.fail.{label}"] = point.failure_fraction
    out["margin.max_interval"] = analysis.max_interval_at_yield(
        target_failure=1e-3)


def _extensions(out):
    """E10, E12, the E13 PVT corners, E15 and E16."""
    for result in ablate_architecture():
        out[f"ablation.{result.feature}"] = result.penalty_factor
        if result.feature == "fine_granularity_signal":
            out["ablation.signal.proposed"] = result.proposed_value
            out["ablation.signal.ablated"] = result.ablated_value
    adaptive = TemperatureAdaptiveRefresh(base_retention=1e-3)
    for temperature in (300.0, 330.0):
        out[f"adaptive.{temperature:.0f}K"] = adaptive.power_saving_vs_fixed(
            temperature, 358.0)
    retention = FastDramDesign().cell().retention_model()
    for label, blocks, rows in (("block", 128, 32), ("row", 4096, 1)):
        out[f"binned.{label}"] = plan_binned_refresh(
            retention, n_blocks=blocks, rows_per_block=rows,
            n_bins=6).saving_factor()
    corners = PvtAnalysis(retention_samples=400).sweep(
        temperatures=(300.0, 358.0))
    for corner in corners:
        out[f"pvt.{corner.label}.access"] = corner.access_time
    for point in voltage_sweep(supplies=(0.9, 1.2, 1.3)):
        out[f"voltage.{point.vdd:.1f}.access"] = point.access_time
        out[f"voltage.{point.vdd:.1f}.read"] = point.read_energy
    for logic_power in (0.5, 2.0, 6.0):
        stack = StackThermalModel(
            layers=(ThermalLayer("logic", power=logic_power, area=25e-6),
                    ThermalLayer("memory", power=0.05, area=25e-6)),
            ambient=318.0, sink_resistance=2.0)
        coupling = RefreshThermalCoupling(
            stack=stack, memory_layer=1,
            refresh_model=TemperatureAdaptiveRefresh(
                base_retention=1e-3, base_temperature=300.0),
            rows=4096, row_energy=1.77e-12)
        result, power = coupling.solve()
        out[f"thermal.{logic_power:.1f}.temperature"] = (
            result.temperatures[1])
        out[f"thermal.{logic_power:.1f}.power"] = power


@pytest.fixture(scope="module")
def measured():
    out = {}
    for collect in (_fig5, _comparison, _headline, _extensions):
        collect(out)
    return out


@pytest.fixture(scope="module")
def sections():
    """EXPERIMENTS.md's text, split into its ``## E<n>`` sections."""
    parts = re.split(r"^## (E\d+) ", EXPERIMENTS.read_text(), flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


@pytest.mark.parametrize(
    "section, key, divisor, printed", CASES,
    ids=[f"{section}-{key}" for section, key, _d, _p in CASES])
def test_printed_number(measured, sections, section, key, divisor, printed):
    # Within the printed rounding (0.865 prints as 0.87).
    half_unit = 0.5 * 10.0 ** -len(printed.partition(".")[2])
    assert abs(measured[key] / divisor - float(printed)) <= half_unit * (
        1 + 1e-9), f"{key} = {measured[key] / divisor!r}"
    assert re.search(rf"(?<![\d.]){re.escape(printed)}(?![\d])",
                     sections[section]), (
        f"{printed} no longer appears in EXPERIMENTS.md's {section}")
