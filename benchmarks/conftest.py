"""Shared benchmark infrastructure.

The Figs 9/10/11 benches and Table 1 all consume the same CSK-order x
symbol-rate x device sweep; it is expensive (dozens of simulated video
recordings), so it is computed once per session and cached here.  The grid
runs through the :mod:`repro.perf` runtime — set ``COLORBARS_WORKERS=4``
to fan the cells out over a process pool (bit-identical to serial).

Every bench prints the same rows/series the paper reports; assertions check
the qualitative *shape* (who wins, what rises with what), not the paper's
absolute testbed numbers.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.camera.devices import DeviceProfile, iphone_5s, nexus_5
from repro.core.config import SystemConfig
from repro.link.simulator import LinkResult, RunSpec
from repro.perf.executor import make_runner

ORDERS = (4, 8, 16, 32)
RATES = (1000.0, 2000.0, 3000.0, 4000.0)

#: Recording length per sweep cell.  Low symbol rates need longer recordings
#: for the calibration EWMA to converge (the paper's measurements run for
#: minutes; these durations are the time-budget compromise).
def _duration_for(rate: float) -> float:
    return 3.5 if rate <= 2000 else 2.5


def cell_spec(
    device: DeviceProfile, order: int, rate: float, seed: int = 11
) -> RunSpec:
    """One sweep cell: a full TX -> camera -> RX run with shared settings."""
    config = SystemConfig(
        csk_order=order,
        symbol_rate=rate,
        design_loss_ratio=device.timing.gap_fraction,
        frame_rate=device.timing.frame_rate,
    )
    return RunSpec(
        config=config,
        device=device,
        simulated_columns=32,
        seed=seed,
        duration_s=_duration_for(rate),
    )


def run_cell(
    device: DeviceProfile, order: int, rate: float, seed: int = 11
) -> LinkResult:
    """Execute one cell (serial helper for one-off bench runs)."""
    return cell_spec(device, order, rate, seed=seed).execute()


SweepResults = Dict[str, Dict[Tuple[int, float], LinkResult]]


@pytest.fixture(scope="session")
def full_sweep() -> SweepResults:
    """The paper's full evaluation grid, computed once per bench session.

    All devices' feasible cells are flattened into one spec list and run
    through the perf runtime, honoring ``COLORBARS_WORKERS``.
    """
    keys: list = []
    specs: list = []
    for device in (nexus_5(), iphone_5s()):
        for order in ORDERS:
            for rate in RATES:
                if device.timing.rows_per_symbol(rate) < 10:
                    continue
                keys.append((device.name, (order, rate)))
                specs.append(cell_spec(device, order, rate))
    cells = make_runner()(specs)
    results: SweepResults = {}
    for (device_name, cell_key), result in zip(keys, cells):
        results.setdefault(device_name, {})[cell_key] = result
    return results


def format_series_table(
    title: str,
    cells: Dict[Tuple[int, float], float],
    unit: str = "",
) -> str:
    """Render an {(order, rate): value} dict as the paper's figure series."""
    lines = [title]
    header = "  CSK order | " + " | ".join(f"{int(rate)} Hz" for rate in RATES)
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for order in ORDERS:
        row = [f"  {order:>9} |"]
        for rate in RATES:
            value = cells.get((order, rate))
            row.append(f" {value:8.4f} |" if value is not None else "      -- |")
        lines.append("".join(row))
    if unit:
        lines.append(f"  (values in {unit})")
    return "\n".join(lines)
