"""Hot-path memoization: the transmitter plan and waveform per (config, payload).

Fleet broadcasts and resilience matrices run the *same* RS-encoded cycle
against many devices or fault cells; rebuilding the plan and waveform per
cell is pure waste.  :class:`PlanCache` memoizes both, keyed by a stable
fingerprint of every configuration field that influences the on-air cycle
plus the payload bytes.

Correctness rests on two facts:

* **Plan building is deterministic.**  The TX chain (RS encode, packetize,
  CSK modulate, PWM quantize) draws no randomness, so a cache hit returns a
  value the miss path would have rebuilt identically — memoization cannot
  change any run outcome, only skip work.
* **Cached values cannot leak mutable state.**  Each lookup returns a fresh
  shallow copy of the plan (its elements — symbols, codeword bytes — are
  immutable), and the shared waveform is frozen read-only
  (:meth:`~repro.phy.waveform.OpticalWaveform.freeze`), so one cell mutating
  its result cannot corrupt another cell's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.core.system import ColorBarsTransmitter, TransmissionPlan
from repro.phy.waveform import EXTEND_CYCLE, OpticalWaveform
from repro.util.validation import require

#: A cache key: the config fingerprint plus the payload bytes.
CacheKey = Tuple[tuple, bytes]


def config_cache_key(config: SystemConfig) -> tuple:
    """A hashable fingerprint of everything that shapes the on-air cycle.

    Covers the packetizer inputs (order, rates, illumination ratio, gray
    mapping), the RS dimensioning inputs (loss ratio, frame rate), the
    constellation geometry, and the emitter's optical output (full-duty XYZ
    of each primary, symbol power, PWM quantization) — any field whose
    change would alter the plan or waveform changes the key.
    """
    emitter = config.emitter
    pwm = emitter.pwm
    return (
        config.csk_order,
        float(config.symbol_rate),
        float(config.design_loss_ratio),
        float(config.frame_rate),
        float(config.effective_illumination_ratio()),
        float(config.calibration_rate_hz),
        bool(config.gray_mapping),
        config.constellation.as_array().tobytes(),
        np.stack(
            [primary.xyz_at_full_duty for primary in emitter.primaries]
        ).tobytes(),
        float(emitter.default_symbol_power()),
        tuple(
            (channel.resolution_bits, float(channel.carrier_hz))
            for channel in pwm.channels
        ),
        float(pwm.max_update_hz),
    )


@dataclass
class _CacheEntry:
    plan: TransmissionPlan
    waveform: OpticalWaveform


class PlanCache:
    """Memoizes ``(config, payload) -> (TransmissionPlan, OpticalWaveform)``.

    Instances satisfy the :data:`repro.link.simulator.Planner` contract
    (they are callable), so one cache can be handed to many
    :class:`~repro.link.simulator.LinkSimulator` runs — every sweep process
    (the caller, each pool worker, each remote worker) shares one, see
    :func:`process_cache`.

    Entries are evicted FIFO beyond ``max_entries``, bounding memory for
    long heterogeneous sweeps.  ``hits``/``misses`` expose effectiveness.
    """

    def __init__(self, max_entries: int = 64) -> None:
        require(max_entries >= 1, f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        #: Whether the most recent lookup was a hit (``None`` before the
        #: first lookup).  The link layer reads this off the injected
        #: planner to annotate its ``tx-plan`` span without importing perf.
        self.last_hit: Optional[bool] = None
        self._entries: Dict[CacheKey, _CacheEntry] = {}

    def plan_and_waveform(
        self, config: SystemConfig, payload: bytes
    ) -> Tuple[TransmissionPlan, OpticalWaveform]:
        """The broadcast cycle for ``(config, payload)``, built at most once."""
        key: CacheKey = (config_cache_key(config), bytes(payload))
        entry = self._entries.get(key)
        self.last_hit = entry is not None
        if entry is None:
            self.misses += 1
            transmitter = ColorBarsTransmitter(config)
            plan = transmitter.plan(payload)
            waveform = transmitter.waveform(plan, extend=EXTEND_CYCLE).freeze()
            while len(self._entries) >= self.max_entries:
                self._entries.pop(next(iter(self._entries)))
            entry = _CacheEntry(plan=plan, waveform=waveform)
            self._entries[key] = entry
        else:
            self.hits += 1
        return _copy_plan(entry.plan), entry.waveform

    #: ``PlanCache`` instances are planners: ``planner(config, payload)``.
    __call__ = plan_and_waveform

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Effectiveness snapshot: hits, misses, and resident entries."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._entries)}


#: The plan cache of this process: one per sweep caller, pool worker, or
#: remote worker, reused across every cell that process executes.
_PROCESS_CACHE: Optional[PlanCache] = None


def process_cache() -> PlanCache:
    """This process's shared :class:`PlanCache`, created on first use."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = PlanCache()
    return _PROCESS_CACHE


def _copy_plan(plan: TransmissionPlan) -> TransmissionPlan:
    """A fresh plan whose containers are private to the caller.

    Shallow copies suffice: the elements (``LogicalSymbol``, ``bytes``) are
    immutable, so list-level isolation is full isolation.
    """
    return TransmissionPlan(
        symbols=list(plan.symbols),
        codewords=list(plan.codewords),
        payload=plan.payload,
        calibration_packets=plan.calibration_packets,
        data_packets=plan.data_packets,
    )
