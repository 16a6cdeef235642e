"""Victim fill flows (Figure 12).

An entry evicted from a CU's L1 TLB is offered to the reconfigurable
structures in order: first the CU-private LDS (lowest latency), then the
shared I-cache, and finally the L2 TLB. Each structure either *accepts* the
candidate (possibly displacing a resident translation, which becomes the new
candidate for the next stage) or *bypasses* it (its target segment/line is
application-owned). The class also counts which of the paper's numbered
flows each fill took.
"""

from __future__ import annotations

from typing import Optional

from repro.core.reconfig_icache import ReconfigurableICache
from repro.core.reconfig_lds import LDSTxCache
from repro.sim.stats import Stats
from repro.tlb.base import TranslationEntry
from repro.tlb.set_assoc import SetAssociativeTLB


class VictimFillFlow:
    """Routes L1-TLB victims through LDS → I-cache → L2 TLB."""

    def __init__(
        self,
        l2_tlb: SetAssociativeTLB,
        lds_tx: Optional[LDSTxCache] = None,
        icache_tx: Optional[ReconfigurableICache] = None,
        ducati=None,
        stats: Optional[Stats] = None,
        name: str = "fill_flow",
        lds_first: bool = True,
        sharing=None,
        dedup_shared: bool = False,
    ) -> None:
        self.l2_tlb = l2_tlb
        self.lds_tx = lds_tx
        self.icache_tx = icache_tx
        self.ducati = ducati
        self.stats = stats if stats is not None else Stats()
        self.name = name
        # Fill order mirrors the lookup order (Section 4.4; an ablation
        # can reverse it via SystemConfig.lds_before_icache).
        stages = []
        if lds_tx is not None:
            stages.append(("lds", lds_tx.fill))
        if icache_tx is not None:
            stages.append(("icache", icache_tx.tx_fill))
        if not lds_first:
            stages.reverse()
        # (is_lds, fill, installed, installed_with_victim, bypassed): the
        # per-stage counter keys are built once, not per victim.
        self._stages = [
            (
                label == "lds",
                fill,
                f"{name}.{label}_installed",
                f"{name}.{label}_installed_with_victim",
                f"{name}.{label}_bypassed",
            )
            for label, fill in stages
        ]
        self._counts = self.stats.counts
        self._victims = f"{name}.victims"
        self._lds_skipped_shared = f"{name}.lds_skipped_shared"
        self._to_l2_tlb = f"{name}.to_l2_tlb"
        # Duplication filter (the paper's future-work extension): victims
        # for pages already seen by 2+ CUs skip the private LDS so the one
        # copy lives in the shared I-cache instead of N private copies.
        self._sharing = sharing if dedup_shared else None

    def fill(self, entry: TranslationEntry, now: int) -> None:
        """Route one L1-TLB victim through the Figure 12 flow."""

        counts = self._counts
        counts[self._victims] += 1.0
        candidate: Optional[TranslationEntry] = entry

        # Figure 12: offer the candidate to each reconfigurable structure
        # in order. An *accepted* fill may displace a resident translation,
        # which becomes the candidate for the next stage (flows 1→2→4→5 and
        # …→6→7→8); a *bypassed* fill (target segment/line is
        # application-owned) forwards the candidate unchanged (flows 1→2→3
        # and …→6→9).
        for is_lds, fill, installed, with_victim, bypassed in self._stages:
            if candidate is None:
                return
            if (
                is_lds
                and self._sharing is not None
                and self._sharing.is_shared(candidate.vpn)
            ):
                counts[self._lds_skipped_shared] += 1.0
                continue
            accepted, displaced = fill(candidate, now)
            if accepted:
                if displaced is None:
                    counts[installed] += 1.0
                    return
                counts[with_victim] += 1.0
                candidate = displaced
            else:
                counts[bypassed] += 1.0

        if candidate is not None:
            counts[self._to_l2_tlb] += 1.0
            l2_victim = self.l2_tlb.insert(candidate)
            if l2_victim is not None and self.ducati is not None:
                self.ducati.fill(l2_victim)
