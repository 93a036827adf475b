"""Federated server: pre-training, round orchestration, history.

The server owns the GM, optionally pre-trains it centrally (SAFELOC §IV:
"training the fused neural network on a centralized server using a subset
of RSS fingerprints"), then repeatedly broadcasts to clients and folds
their LMs back through the configured aggregation strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.data.datasets import FingerprintDataset
from repro.fl.aggregation import AggregationStrategy, ClientUpdate
from repro.fl.batched_round import ClientCohort
from repro.fl.client import FederatedClient
from repro.fl.interfaces import LocalizationModel, StateDict
from repro.utils.logging import get_logger
from repro.utils.rng import SeedSequence

logger = get_logger("fl.server")

#: recognized client execution engines (see :class:`FederatedServer`)
CLIENT_ENGINES = ("serial", "batched")


@dataclass
class RoundRecord:
    """Bookkeeping for one federation round."""

    round_index: int
    updates: List[ClientUpdate]
    mean_client_loss: float
    num_malicious: int
    num_flagged: int
    #: updates the server-side filter excluded during aggregation —
    #: the only visibility into defenses (FEDLS, FEDCC, KRUM) that drop
    #: whole updates after local training rather than flagging samples
    #: client-side like ``num_flagged`` counts
    num_dropped: int = 0


class FederatedServer:
    """Synchronous single-server federation (Fig. 2).

    Args:
        model: The global model (GM).
        strategy: Aggregation strategy folding LMs into the GM.
        clients: Participating clients (honest and malicious alike; the
            server does not know which is which).
        seeds: Server-side seed sequence (pre-training shuffles).
        update_cache: Optional federate round cache (see
            :class:`~repro.experiments.artifacts.RoundCache`).  When set,
            each round's per-client updates are looked up by (client
            index, round index, broadcast-state signature) before local
            training runs; hits return the stored update bit-for-bit.
            A client's update is a pure function of that triple (per-round
            named rng streams, private model copy overwritten by every
            broadcast), so cached federations match uncached ones exactly.
        client_engine: ``"serial"`` (the default and the bit-for-bit
            reference) walks clients one by one; ``"batched"`` hands each
            round to a :class:`~repro.fl.batched_round.ClientCohort`,
            which fold-stacks schedule-uniform clients into one 3-D
            matmul training program.  Both engines share per-(client,
            round) rng streams and round-cache keys, so they produce
            bit-identical updates at float64 and interchangeably hit each
            other's cache entries.
    """

    def __init__(
        self,
        model: LocalizationModel,
        strategy: AggregationStrategy,
        clients: Sequence[FederatedClient],
        seeds: Optional[SeedSequence] = None,
        update_cache=None,
        client_engine: str = "serial",
    ):
        if not clients:
            raise ValueError("federation needs at least one client")
        if client_engine not in CLIENT_ENGINES:
            raise ValueError(
                f"unknown client_engine {client_engine!r}; "
                f"expected one of {CLIENT_ENGINES}"
            )
        self.model = model
        self.strategy = strategy
        # a strategy instance may be reused across federations (shared
        # FrameworkSpec); drop any per-federation state it carries so two
        # runs of the same scenario start identically
        self.strategy.reset()
        self.clients = list(clients)
        # repro: allow[REP501] standalone-construction fallback; the engine always threads spec-derived seeds
        self.seeds = seeds or SeedSequence(1)
        self.update_cache = update_cache
        self.client_engine = client_engine
        self._cohort: Optional[ClientCohort] = None
        self.history: List[RoundRecord] = []

    def pretrain(
        self,
        dataset: FingerprintDataset,
        epochs: int,
        lr: float = 0.001,
        batch_size: int = 32,
    ) -> float:
        """Centralized warm-up of the GM on server-held fingerprints."""
        rng = self.seeds.rng("pretrain")
        loss = self.model.train_epochs(
            dataset, epochs=epochs, lr=lr, rng=rng, batch_size=batch_size,
            trusted=True,
        )
        logger.info("pretrain finished, loss=%.4f", loss)
        return float(loss)

    def _collect_updates(
        self, global_state: StateDict, round_index: int
    ) -> List[ClientUpdate]:
        """All client updates for one round, in client order."""
        if self.client_engine == "batched":
            if self._cohort is None:
                self._cohort = ClientCohort(self.clients)
            return self._cohort.collect_updates(
                global_state, round_index, cache=self.update_cache
            )
        compute = self._update_fn(global_state, round_index)
        return [compute(index) for index in range(len(self.clients))]

    def _update_fn(self, global_state: StateDict, round_index: int):
        """client index → :class:`ClientUpdate`, through the round cache
        when one is attached."""
        if self.update_cache is None:
            return lambda index: self.clients[index].local_update(
                global_state, round_index=round_index
            )
        signature = self.update_cache.broadcast_signature(global_state)
        return lambda index: self.update_cache.get_update(
            index,
            round_index,
            signature,
            lambda: self.clients[index].local_update(
                global_state, round_index=round_index
            ),
        )

    def run_round(self) -> RoundRecord:
        """One synchronous round: broadcast → local updates → aggregate."""
        global_state = self.model.state_dict()
        updates = self._collect_updates(global_state, len(self.history) + 1)
        self.strategy.begin_round(len(self.history) + 1)
        new_state = self.strategy.aggregate(global_state, updates)
        self.model.load_state_dict(new_state)
        record = RoundRecord(
            round_index=len(self.history) + 1,
            updates=updates,
            mean_client_loss=float(np.mean([u.train_loss for u in updates])),
            num_malicious=sum(u.is_malicious for u in updates),
            num_flagged=sum(u.flagged_poisoned for u in updates),
            num_dropped=int(self.strategy.last_dropped_count),
        )
        self.history.append(record)
        logger.info(
            "round %d: mean client loss %.4f (%d malicious, %d flagged, "
            "%d dropped)",
            record.round_index,
            record.mean_client_loss,
            record.num_malicious,
            record.num_flagged,
            record.num_dropped,
        )
        return record

    def run_rounds(self, num_rounds: int) -> List[RoundRecord]:
        """Run several rounds, returning their records."""
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        return [self.run_round() for _ in range(num_rounds)]
