"""Batched client engine: one fold-stacked training program per round.

The serial federation loop walks clients one by one, so a round over *n*
tiny identical networks pays ``n × epochs × batches`` Python-level
training steps.  But the per-client work is embarrassingly fold-shaped:
every honest client trains the *same architecture* (its copy of the
broadcast GM) on its own data with the same schedule.  A
:class:`ClientCohort` therefore asks each client's model for its
:class:`FoldProgram` — the model family's recipe for training as a
stacked cohort — groups schedule-uniform folds, and runs the whole
local-training pass as stacked 3-D matmuls, then unstacks the folds into
the very same :class:`~repro.fl.aggregation.ClientUpdate` objects the
aggregation layer already consumes.

**Equivalence contract.**  Each phase mirrors the serial
:meth:`~repro.fl.client.FederatedClient.local_update` exactly:

* broadcast / self-labeling / poisoning run *per client on the client's
  own model* (:meth:`~repro.fl.client.FederatedClient.begin_local_round`),
  so pseudo-label forwards and attack gradients see the exact serial
  batch shapes and rng streams;
* client-side defenses that screen the data *before* any gradient step
  (SAFELOC's RCE denoise, ONLAD's detector flag) run per client in
  :meth:`FoldProgram.prepare` — deterministic forward passes, no rng —
  so each fold's effective training set is byte-identical to serial;
* training randomness comes from the shared
  :func:`~repro.fl.client.client_round_rng` helper — fold ``k`` draws one
  ``permutation`` per epoch from its own ``train-round-r`` stream, the
  same single draw the serial loop makes;
* the stacked step is 3-D matmul + elementwise ops along the fold axis
  (see :mod:`repro.nn.batched`), so fold ``k``'s trajectory is
  bit-identical to serial client ``k``'s at float64.

Programs exist for the plain-classifier family
(:class:`ClassifierFoldProgram`, via
:meth:`~repro.fl.interfaces.LocalizationModel.fold_batch_network`),
SAFELOC's fused denoiser+localizer pipeline
(:class:`~repro.core.safeloc.SafeLocFoldProgram`) and ONLAD's
localizer/detector pair
(:class:`~repro.baselines.onlad.OnladFoldProgram`).  Clients whose model
declines fold-batching
(:meth:`~repro.fl.interfaces.LocalizationModel.fold_batch_program`
returns ``None`` — truly unbatchable plugins) fall back to the serial
path inside the cohort, so ``client_engine="batched"`` is safe for every
framework.

Cohorts partition on the training schedule ``(epochs, lr, batch_size,
effective samples, program structure)``; malicious clients train under
the attacker schedule and thus batch as their own cohort after
poisoning, exactly as the paper's threat model separates them.  Clients
whose screening kept a different number of samples land in different
cohorts too (folds share batch boundaries), and clients whose screening
dropped *everything* take the serial tail, which reproduces the
"skip the round, keep the broadcast weights" contract.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.datasets import FingerprintDataset
from repro.fl.aggregation import ClientUpdate
from repro.fl.client import ClientConfig, FederatedClient, client_round_rng
from repro.fl.interfaces import StateDict
from repro.nn.batched import (
    BatchedAdam,
    BatchedSequential,
    BatchedSparseCrossEntropyLoss,
    iterate_fold_batches,
)
from repro.nn.module import Sequential


@dataclass
class FoldPrep:
    """One client's screened training state for one round.

    Produced by :meth:`FoldProgram.prepare` after the broadcast /
    self-label / poison phase: ``dataset`` is the *effective* training
    set (post client-side screening), ``aux`` carries program-private
    state the stacked loop needs alongside it (e.g. SAFELOC's flagged-row
    mask).
    """

    dataset: FingerprintDataset
    aux: object = None


class FoldProgram(ABC):
    """How one model family trains as a fold-stacked cohort.

    A program is bound to one client's model and supplies the three
    pieces the batched engine needs: a :meth:`structure_key` so only
    structurally identical folds stack, a serial per-client
    :meth:`prepare` for the defense/screening phase, and
    :meth:`train_cohort`, the stacked training loop itself.  ``prepare``
    returning ``None`` means nothing trustworthy survived screening —
    the engine hands that client to the serial tail, which reproduces
    the skip-the-round contract exactly.
    """

    @abstractmethod
    def structure_key(self) -> Tuple:
        """Everything beyond the schedule that folds must share to stack."""

    def prepare(self, dataset: FingerprintDataset) -> Optional[FoldPrep]:
        """Serial screening phase; runs after ``begin_local_round``.

        Must be deterministic given the model's (broadcast) weights and
        the dataset — the serial path re-runs it inside
        ``train_epochs`` — and must not consume the training rng.
        """
        return FoldPrep(dataset)

    @abstractmethod
    def train_cohort(
        self,
        programs: Sequence["FoldProgram"],
        preps: Sequence[FoldPrep],
        config: ClientConfig,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Train every fold's model in place as one stacked program.

        ``programs[k]`` / ``preps[k]`` / ``rngs[k]`` belong to fold
        ``k``; returns the per-fold final-epoch mean loss, exactly what
        each serial ``train_epochs`` would have returned.
        """


def layer_shapes(network: Sequential) -> Tuple:
    """Structural signature of a ``Sequential`` for cohort partitioning."""
    return tuple(
        (
            type(layer).__name__,
            getattr(layer, "in_features", None),
            getattr(layer, "out_features", None),
        )
        for layer in network.layers
    )


def run_classifier_epochs(
    network: BatchedSequential,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    lr: float,
    batch_size: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """The stock stacked loop: fresh Adam + sparse CE over shuffled batches.

    Returns the per-fold mean loss of the final epoch — the same
    ``np.mean`` over the same values the serial loop computes.
    """
    loss = BatchedSparseCrossEntropyLoss()
    optimizer = BatchedAdam(network.trainable_parameters(), lr=lr)
    network.train()
    fold_final = np.zeros(network.n_folds)
    for _ in range(epochs):
        batch_losses: List[np.ndarray] = []
        for batch_features, batch_labels in iterate_fold_batches(
            features, labels, batch_size, rngs
        ):
            network.zero_grad()
            loss(network.forward(batch_features), batch_labels)
            network.backward(loss.backward())
            optimizer.step()
            batch_losses.append(loss.fold_losses.copy())
        fold_final = np.mean(batch_losses, axis=0)
    return fold_final


class ClassifierFoldProgram(FoldProgram):
    """The plain mini-batch classifier family (DNN baselines).

    Wraps the ``Sequential`` that
    :meth:`~repro.fl.interfaces.LocalizationModel.fold_batch_network`
    exposes; no screening phase.
    """

    def __init__(self, network: Sequential):
        self.network = network

    def structure_key(self) -> Tuple:
        return ("classifier", layer_shapes(self.network))

    def train_cohort(
        self,
        programs: Sequence["ClassifierFoldProgram"],
        preps: Sequence[FoldPrep],
        config: ClientConfig,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        features = np.stack([prep.dataset.features for prep in preps])
        labels = np.stack([prep.dataset.labels for prep in preps])
        stacked = BatchedSequential.from_modules(
            [program.network for program in programs]
        )
        fold_final = run_classifier_epochs(
            stacked,
            features,
            labels,
            config.epochs,
            config.lr,
            config.batch_size,
            rngs,
        )
        for fold, program in enumerate(programs):
            stacked.scatter_fold(fold, program.network)
        return fold_final


class ClientCohort:
    """Runs one federation round's client updates as fold-batched programs.

    Owned by the :class:`~repro.fl.server.FederatedServer` when
    ``client_engine="batched"``; :meth:`collect_updates` is a drop-in
    replacement for the serial per-client loop and returns the same
    updates in the same client order.

    Args:
        clients: The federation's clients, in server order.
    """

    def __init__(self, clients: Sequence[FederatedClient]):
        if not clients:
            raise ValueError("cohort needs at least one client")
        self.clients = list(clients)

    def collect_updates(
        self,
        global_state: StateDict,
        round_index: int,
        cache=None,
    ) -> List[ClientUpdate]:
        """All client updates for one round, in client order.

        When a :class:`~repro.experiments.artifacts.RoundCache` is given,
        every fold is consulted before any training (cache keys are
        engine-free, so rounds computed by the serial engine hit here and
        vice versa) and every trained fold populates it.
        """
        n = len(self.clients)
        updates: List[Optional[ClientUpdate]] = [None] * n
        signature = (
            cache.broadcast_signature(global_state) if cache is not None else None
        )
        pending: List[int] = []
        for index in range(n):
            if cache is not None:
                hit = cache.lookup(index, round_index, signature)
                if hit is not None:
                    updates[index] = hit
                    continue
            pending.append(index)

        # broadcast + self-label + poison per client, on the client's own
        # model — identical batch shapes and rng draws to the serial path
        prepared: Dict[int, FingerprintDataset] = {
            index: self.clients[index].begin_local_round(
                global_state, round_index
            )
            for index in pending
        }

        finished: Dict[int, ClientUpdate] = {}
        programs: Dict[int, FoldProgram] = {}
        preps: Dict[int, FoldPrep] = {}
        for indices in self._partition(pending, prepared, programs, preps):
            if len(indices) == 1 or indices[0] not in programs:
                for index in indices:
                    finished[index] = self._train_serial(
                        index, prepared[index], round_index
                    )
            else:
                finished.update(
                    self._train_group(
                        indices, prepared, programs, preps, round_index
                    )
                )

        for index in pending:
            update = finished[index]
            if cache is not None:
                update = cache.store(index, round_index, signature, update)
            updates[index] = update
        return updates  # type: ignore[return-value]

    # -- cohort partitioning ----------------------------------------------
    def _partition(
        self,
        pending: List[int],
        prepared: Dict[int, FingerprintDataset],
        programs: Dict[int, FoldProgram],
        preps: Dict[int, FoldPrep],
    ) -> List[List[int]]:
        """Group trainable clients into fold-stackable cohorts.

        The key is everything the stacked program shares across folds:
        the training schedule, the effective (post-screening) sample
        count (folds share batch boundaries) and the program's structure
        key.  Clients whose model declines batching, or whose screening
        phase kept nothing, get singleton groups (serial fallback).
        ``programs`` / ``preps`` are populated as a side effect for the
        training phase.
        """
        groups: Dict[Tuple, List[int]] = {}
        for index in pending:
            client = self.clients[index]
            program = client.model.fold_batch_program()
            if program is None:
                groups[("serial", index)] = [index]
                continue
            prep = program.prepare(prepared[index])
            if prep is None:
                # nothing trustworthy survived screening: the serial tail
                # reproduces the skip-the-round / zero-loss contract
                groups[("serial", index)] = [index]
                continue
            programs[index] = program
            preps[index] = prep
            key = (
                "batched",
                client.config.epochs,
                client.config.lr,
                client.config.batch_size,
                len(prep.dataset),
                program.structure_key(),
            )
            groups.setdefault(key, []).append(index)
        return list(groups.values())

    # -- training paths ----------------------------------------------------
    def _train_serial(
        self, index: int, dataset: FingerprintDataset, round_index: int
    ) -> ClientUpdate:
        """Exact serial tail of ``local_update`` for one prepared client."""
        client = self.clients[index]
        train_rng = client_round_rng(client.seeds, "train", round_index)
        loss = client.model.train_epochs(
            dataset,
            epochs=client.config.epochs,
            lr=client.config.lr,
            rng=train_rng,
            batch_size=client.config.batch_size,
        )
        return client.build_update(dataset, loss)

    def _train_group(
        self,
        indices: List[int],
        prepared: Dict[int, FingerprintDataset],
        programs: Dict[int, FoldProgram],
        preps: Dict[int, FoldPrep],
        round_index: int,
    ) -> Dict[int, ClientUpdate]:
        """One stacked training program for a schedule-uniform cohort."""
        clients = [self.clients[index] for index in indices]
        config = clients[0].config
        rngs = [
            client_round_rng(client.seeds, "train", round_index)
            for client in clients
        ]
        fold_losses = programs[indices[0]].train_cohort(
            [programs[index] for index in indices],
            [preps[index] for index in indices],
            config,
            rngs,
        )
        return {
            index: self.clients[index].build_update(
                prepared[index], float(fold_losses[fold])
            )
            for fold, index in enumerate(indices)
        }
