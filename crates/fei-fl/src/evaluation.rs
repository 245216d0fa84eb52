//! Global-model evaluation shared by the synchronous engines.
//!
//! Both [`crate::FedAvg`] and [`crate::ThreadedFedAvg`] evaluate the same
//! datasets after a round — the test set and every client shard — through
//! one [`fei_ml::evaluate_sets`] job list, so a round computes each
//! sample's logits once and, when the engine owns a gradient
//! [`WorkerPool`], spreads the whole-dataset jobs over it.

use std::sync::Arc;

use fei_data::Dataset;
use fei_ml::{evaluate_sets, Evaluation, Model, WorkerPool};

/// The datasets an engine evaluates its global model on.
#[derive(Debug, Clone)]
pub(crate) struct EvalSets {
    /// The test set, then the client shards in client order.
    sets: Vec<Arc<Dataset>>,
}

impl EvalSets {
    pub(crate) fn new(test: Dataset, clients: &[Arc<Dataset>]) -> Self {
        let mut sets = Vec::with_capacity(clients.len() + 1);
        sets.push(Arc::new(test));
        sets.extend(clients.iter().cloned());
        Self { sets }
    }

    /// Test-set evaluation of `model`.
    pub(crate) fn test<M: Model>(&self, model: &M) -> Evaluation {
        model.evaluate(&self.sets[0])
    }

    /// Loss of `model` over the union of all client data (the "global loss
    /// value" of Fig. 4).
    pub(crate) fn train_loss<M: Model>(&self, model: &M, pool: Option<&WorkerPool>) -> f64 {
        let shards = &self.sets[1..];
        weighted_loss(shards, &evaluate_sets(model, shards, pool))
    }

    /// [`EvalSets::train_loss`] and [`EvalSets::test`] from one job list.
    pub(crate) fn round<M: Model>(
        &self,
        model: &M,
        pool: Option<&WorkerPool>,
    ) -> (f64, Evaluation) {
        let evals = evaluate_sets(model, &self.sets, pool);
        (weighted_loss(&self.sets[1..], &evals[1..]), evals[0])
    }
}

/// `Σ_c loss_c · n_c / N` in client order. Summing the per-shard means
/// weighted by size — not the raw per-sample totals — is part of the
/// pinned numeric contract.
fn weighted_loss(shards: &[Arc<Dataset>], evals: &[Evaluation]) -> f64 {
    let total: usize = shards.iter().map(|c| c.len()).sum();
    let weighted: f64 = shards
        .iter()
        .zip(evals)
        .map(|(c, e)| e.loss * c.len() as f64)
        .sum();
    weighted / total as f64
}
