//! Model-quality metrics: accuracy and loss over a dataset.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::channel;
use std::sync::Arc;

use fei_data::Dataset;
use serde::{Deserialize, Serialize};

use crate::pool::WorkerPool;
use crate::traits::Model;

/// Classification accuracy of `model` on `data`, in `[0, 1]`.
///
/// # Panics
///
/// Panics if `data` is empty or shapes mismatch.
///
/// # Example
///
/// ```
/// use fei_data::Dataset;
/// use fei_ml::{accuracy, LogisticRegression};
///
/// let data = Dataset::from_parts(1, vec![0.0, 1.0], vec![0, 1], 2);
/// let model = LogisticRegression::from_flat(1, 2, vec![-4.0, 4.0, 0.0, 0.0]);
/// assert_eq!(accuracy(&model, &data), 1.0);
/// ```
pub fn accuracy<M: Model>(model: &M, data: &Dataset) -> f64 {
    assert!(!data.is_empty(), "accuracy over empty dataset");
    let correct = data.iter().filter(|(x, y)| model.predict(x) == *y).count();
    correct as f64 / data.len() as f64
}

/// A paired loss/accuracy measurement of a model on a dataset — one point of
/// the convergence curves in Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Mean cross-entropy loss.
    pub loss: f64,
    /// Classification accuracy in `[0, 1]`.
    pub accuracy: f64,
}

/// Evaluates `model` on every dataset in `sets` and returns one
/// [`Evaluation`] per set, in `sets` order.
///
/// Each dataset is one whole job running [`Model::evaluate`], so a result
/// depends only on `(model, set)`. With a `pool` of two or more workers the
/// sets are dealt out in order, each to the worker holding the fewest
/// samples so far, and every worker evaluates its sets against its own
/// copy of the model; otherwise the sets run inline. Either way the output
/// is bit-identical. A worker panic is re-raised on the calling thread
/// once every worker has reported.
///
/// # Panics
///
/// Panics if a set is empty or its shape mismatches the model.
pub fn evaluate_sets<M: Model>(
    model: &M,
    sets: &[Arc<Dataset>],
    pool: Option<&WorkerPool>,
) -> Vec<Evaluation> {
    let workers = pool.map_or(0, WorkerPool::size).min(sets.len());
    let Some(pool) = pool.filter(|_| workers > 1) else {
        return sets.iter().map(|set| model.evaluate(set)).collect();
    };
    let mut jobs = vec![Vec::new(); workers];
    let mut load = vec![0usize; workers];
    for (i, set) in sets.iter().enumerate() {
        let w = (0..workers)
            .min_by_key(|&w| load[w])
            .expect("invariant: at least two workers");
        load[w] += set.len();
        jobs[w].push((i, Arc::clone(set)));
    }
    let (tx, rx) = channel();
    for (w, job) in jobs.into_iter().enumerate() {
        let model = model.clone();
        let tx = tx.clone();
        pool.submit(w, move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                job.iter()
                    .map(|(i, set)| (*i, model.evaluate(set)))
                    .collect::<Vec<_>>()
            }));
            let _ = tx.send(outcome);
        });
    }
    drop(tx);

    let mut out = vec![
        Evaluation {
            loss: 0.0,
            accuracy: 0.0
        };
        sets.len()
    ];
    let mut worker_panic = None;
    for _ in 0..workers {
        match rx
            .recv()
            .expect("invariant: every pool job reports exactly once")
        {
            Ok(evals) => {
                for (i, eval) in evals {
                    out[i] = eval;
                }
            }
            Err(payload) => worker_panic = Some(payload),
        }
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LogisticRegression;

    fn two_point_data() -> Dataset {
        Dataset::from_parts(1, vec![-1.0, 1.0], vec![0, 1], 2)
    }

    #[test]
    fn perfect_and_inverted_classifiers() {
        let data = two_point_data();
        // Class-1 weight positive: x=1 -> class 1.
        let good = LogisticRegression::from_flat(1, 2, vec![-3.0, 3.0, 0.0, 0.0]);
        assert_eq!(accuracy(&good, &data), 1.0);
        let bad = LogisticRegression::from_flat(1, 2, vec![3.0, -3.0, 0.0, 0.0]);
        assert_eq!(accuracy(&bad, &data), 0.0);
    }

    #[test]
    fn zero_model_accuracy_is_first_class_rate() {
        // Uniform probabilities -> argmax ties resolve to class 0.
        let data = two_point_data();
        let model = LogisticRegression::zeros(1, 2);
        assert_eq!(accuracy(&model, &data), 0.5);
    }

    #[test]
    fn evaluation_pairs_loss_and_accuracy() {
        let data = two_point_data();
        let model = LogisticRegression::zeros(1, 2);
        let eval = model.evaluate(&data);
        assert!((eval.loss - (2.0f64).ln()).abs() < 1e-12);
        assert_eq!(eval.accuracy, 0.5);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn accuracy_rejects_empty() {
        let model = LogisticRegression::zeros(1, 2);
        let _ = accuracy(&model, &Dataset::empty(1, 2));
    }

    #[test]
    #[should_panic(expected = "dataset dimension mismatch")]
    fn pooled_evaluation_reraises_a_worker_panic() {
        let model = LogisticRegression::zeros(1, 2);
        let wide = Dataset::from_parts(3, vec![0.0; 3], vec![0], 2);
        let sets = [Arc::new(two_point_data()), Arc::new(wide)];
        let pool = WorkerPool::new(2);
        let _ = evaluate_sets(&model, &sets, Some(&pool));
    }
}

#[cfg(test)]
mod proptests {
    use fei_math::func::log_sum_exp;
    use proptest::prelude::*;

    use super::*;
    use crate::{LogisticRegression, Mlp};

    /// The two-walk reference as bits: the per-sample `logits()` loss
    /// summed in ascending order and divided by `len`, and the share of
    /// correct `predict` calls.
    fn reference(model: &LogisticRegression, data: &Dataset) -> (u64, u64) {
        let mut total = 0.0;
        for (x, y) in data.iter() {
            let logits = model.logits(x);
            total += log_sum_exp(&logits) - logits[y];
        }
        let loss = total / data.len() as f64;
        (loss.to_bits(), accuracy(model, data).to_bits())
    }

    fn bits(eval: Evaluation) -> (u64, u64) {
        (eval.loss.to_bits(), eval.accuracy.to_bits())
    }

    /// Largest generated shape: samples, dimension, classes.
    const MAX_N: usize = 60;
    const MAX_DIM: usize = 19;
    const MAX_CLASSES: usize = 7;

    /// A dataset of `n` samples plus a parameter vector for a logistic
    /// regression of its shape. `dim` runs over values that are not
    /// multiples of 8, so the striped tail runs, and `classes` over odd
    /// counts, so the last class has no `dot2` partner.
    fn case(n: impl Strategy<Value = usize>) -> impl Strategy<Value = (Dataset, Vec<f64>)> {
        (
            1..=MAX_DIM,
            2..=MAX_CLASSES,
            n,
            proptest::collection::vec(-3.0f64..3.0, MAX_N * MAX_DIM),
            proptest::collection::vec(any::<usize>(), MAX_N),
            proptest::collection::vec(-2.0f64..2.0, (MAX_DIM + 1) * MAX_CLASSES),
        )
            .prop_map(|(dim, classes, n, xs, ys, params)| {
                let ys = ys[..n].iter().map(|y| y % classes).collect();
                let data = Dataset::from_parts(dim, xs[..n * dim].to_vec(), ys, classes);
                (data, params[..(dim + 1) * classes].to_vec())
            })
    }

    proptest! {
        /// The one-pass evaluation lands on the two-walk reference's bits.
        #[test]
        fn one_pass_matches_the_two_walk_reference(
            (data, params) in case(prop_oneof![Just(1usize), 1..=MAX_N]),
        ) {
            let model = LogisticRegression::from_flat(data.dim(), data.num_classes(), params);
            let eval = Model::evaluate(&model, &data);
            prop_assert_eq!(bits(eval), reference(&model, &data));
            prop_assert_eq!(eval.loss.to_bits(), model.loss(&data).to_bits());
        }

        /// With every logit tied, argmax resolves to class 0 in both paths.
        #[test]
        fn zero_model_ties_resolve_to_class_zero((data, _) in case(1..=MAX_N)) {
            let model = LogisticRegression::zeros(data.dim(), data.num_classes());
            let eval = Model::evaluate(&model, &data);
            prop_assert_eq!(bits(eval), reference(&model, &data));
            let zeros = data.iter().filter(|&(_, y)| y == 0).count();
            prop_assert_eq!(eval.accuracy, zeros as f64 / data.len() as f64);
        }

        /// A model without an override evaluates through the trait's
        /// default, which is the two walks themselves.
        #[test]
        fn mlp_uses_the_default_two_walks(
            (data, _) in case(prop_oneof![Just(1usize), 1..=MAX_N]),
            hidden in 1usize..6,
            seed in any::<u64>(),
        ) {
            let mlp = Mlp::new(data.dim(), hidden, data.num_classes(), seed);
            let eval = mlp.evaluate(&data);
            prop_assert_eq!(eval.loss.to_bits(), mlp.loss(&data).to_bits());
            prop_assert_eq!(eval.accuracy.to_bits(), accuracy(&mlp, &data).to_bits());
        }

        /// Whole-dataset pool jobs return, in set order, exactly the
        /// inline evaluations, for any pool size and uneven set sizes.
        #[test]
        fn pooled_sets_match_inline(
            (data, params) in case(1..=MAX_N),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
            size in 0usize..=4,
        ) {
            let model = LogisticRegression::from_flat(data.dim(), data.num_classes(), params);
            let mut bounds: Vec<usize> = cuts.iter().map(|c| c % data.len()).collect();
            bounds.extend([0, data.len()]);
            bounds.sort_unstable();
            bounds.dedup();
            let sets: Vec<Arc<Dataset>> = bounds
                .windows(2)
                .map(|w| {
                    let (dim, classes) = (data.dim(), data.num_classes());
                    let xs = data.features_flat()[w[0] * dim..w[1] * dim].to_vec();
                    let ys = (w[0]..w[1]).map(|i| data.label(i)).collect();
                    Arc::new(Dataset::from_parts(dim, xs, ys, classes))
                })
                .collect();
            let inline: Vec<_> = evaluate_sets(&model, &sets, None).into_iter().map(bits).collect();
            let pool = WorkerPool::new(size);
            let pooled: Vec<_> =
                evaluate_sets(&model, &sets, Some(&pool)).into_iter().map(bits).collect();
            prop_assert_eq!(pooled, inline);
        }
    }
}
