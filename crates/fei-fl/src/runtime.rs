//! Threaded FedAvg: one OS thread per edge server.
//!
//! Exercises the full communication path of a real deployment: the
//! coordinator serializes the global model into a byte frame (`fei-net`
//! codec), sends it over a channel to each selected worker, and workers ship
//! their trained models back the same way. Given equal configuration and
//! seed the results are bit-identical to [`crate::FedAvg`] — an invariant the
//! integration tests pin down.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Buf;
use crossbeam::channel::{unbounded, Receiver, Sender};
use fei_data::Dataset;
use fei_ml::{GradReduction, GradScratch, LocalTrainer, LogisticRegression, Model, WorkerPool};
use fei_net::codec::{decode_frame, encode_frame, encode_frame_into, FRAME_OVERHEAD};
use fei_net::wire::{WireConfig, WireScratch};
use fei_proto::{control_round_bytes, DeviceReport, RoundMachine, RoundPolicy};
use parking_lot::Mutex;

use crate::adversary::{flip_dataset_labels, Adversary, AdversarySpec};
use crate::aggregate::try_aggregate;
use crate::error::FlError;
use crate::evaluation::EvalSets;
use crate::fault::FaultInjector;
use crate::fedavg::{FedAvgConfig, RoundFaultStats, RoundOutcome, RoundRecord, StopCondition};
use crate::history::TrainingHistory;
use crate::resume::EngineCheckpoint;
use crate::robust::{robust_aggregate, UpdateScreen};
use crate::selection::ClientSelector;

/// Wall-clock safety net for a worker reply. Fault schedules are virtual —
/// this only fires when a worker thread genuinely died or wedged, in which
/// case the round proceeds without it instead of hanging.
const DEFAULT_WORKER_TIMEOUT: Duration = Duration::from_secs(30);

/// Frame tag for coordinator → worker global-model dispatch.
const MSG_GLOBAL: u8 = 1;
/// Frame tag for worker → coordinator model upload.
const MSG_UPDATE: u8 = 2;

/// Meta bytes in a global-model frame payload: round and epochs.
const GLOBAL_META: usize = 4 + 4;
/// Meta bytes in an update frame payload: round, client, samples, and the
/// initial/final local losses.
const UPDATE_META: usize = 4 + 4 + 8 + 8 + 8;

/// Exact length of a coordinator → worker global-model frame for an
/// `n`-parameter model. The downlink broadcast is always lossless `F64`, so
/// every worker holds a bit-exact copy of the global model — the shared base
/// that makes delta uploads decodable and keeps both engines bit-identical.
pub(crate) fn global_frame_len(n: usize) -> usize {
    FRAME_OVERHEAD + GLOBAL_META + WireConfig::lossless().payload_len(n)
}

/// Exact length of a worker → coordinator update frame for an `n`-parameter
/// model under `transport`. The serial engine charges these same lengths to
/// its simulated [`TransportStats`], byte for byte.
pub(crate) fn update_frame_len(transport: WireConfig, n: usize) -> usize {
    FRAME_OVERHEAD + UPDATE_META + transport.payload_len(n)
}

/// Bytes moved over the wire in both directions, tracked across workers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportStats {
    /// Bytes of global-model frames received by workers.
    pub bytes_down: u64,
    /// Bytes of update frames sent by workers.
    pub bytes_up: u64,
    /// Bytes retransmitted on the uplink: every lost or corrupted upload
    /// attempt resends the full update frame.
    pub bytes_retransmitted: u64,
    /// Control-plane bytes (selection notices, heartbeats, round verdicts)
    /// of the coordinator protocol, both directions. Model payloads ride
    /// the data-plane frames counted above.
    pub bytes_control: u64,
    /// Number of local-training jobs executed.
    pub jobs: u64,
}

enum ToWorker {
    Train {
        round: u32,
        epochs: u32,
        frame: Vec<u8>,
        /// Train on the label-flipped copy of this worker's dataset (the
        /// device is a compromised label-flip client).
        flip: bool,
    },
    /// Test/chaos hook: the worker panics on receipt, simulating a process
    /// crash mid-deployment.
    Poison,
    Shutdown,
}

struct Update {
    round: u32,
    client: usize,
    samples: usize,
    params: Vec<f64>,
    initial_loss: f64,
    final_loss: f64,
}

fn encode_global(round: u32, epochs: u32, params: &[f64], wire: &mut WireScratch) -> Vec<u8> {
    let mut payload =
        Vec::with_capacity(GLOBAL_META + WireConfig::lossless().payload_len(params.len()));
    payload.extend_from_slice(&round.to_be_bytes());
    payload.extend_from_slice(&epochs.to_be_bytes());
    wire.encode_into(WireConfig::lossless(), params, None, &mut payload);
    encode_frame(MSG_GLOBAL, &payload).to_vec()
}

#[cfg(test)]
fn decode_global(frame: &[u8]) -> (u32, u32, Vec<f64>) {
    let mut params = Vec::new();
    let mut wire = WireScratch::new();
    let (round, epochs) = decode_global_into(frame, &mut params, &mut wire);
    (round, epochs, params)
}

/// Decodes a global-model frame into a reused parameter buffer, so a worker
/// that keeps the buffer across rounds pays no per-frame allocation once the
/// buffer reaches model size.
fn decode_global_into(frame: &[u8], params: &mut Vec<f64>, wire: &mut WireScratch) -> (u32, u32) {
    let (frame, _) = decode_frame(frame)
        .expect("invariant: coordinator frames are encoded in-process and cannot be malformed");
    assert_eq!(frame.msg_type, MSG_GLOBAL, "expected a global-model frame");
    let mut buf = &frame.payload[..];
    let round = buf.get_u32();
    let epochs = buf.get_u32();
    let config = wire
        .decode_into(buf, None, params)
        .expect("invariant: coordinator payloads are encoded in-process and cannot be malformed");
    debug_assert!(config.is_lossless(), "the downlink broadcast is lossless");
    (round, epochs)
}

/// Encodes an update frame under the run's transport tier. With a delta
/// tier, `base` is the worker's bit-exact copy of this round's global model.
/// The wire payload is staged in the worker's persistent `payload_buf`, so
/// the codec hot path allocates nothing once warm; only the returned frame
/// (whose ownership the channel takes) is fresh.
fn encode_update(
    update: &Update,
    transport: WireConfig,
    base: &[f64],
    wire: &mut WireScratch,
    payload_buf: &mut Vec<u8>,
) -> Vec<u8> {
    payload_buf.clear();
    payload_buf.extend_from_slice(&update.round.to_be_bytes());
    payload_buf.extend_from_slice(&(update.client as u32).to_be_bytes());
    payload_buf.extend_from_slice(&(update.samples as u64).to_be_bytes());
    payload_buf.extend_from_slice(&update.initial_loss.to_le_bytes());
    payload_buf.extend_from_slice(&update.final_loss.to_le_bytes());
    wire.encode_into(transport, &update.params, Some(base), payload_buf);
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload_buf.len());
    encode_frame_into(MSG_UPDATE, payload_buf, &mut frame);
    frame
}

/// Decodes an update frame. `base` is the coordinator's current global model
/// (not yet aggregated this round), the same base every worker encoded
/// deltas against.
fn decode_update(frame: &[u8], base: &[f64], wire: &mut WireScratch) -> Update {
    let (frame, _) = decode_frame(frame).expect(
        "invariant: worker frames survived the codec checksum before reaching the coordinator",
    );
    assert_eq!(frame.msg_type, MSG_UPDATE, "expected an update frame");
    let mut buf = &frame.payload[..];
    let round = buf.get_u32();
    let client = buf.get_u32() as usize;
    let samples = buf.get_u64() as usize;
    let initial_loss = buf.get_f64_le();
    let final_loss = buf.get_f64_le();
    let mut params = Vec::new();
    wire.decode_into(buf, Some(base), &mut params)
        .expect("invariant: worker payloads are encoded in-process against the shared base");
    Update {
        round,
        client,
        samples,
        params,
        initial_loss,
        final_loss,
    }
}

/// FedAvg with edge servers running on dedicated threads, generic over the
/// trained [`Model`] (multinomial logistic regression by default).
pub struct ThreadedFedAvg<M: Model = LogisticRegression> {
    config: FedAvgConfig,
    /// The test set and client shards (shared immutably with the worker
    /// threads), evaluated coordinator-side in one pass per round.
    evals: EvalSets,
    global: M,
    selector: ClientSelector,
    round: usize,
    dropout_rng: fei_sim::DetRng,
    client_sizes: Vec<usize>,
    to_workers: Vec<Sender<ToWorker>>,
    from_workers: Receiver<Vec<u8>>,
    handles: Vec<JoinHandle<()>>,
    stats: Arc<Mutex<TransportStats>>,
    /// Coordinator-side wire workspace: encodes the downlink broadcast and
    /// decodes every update frame, allocation-free once warm.
    wire: WireScratch,
    injector: Option<FaultInjector>,
    adversary: Option<Adversary>,
    worker_timeout: Duration,
    /// The gradient pool the client workers share, also running the
    /// coordinator's evaluation jobs (`None` for the serial reductions).
    pool: Option<Arc<WorkerPool>>,
}

impl ThreadedFedAvg<LogisticRegression> {
    /// Spawns one worker thread per client dataset, training the paper's
    /// zero-initialized multinomial logistic regression.
    ///
    /// # Panics
    ///
    /// Same validation as [`crate::FedAvg::new`].
    pub fn new(config: FedAvgConfig, clients: Vec<Dataset>, test: Dataset) -> Self {
        assert!(!clients.is_empty(), "need at least one client dataset");
        let global = LogisticRegression::zeros(clients[0].dim(), clients[0].num_classes());
        Self::with_model(config, clients, test, global)
    }
}

impl<M: Model> ThreadedFedAvg<M> {
    /// Spawns one worker thread per client dataset with an explicit initial
    /// global model `ω₀`.
    ///
    /// # Panics
    ///
    /// Same validation as [`crate::FedAvg::with_model`].
    pub fn with_model(
        config: FedAvgConfig,
        clients: Vec<Dataset>,
        test: Dataset,
        global: M,
    ) -> Self {
        assert!(!clients.is_empty(), "need at least one client dataset");
        assert!(
            clients.iter().all(|c| !c.is_empty()),
            "every client needs at least one sample"
        );
        let dim = clients[0].dim();
        let classes = clients[0].num_classes();
        assert!(
            clients
                .iter()
                .all(|c| c.dim() == dim && c.num_classes() == classes),
            "client datasets must share a shape"
        );
        assert!(config.clients_per_round > 0, "K must be at least 1");
        assert!(
            config.clients_per_round <= clients.len(),
            "K = {} exceeds N = {}",
            config.clients_per_round,
            clients.len()
        );
        assert!(config.local_epochs > 0, "E must be at least 1");
        assert!(config.eval_every > 0, "eval_every must be at least 1");
        assert!(
            (0.0..1.0).contains(&config.dropout_prob),
            "dropout probability must be in [0, 1)"
        );
        if let Some(defense) = &config.defense {
            defense.screen.validate();
        }

        assert_eq!(global.dim(), dim, "model dimension mismatch");
        assert_eq!(global.num_classes(), classes, "model class mismatch");
        let selector = ClientSelector::new(config.selection, clients.len(), config.seed);
        let stats = Arc::new(Mutex::new(TransportStats::default()));
        let (result_tx, from_workers) = unbounded::<Vec<u8>>();

        let client_sizes: Vec<usize> = clients.iter().map(Dataset::len).collect();
        let client_data: Vec<Arc<Dataset>> = clients.into_iter().map(Arc::new).collect();
        let mut to_workers = Vec::with_capacity(client_data.len());
        let mut handles = Vec::with_capacity(client_data.len());

        // One persistent gradient pool shared by every client worker and the
        // coordinator's evaluation (the pooled kernels are bit-identical to
        // the inline ones, so sharing changes scheduling, never numerics).
        let pool = match config.sgd.grad {
            GradReduction::FusedParallel { threads } if threads > 1 => {
                Some(Arc::new(WorkerPool::new(threads)))
            }
            _ => None,
        };

        for (id, data) in client_data.iter().enumerate() {
            let (tx, rx) = unbounded::<ToWorker>();
            to_workers.push(tx);
            let data = Arc::clone(data);
            let result_tx = result_tx.clone();
            let trainer = LocalTrainer::new(config.sgd.clone());
            let stats = Arc::clone(&stats);
            let template = global.clone();
            let transport = config.transport;
            let grad_pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(
                    id,
                    template,
                    &data,
                    &trainer,
                    transport,
                    &rx,
                    &result_tx,
                    &stats,
                    grad_pool.as_deref(),
                );
            }));
        }

        let dropout_rng = fei_sim::DetRng::new(config.seed).fork(0xD80);
        Self {
            config,
            evals: EvalSets::new(test, &client_data),
            global,
            selector,
            round: 0,
            dropout_rng,
            client_sizes,
            to_workers,
            from_workers,
            handles,
            stats,
            wire: WireScratch::new(),
            injector: None,
            adversary: None,
            worker_timeout: DEFAULT_WORKER_TIMEOUT,
            pool,
        }
    }

    /// Attaches a seeded fault injector; see [`crate::FedAvg::with_faults`].
    /// Fault decisions are made coordinator-side from the same pure
    /// schedule, so both engines stay bit-identical under the same seed.
    ///
    /// # Panics
    ///
    /// Panics when `dropout_prob` is also set.
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        assert_eq!(
            self.config.dropout_prob, 0.0,
            "use either dropout_prob or a fault injector, not both"
        );
        self.injector = Some(injector);
        self
    }

    /// Compromises a seeded fraction of the fleet; see
    /// [`crate::FedAvg::with_adversary`]. Attacks on uploaded parameters are
    /// applied coordinator-side to the decoded frames (the codec
    /// round-trips `f64`s exactly), and label-flip cohorts are flagged in
    /// the dispatch so workers train on flipped copies — both engines
    /// observe bit-identical attacks under the same spec.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`AdversarySpec`] (see [`Adversary::new`]).
    pub fn with_adversary(mut self, spec: AdversarySpec) -> Self {
        self.adversary = Some(Adversary::new(spec, self.client_sizes.len()));
        self
    }

    /// The attached adversary, if any.
    pub fn adversary(&self) -> Option<&Adversary> {
        self.adversary.as_ref()
    }

    /// Overrides the wall-clock reply timeout used to detect dead workers.
    pub fn with_worker_timeout(mut self, timeout: Duration) -> Self {
        self.worker_timeout = timeout;
        self
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Chaos hook: makes `client`'s worker thread panic on its next message,
    /// simulating a process crash. Subsequent rounds count the dead worker
    /// as a dropout — they never hang on it.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn inject_worker_panic(&self, client: usize) {
        let _ = self.to_workers[client].send(ToWorker::Poison);
    }

    /// The run's configuration.
    pub fn config(&self) -> &FedAvgConfig {
        &self.config
    }

    /// The current global model.
    pub fn global_model(&self) -> &M {
        &self.global
    }

    /// Rounds completed so far.
    pub fn rounds_completed(&self) -> usize {
        self.round
    }

    /// Cumulative transport statistics across all workers.
    pub fn transport_stats(&self) -> TransportStats {
        *self.stats.lock()
    }

    /// Captures the engine's resumable state; see
    /// [`crate::FedAvg::checkpoint`]. Checkpoints are interchangeable
    /// between the serial and threaded engines.
    pub fn checkpoint(&self) -> EngineCheckpoint<M> {
        EngineCheckpoint {
            round: self.round,
            global: self.global.clone(),
            selector: self.selector.clone(),
            dropout_rng: self.dropout_rng.clone(),
            transport: *self.stats.lock(),
            clients_per_round: self.config.clients_per_round,
            local_epochs: self.config.local_epochs,
        }
    }

    /// Rewinds the engine to a checkpoint taken from either execution
    /// engine over the same fleet and configuration. Worker threads keep
    /// running — only coordinator-side state rewinds, which is all a round
    /// depends on (workers are stateless between jobs).
    ///
    /// # Panics
    ///
    /// Panics if the checkpointed model's shape does not match this
    /// engine's datasets, or its `K` exceeds the fleet.
    pub fn restore(&mut self, checkpoint: EngineCheckpoint<M>) {
        assert_eq!(
            checkpoint.global.dim(),
            self.global.dim(),
            "checkpoint model dimension mismatch"
        );
        assert_eq!(
            checkpoint.global.num_classes(),
            self.global.num_classes(),
            "checkpoint model class mismatch"
        );
        assert!(
            checkpoint.clients_per_round >= 1
                && checkpoint.clients_per_round <= self.client_sizes.len(),
            "checkpoint K = {} out of range for N = {}",
            checkpoint.clients_per_round,
            self.client_sizes.len()
        );
        assert!(
            checkpoint.local_epochs >= 1,
            "checkpoint E must be at least 1"
        );
        self.round = checkpoint.round;
        self.global = checkpoint.global;
        self.selector = checkpoint.selector;
        self.dropout_rng = checkpoint.dropout_rng;
        *self.stats.lock() = checkpoint.transport;
        self.config.clients_per_round = checkpoint.clients_per_round;
        self.config.local_epochs = checkpoint.local_epochs;
    }

    /// Loss of the current global model over all client data.
    pub fn global_train_loss(&self) -> f64 {
        self.evals.train_loss(&self.global, self.pool.as_deref())
    }

    /// Executes one global round across the worker threads.
    ///
    /// # Panics
    ///
    /// Panics if the round fails outright (see
    /// [`ThreadedFedAvg::try_run_round`]); impossible without a fault
    /// injector.
    pub fn run_round(&mut self) -> RoundRecord {
        // fei-lint: allow(no-panic, reason = "documented panicking convenience wrapper; fallible callers use try_run_round")
        self.try_run_round().expect("federated round failed")
    }

    /// Executes one global round, reporting fleet exhaustion as a typed
    /// error. Mirrors [`crate::FedAvg::try_run_round`] decision-for-decision
    /// so both engines produce bit-identical records under the same seeds.
    ///
    /// The coordinator survives worker failures: a send to a dead worker or
    /// a missing reply (panic, wedge) counts the worker as a dropout
    /// ([`RoundFaultStats::worker_losses`]) after a wall-clock timeout —
    /// the round always terminates.
    ///
    /// # Errors
    ///
    /// [`FlError::FleetBelowQuorum`] when fewer devices are up than the
    /// quorum requires (the round counter is not advanced), and
    /// [`FlError::Aggregate`] when the delivered updates could not be
    /// combined (the global model is unchanged).
    pub fn try_run_round(&mut self) -> Result<RoundRecord, FlError> {
        let t = self.round;
        let mut faults = RoundFaultStats::default();

        // Decide the round plan coordinator-side (matching the in-process
        // engine's decisions) so both engines stay bit-identical.
        let (selected, planned) = match self.injector.as_ref().filter(|i| i.is_enabled()).cloned() {
            None => {
                let selected = self.selector.select(t, self.config.clients_per_round);
                let planned: Vec<usize> = selected
                    .iter()
                    .copied()
                    .filter(|_| {
                        // fei-lint: allow(float-eq, reason = "configuration sentinel: exactly-zero dropout must not consume RNG draws, or seeds diverge")
                        self.config.dropout_prob == 0.0
                            || self.dropout_rng.next_f64() >= self.config.dropout_prob
                    })
                    .collect();
                (selected, planned)
            }
            Some(injector) => {
                let tol = self.config.tolerance.clone();
                let n = self.client_sizes.len();

                // The same fei-proto round decision core the in-process
                // engine executes: one implementation of the quorum gate,
                // selection width, deadline admission, and first-K race.
                let policy = RoundPolicy {
                    k: self.config.clients_per_round,
                    over_select: tol.over_select,
                    quorum: tol.effective_quorum(),
                    deadline_s: tol.deadline_s,
                };
                let alive = injector.live_fleet(n, t).len();
                // `RoundMachine::begin` fails only on quorum loss.
                let mut machine = RoundMachine::begin(policy, t as u64, alive).map_err(|_| {
                    FlError::FleetBelowQuorum {
                        round: t,
                        alive,
                        required: policy.quorum,
                    }
                })?;

                let selected = self.selector.select(t, machine.selection_width(n));

                for &device in &selected {
                    if injector.is_down(device, t) {
                        machine.offer_crashed(device);
                        continue;
                    }
                    let factor = injector.straggle_factor(device, t);
                    let upload = injector.upload_outcome(device, t, &tol.retry);
                    faults.corrupted_frames += upload.corrupted;
                    faults.upload_retries += upload.attempts - 1;
                    machine.offer(
                        device,
                        DeviceReport {
                            straggle_factor: factor,
                            delivered: upload.delivered,
                            arrival_s: tol.nominal_round_s * factor + upload.backoff_s,
                        },
                    );
                }

                let closed = machine.close();
                faults.crashed = closed.tally.crashed;
                faults.stragglers = closed.tally.stragglers;
                faults.abandoned_uploads = closed.tally.abandoned_uploads;
                faults.deadline_misses = closed.tally.deadline_misses;
                (selected, closed.accepted)
            }
        };

        // Dispatch. A send failure means the worker's thread is gone (e.g.
        // it panicked): count it as a dropout rather than crashing the run.
        let frame = encode_global(
            t as u32,
            self.config.local_epochs as u32,
            self.global.to_flat(),
            &mut self.wire,
        );
        let mut pending = BTreeSet::new();
        for &client in &planned {
            let sent = self.to_workers[client]
                .send(ToWorker::Train {
                    round: t as u32,
                    epochs: self.config.local_epochs as u32,
                    frame: frame.clone(),
                    flip: self
                        .adversary
                        .as_ref()
                        .is_some_and(|adv| adv.flips_labels(client)),
                })
                .is_ok();
            if sent {
                pending.insert(client);
            } else {
                faults.worker_losses += 1;
            }
        }

        // Collect replies. The wall-clock timeout is a liveness safety net:
        // a worker that dies mid-job stops the wait, and its absence is a
        // dropout — the round never hangs and never poisons shared state.
        let mut updates: Vec<(Update, usize)> = Vec::with_capacity(pending.len());
        while !pending.is_empty() {
            match self.from_workers.recv_timeout(self.worker_timeout) {
                Ok(reply) => {
                    let frame_len = reply.len();
                    let update = decode_update(&reply, self.global.to_flat(), &mut self.wire);
                    // Discard stale frames from rounds a dead worker missed.
                    if update.round == t as u32 && pending.remove(&update.client) {
                        updates.push((update, frame_len));
                    }
                }
                Err(_) => {
                    faults.worker_losses += pending.len();
                    pending.clear();
                }
            }
        }
        // Restore deterministic order: workers reply in arbitrary order.
        updates.sort_by_key(|(u, _)| u.client);
        let responded: Vec<usize> = updates.iter().map(|(u, _)| u.client).collect();

        // Apply parameter attacks coordinator-side, on the decoded frames:
        // the codec round-trips `f64`s exactly, so the poisoned values are
        // bit-identical to the in-process engine's.
        if let Some(adversary) = &self.adversary {
            let global_flat = self.global.to_flat();
            for (u, _) in updates.iter_mut() {
                adversary.poison(u.client, t, global_flat, &mut u.params);
            }
        }

        // Charge uplink retransmissions decided by the fault schedule: each
        // failed attempt resent the full update frame.
        if let Some(injector) = &self.injector {
            if injector.is_enabled() {
                let retry = &self.config.tolerance.retry;
                let resent: u64 = updates
                    .iter()
                    .map(|(u, len)| {
                        let attempts = injector.upload_outcome(u.client, t, retry).attempts;
                        (attempts as u64 - 1) * *len as u64
                    })
                    .sum();
                if resent > 0 {
                    self.stats.lock().bytes_retransmitted += resent;
                }
            }
        }

        // Screen the delivered updates exactly as the in-process engine
        // does: a screened-out update counts as undelivered for quorum.
        let mut pairs: Vec<(Vec<f64>, usize)> = updates
            .iter()
            .map(|(u, _)| (u.params.clone(), u.samples))
            .collect();
        if let Some(defense) = &self.config.defense {
            let report =
                UpdateScreen::new(defense.screen).screen(&mut pairs, self.global.to_flat().len());
            faults.screened_updates = report.rejected_count();
            faults.clipped_updates = report.clipped;
        }

        let quorum = self.config.tolerance.effective_quorum();
        let outcome = RoundOutcome::of(pairs.len(), selected.len(), quorum);

        // Control-plane traffic of the protocol round, charged exactly as
        // the in-process engine charges it.
        self.stats.lock().bytes_control += control_round_bytes(
            selected.len(),
            selected.len() - faults.crashed,
            outcome.committed(),
            responded.len(),
        );
        if outcome.committed() && !pairs.is_empty() {
            let merged = match &self.config.defense {
                Some(defense) => robust_aggregate(&pairs, defense.rule),
                None => try_aggregate(&pairs, self.config.aggregation),
            }
            .map_err(|source| FlError::Aggregate { round: t, source })?;
            self.global.set_flat(&merged);
        }
        self.round += 1;

        let evaluated = self.round.is_multiple_of(self.config.eval_every);
        let (global_train_loss, test_eval) = evaluated
            .then(|| self.evals.round(&self.global, self.pool.as_deref()))
            .unzip();
        Ok(RoundRecord {
            round: t,
            selected,
            responded,
            local_stats: updates
                .iter()
                .map(|(u, _)| fei_ml::TrainStats {
                    epochs_run: self.config.local_epochs,
                    gradient_steps: self.config.local_epochs,
                    initial_loss: u.initial_loss,
                    final_loss: u.final_loss,
                    samples: u.samples,
                })
                .collect(),
            global_train_loss,
            test_eval,
            outcome,
            faults,
        })
    }

    /// Runs rounds until `stop` is satisfied.
    ///
    /// # Panics
    ///
    /// Panics if a round fails outright; impossible without a fault
    /// injector.
    pub fn run_until(&mut self, stop: StopCondition) -> TrainingHistory {
        // fei-lint: allow(no-panic, reason = "documented panicking convenience wrapper; fallible callers use try_run_until")
        self.try_run_until(stop).expect("federated round failed")
    }

    /// Runs rounds until `stop` is satisfied, with the same missed-target
    /// recording and error semantics as [`crate::FedAvg::try_run_until`].
    ///
    /// # Errors
    ///
    /// Propagates [`FlError::FleetBelowQuorum`] from a failed round.
    pub fn try_run_until(&mut self, stop: StopCondition) -> Result<TrainingHistory, FlError> {
        let mut history = TrainingHistory::new();
        let mut reached = false;
        for _ in 0..stop.max_rounds {
            let record = self.try_run_round()?;
            reached = match (stop.target_accuracy, &record.test_eval) {
                (Some(target), Some(eval)) => eval.accuracy >= target,
                _ => false,
            };
            history.push(record);
            if reached {
                break;
            }
        }
        if let (Some(target), false) = (stop.target_accuracy, reached) {
            history.record_missed_target(target);
        }
        Ok(history)
    }
}

impl<M: Model> Drop for ThreadedFedAvg<M> {
    fn drop(&mut self) {
        for tx in &self.to_workers {
            let _ = tx.send(ToWorker::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop<M: Model>(
    id: usize,
    template: M,
    data: &Arc<Dataset>,
    trainer: &LocalTrainer,
    transport: WireConfig,
    rx: &Receiver<ToWorker>,
    result_tx: &Sender<Vec<u8>>,
    stats: &Mutex<TransportStats>,
    grad_pool: Option<&WorkerPool>,
) {
    // Lazily built label-flipped copy, for compromised label-flip clients.
    let mut flipped: Option<Arc<Dataset>> = None;
    // Persistent per-worker hot state, reused across jobs: the model is
    // overwritten by `set_flat` each round, the gradient scratch keeps local
    // epochs allocation-free, and the decode buffer, wire workspace, and
    // payload stage absorb each frame without fresh allocations.
    let mut model = template;
    let mut params: Vec<f64> = Vec::new();
    let mut scratch = GradScratch::new();
    let mut wire = WireScratch::new();
    let mut payload_buf: Vec<u8> = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ToWorker::Shutdown => break,
            // fei-lint: allow(no-panic, reason = "fault injection: the panic IS the injected fault the supervisor must survive")
            ToWorker::Poison => panic!("injected worker panic (client {id})"),
            ToWorker::Train {
                round,
                epochs,
                frame,
                flip,
            } => {
                let frame_len = frame.len();
                let (wire_round, wire_epochs) = decode_global_into(&frame, &mut params, &mut wire);
                debug_assert_eq!(wire_round, round);
                debug_assert_eq!(wire_epochs, epochs);
                let train_data: &Arc<Dataset> = if flip {
                    flipped.get_or_insert_with(|| Arc::new(flip_dataset_labels(data)))
                } else {
                    data
                };
                model.set_flat(&params);
                let train_stats = match grad_pool {
                    Some(pool) => trainer.train_with_pool(
                        &mut model,
                        train_data,
                        epochs as usize,
                        round as usize,
                        &mut scratch,
                        pool,
                    ),
                    None => trainer.train_with(
                        &mut model,
                        train_data,
                        epochs as usize,
                        round as usize,
                        &mut scratch,
                    ),
                };
                let update = Update {
                    round,
                    client: id,
                    samples: data.len(),
                    params: model.to_flat().to_vec(),
                    initial_loss: train_stats.initial_loss,
                    final_loss: train_stats.final_loss,
                };
                // `params` still holds this round's decoded global model —
                // the bit-exact delta base shared with the coordinator.
                let reply = encode_update(&update, transport, &params, &mut wire, &mut payload_buf);
                {
                    let mut s = stats.lock();
                    s.bytes_down += frame_len as u64;
                    s.bytes_up += reply.len() as u64;
                    s.jobs += 1;
                }
                if result_tx.send(reply).is_err() {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use fei_data::{Partition, SyntheticMnist, SyntheticMnistConfig};
    use fei_sim::DetRng;

    use super::*;
    use crate::fedavg::FedAvg;

    fn setup(n_clients: usize, samples: usize) -> (Vec<Dataset>, Dataset) {
        let gen = SyntheticMnist::new(SyntheticMnistConfig {
            pixel_noise_std: 0.2,
            label_flip_prob: 0.0,
            ..Default::default()
        });
        let train = gen.generate(samples, 0);
        let test = gen.generate(samples / 4, 1);
        let parts = Partition::iid(train.len(), n_clients, &mut DetRng::new(7)).apply(&train);
        (parts, test)
    }

    #[test]
    fn threaded_matches_in_process_bit_for_bit() {
        let (clients, test) = setup(5, 150);
        let config = FedAvgConfig {
            clients_per_round: 3,
            local_epochs: 2,
            ..Default::default()
        };
        let mut serial = FedAvg::new(config.clone(), clients.clone(), test.clone());
        let mut threaded = ThreadedFedAvg::new(config, clients, test);
        for _ in 0..4 {
            let a = serial.run_round();
            let b = threaded.run_round();
            assert_eq!(a.selected, b.selected);
            assert_eq!(a.test_eval, b.test_eval);
        }
        assert_eq!(serial.global_model(), threaded.global_model());
    }

    #[test]
    fn threaded_matches_in_process_under_attack_and_defense() {
        use crate::adversary::{AdversarySpec, AttackBehavior};
        use crate::robust::{DefenseConfig, RobustRule};
        let (clients, test) = setup(6, 150);
        for behavior in [
            AttackBehavior::SignFlip,
            AttackBehavior::ScaledUpdate { boost: 20.0 },
            AttackBehavior::GaussianNoise { std_dev: 0.5 },
            AttackBehavior::LabelFlip,
        ] {
            let spec = AdversarySpec {
                fraction: 0.34,
                behavior,
                seed: 11,
            };
            let config = FedAvgConfig {
                clients_per_round: 4,
                local_epochs: 1,
                defense: Some(DefenseConfig::with_rule(RobustRule::TrimmedMean {
                    assumed_byzantine: 1,
                })),
                ..Default::default()
            };
            let mut serial =
                FedAvg::new(config.clone(), clients.clone(), test.clone()).with_adversary(spec);
            let mut threaded =
                ThreadedFedAvg::new(config, clients.clone(), test.clone()).with_adversary(spec);
            for _ in 0..3 {
                let a = serial.run_round();
                let b = threaded.run_round();
                assert_eq!(a.selected, b.selected, "{behavior:?}");
                assert_eq!(a.responded, b.responded, "{behavior:?}");
                assert_eq!(a.outcome, b.outcome, "{behavior:?}");
                assert_eq!(a.faults, b.faults, "{behavior:?}");
                assert_eq!(a.test_eval, b.test_eval, "{behavior:?}");
            }
            assert_eq!(
                serial.global_model(),
                threaded.global_model(),
                "{behavior:?}"
            );
        }
    }

    #[test]
    fn serial_simulated_bytes_match_threaded_measured_bytes() {
        use fei_net::wire::Encoding;
        let (clients, test) = setup(5, 100);
        for encoding in [Encoding::F64, Encoding::F32, Encoding::Q8] {
            for delta in [false, true] {
                let config = FedAvgConfig {
                    clients_per_round: 3,
                    local_epochs: 1,
                    transport: WireConfig { encoding, delta },
                    ..Default::default()
                };
                let mut serial = FedAvg::new(config.clone(), clients.clone(), test.clone());
                let mut threaded = ThreadedFedAvg::new(config, clients.clone(), test.clone());
                for _ in 0..3 {
                    serial.run_round();
                    threaded.run_round();
                }
                assert_eq!(
                    serial.transport_stats(),
                    threaded.transport_stats(),
                    "tier {encoding:?} delta={delta}"
                );
                assert!(serial.transport_stats().bytes_up > 0);
            }
        }
    }

    #[test]
    fn engines_agree_under_every_transport_tier() {
        use fei_net::wire::Encoding;
        let (clients, test) = setup(5, 120);
        for encoding in [Encoding::F64, Encoding::F32, Encoding::Q8] {
            for delta in [false, true] {
                let config = FedAvgConfig {
                    clients_per_round: 3,
                    local_epochs: 2,
                    transport: WireConfig { encoding, delta },
                    ..Default::default()
                };
                let mut serial = FedAvg::new(config.clone(), clients.clone(), test.clone());
                let mut threaded = ThreadedFedAvg::new(config, clients.clone(), test.clone());
                for _ in 0..3 {
                    let a = serial.run_round();
                    let b = threaded.run_round();
                    assert_eq!(a, b, "tier {encoding:?} delta={delta}");
                }
                assert_eq!(
                    serial.global_model(),
                    threaded.global_model(),
                    "tier {encoding:?} delta={delta}"
                );
            }
        }
    }

    #[test]
    fn transport_stats_accumulate() {
        let (clients, test) = setup(4, 80);
        let config = FedAvgConfig {
            clients_per_round: 2,
            local_epochs: 1,
            ..Default::default()
        };
        let mut threaded = ThreadedFedAvg::new(config, clients, test);
        assert_eq!(threaded.transport_stats(), TransportStats::default());
        threaded.run_round();
        threaded.run_round();
        let stats = threaded.transport_stats();
        assert_eq!(stats.jobs, 4);
        // Each direction moved 4 model-sized frames (plus headers).
        let model_bytes = (784 * 10 + 10) * 8;
        assert!(stats.bytes_down >= 4 * model_bytes as u64);
        assert!(stats.bytes_up >= 4 * model_bytes as u64);
    }

    #[test]
    fn run_until_collects_history() {
        let (clients, test) = setup(4, 80);
        let config = FedAvgConfig {
            clients_per_round: 2,
            local_epochs: 1,
            ..Default::default()
        };
        let mut threaded = ThreadedFedAvg::new(config, clients, test);
        let history = threaded.run_until(StopCondition::rounds(3));
        assert_eq!(history.len(), 3);
        assert!(history.last().unwrap().test_eval.is_some());
    }

    #[test]
    fn drop_shuts_workers_down() {
        let (clients, test) = setup(3, 60);
        let config = FedAvgConfig {
            clients_per_round: 1,
            local_epochs: 1,
            ..Default::default()
        };
        let threaded = ThreadedFedAvg::new(config, clients, test);
        drop(threaded); // must not hang or panic
    }

    #[test]
    fn frame_round_trips() {
        let mut wire = WireScratch::new();
        let params = vec![1.5, -2.5, 0.0];
        let frame = encode_global(7, 3, &params, &mut wire);
        assert_eq!(frame.len(), global_frame_len(params.len()));
        let (round, epochs, back) = decode_global(&frame);
        assert_eq!((round, epochs), (7, 3));
        assert_eq!(back, params);

        let update = Update {
            round: 7,
            client: 4,
            samples: 123,
            params: vec![9.0, -1.0],
            initial_loss: 2.5,
            final_loss: 1.25,
        };
        let base = vec![8.75, -1.5];
        let mut payload_buf = Vec::new();
        for transport in [
            WireConfig::lossless(),
            WireConfig {
                encoding: fei_net::wire::Encoding::F64,
                delta: true,
            },
        ] {
            let frame = encode_update(&update, transport, &base, &mut wire, &mut payload_buf);
            assert_eq!(
                frame.len(),
                update_frame_len(transport, update.params.len())
            );
            let decoded = decode_update(&frame, &base, &mut wire);
            assert_eq!(decoded.round, 7);
            assert_eq!(decoded.client, 4);
            assert_eq!(decoded.samples, 123);
            assert_eq!(decoded.params, vec![9.0, -1.0]);
            assert_eq!(decoded.initial_loss, 2.5);
            assert_eq!(decoded.final_loss, 1.25);
        }
    }
}
