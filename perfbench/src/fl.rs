//! The FedAvg workloads: campaigns run to the paper's 92 % target.
//!
//! Untraced, a campaign is what a user runs: generate and partition the
//! data, build the engine, and call `FedAvg::run_round` (evaluation every
//! round, as the paper does) until test accuracy reaches the target.
//!
//! Traced, the engine runs with evaluation off and the benchmark calls
//! `FedAvg::evaluate` and `FedAvg::global_train_loss` itself. Every round
//! is also re-driven on a shadow model through the public layer functions
//! (select → `train_with`/`train_with_pool` → `WireScratch::round_trip` →
//! `try_aggregate`); the shadow global must equal the engine's bit for bit,
//! which is what lets the shadow's spans stand for the engine's layers.

use std::sync::Arc;
use std::time::Instant;

use fei_data::{Dataset, Partition, SyntheticMnist};
use fei_fl::{try_aggregate, AggregationRule, ClientSelector, FedAvg, FedAvgConfig, WireConfig};
use fei_ml::{GradReduction, GradScratch, LocalTrainer, LogisticRegression, WorkerPool};
use fei_net::WireScratch;
use fei_sim::DetRng;
use fei_testbed::{FlExperimentConfig, Testbed, STRINGENT_TARGET};

use crate::report::{mean, median, median_of, round_time_metrics, Report};
use crate::trace::{SpanId, Tracer};
use crate::{panel_seed, schedule, Mode, DEFAULT_SEED};

/// One FedAvg workload.
#[derive(Debug, Clone, Copy)]
pub struct FlWorkload {
    pub name: &'static str,
    /// Clients per round `K`.
    pub k: usize,
    /// Local epochs `E`.
    pub e: usize,
    /// Fraction of the paper's 60 000 training samples.
    pub scale: f64,
    /// Gradient threads (`FusedParallel` above 1, `FusedSerial` at 1).
    pub threads: usize,
    /// Campaigns per run, each on its own partition and selection stream.
    pub panel: usize,
    /// Rounds per window when picking the run's least-disturbed stretch
    /// (see `report::round_time_metrics`).
    pub window: usize,
    /// A campaign that has not reached the target by this round fails.
    pub round_cap: usize,
    /// Rounds to target on the default seed.
    pub pinned_rounds: usize,
    /// FNV-1a of the final global model's f64 bits on the default seed.
    pub pinned_model_hash: u64,
}

/// The paper's `K = 1, E = 1` baseline: evaluation-bound.
pub const BASELINE: FlWorkload = FlWorkload {
    name: "baseline_k1e1",
    k: 1,
    e: 1,
    scale: 0.05,
    threads: 1,
    panel: 16,
    window: 100,
    round_cap: 600,
    pinned_rounds: 179,
    pinned_model_hash: 0x45dd_3fe2_bad8_7d96,
};

/// Large `(K, E)` on 750 samples per device: training-bound.
pub const DENSE: FlWorkload = FlWorkload {
    name: "dense_k10e10",
    k: 10,
    e: 10,
    scale: 0.25,
    threads: 2,
    panel: 4,
    window: 10,
    round_cap: 60,
    pinned_rounds: 17,
    pinned_model_hash: 0x5659_ac41_0900_47ad,
};

impl FlWorkload {
    fn experiment(&self, seed: u64) -> FlExperimentConfig {
        let mut config = FlExperimentConfig::paper_like();
        config.scale = self.scale;
        config.seed = seed;
        config.sgd.grad = if self.threads > 1 {
            GradReduction::FusedParallel {
                threads: self.threads,
            }
        } else {
            GradReduction::FusedSerial
        };
        config
    }

    fn engine_config(&self, exp: &FlExperimentConfig, eval_every: usize) -> FedAvgConfig {
        FedAvgConfig {
            clients_per_round: self.k,
            local_epochs: self.e,
            sgd: exp.sgd.clone(),
            eval_every,
            transport: exp.transport,
            seed: exp.seed ^ ((self.k as u64) << 32) ^ self.e as u64,
            ..Default::default()
        }
    }
}

/// The data layer: generates the synthetic-MNIST train and test sets and
/// splits the train set IID across the fleet, as `FlExperiment::prepare`
/// does for the paper's campaigns.
fn prepare(exp: &FlExperimentConfig) -> (Vec<Dataset>, Dataset) {
    let gen = SyntheticMnist::new(exp.data.clone());
    let train = gen.generate((60_000.0 * exp.scale).round() as usize, 0);
    let test = gen.generate((10_000.0 * exp.test_scale).round() as usize, 1);
    let mut rng = DetRng::new(exp.seed).fork(0x9A87);
    let clients = Partition::iid(train.len(), exp.num_devices, &mut rng).apply(&train);
    (clients, test)
}

/// FNV-1a over the f64 bit patterns of a parameter vector.
pub fn model_hash(params: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in params {
        for byte in value.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// What one campaign produced.
struct Campaign {
    member: usize,
    seed: u64,
    setup_s: f64,
    tta_s: f64,
    round_ms: Vec<f64>,
    rounds: usize,
    committed: usize,
    reached: bool,
    model_hash: u64,
    joules: f64,
}

/// Counters of a traced campaign that are not spans.
#[derive(Default)]
struct Counts {
    rounds: u64,
    jobs: u64,
    sample_epochs: f64,
    flops: f64,
    eval_samples: f64,
    bytes_up: u64,
    bytes_down: u64,
    scratch_allocs_steady: u64,
    wire_allocs_steady: u64,
}

/// The shadow re-drive of the engine's round through the layer functions.
struct Shadow {
    k: usize,
    e: usize,
    transport: WireConfig,
    clients: Vec<Arc<Dataset>>,
    selector: ClientSelector,
    trainer: LocalTrainer,
    global: LogisticRegression,
    scratch: GradScratch,
    wire: WireScratch,
    wire_buf: Vec<u8>,
    pool: Option<WorkerPool>,
}

impl Shadow {
    fn new(w: &FlWorkload, config: &FedAvgConfig, clients: Vec<Dataset>) -> Self {
        let global = LogisticRegression::zeros(clients[0].dim(), clients[0].num_classes());
        Self {
            k: w.k,
            e: w.e,
            transport: config.transport,
            selector: ClientSelector::new(config.selection, clients.len(), config.seed),
            clients: clients.into_iter().map(Arc::new).collect(),
            trainer: LocalTrainer::new(config.sgd.clone()),
            global,
            scratch: GradScratch::new(),
            wire: WireScratch::new(),
            wire_buf: Vec::new(),
            pool: (w.threads > 1).then(|| WorkerPool::new(w.threads)),
        }
    }

    /// Re-drives round `t`; returns the selected clients.
    fn round(
        &mut self,
        t: usize,
        tracer: &mut Tracer,
        parent: SpanId,
        counts: &mut Counts,
    ) -> Result<Vec<usize>, String> {
        let Shadow {
            k,
            e,
            transport,
            clients,
            selector,
            trainer,
            global,
            scratch,
            wire,
            wire_buf,
            pool,
        } = self;
        let selected = tracer.time("fl.select", Some(parent), || selector.select(t, *k));
        let global_flat = global.to_flat().to_vec();
        let mut updates = Vec::with_capacity(selected.len());
        for &client in &selected {
            let data = &clients[client];
            let mut local = global.clone();
            tracer.time("ml.train", Some(parent), || match pool {
                Some(pool) => trainer.train_with_pool(&mut local, data, *e, t, scratch, pool),
                None => trainer.train_with(&mut local, data, *e, t, scratch),
            });
            let mut params = local.to_flat().to_vec();
            tracer.time("net.wire", Some(parent), || {
                wire.round_trip(*transport, &mut params, Some(&global_flat), wire_buf)
            });
            let (n, d, c) = (data.len(), data.dim(), data.num_classes());
            counts.jobs += 1;
            counts.sample_epochs += (n * *e) as f64;
            counts.flops += lr_flops(n, d, c, *e);
            updates.push((params, n));
        }
        let merged = tracer
            .time("fl.aggregate", Some(parent), || {
                try_aggregate(&updates, AggregationRule::Uniform)
            })
            .map_err(|e| format!("shadow aggregate failed in round {t}: {e}"))?;
        global.set_flat(&merged);
        Ok(selected)
    }
}

/// Floating-point operations of one local job of multinomial logistic
/// regression, full batch: each of the `epochs` gradient steps computes
/// the logits (2·n·d·c) and the weight gradient Eᵀ·X (2·n·d·c), and the
/// trainer evaluates the loss before and after (2·n·d·c each). Softmax
/// and bias terms are not counted.
pub fn lr_flops(n: usize, d: usize, c: usize, epochs: usize) -> f64 {
    (4 * epochs + 4) as f64 * (n * d * c) as f64
}

fn joules(w: &FlWorkload, rounds: usize) -> f64 {
    Testbed::paper_prototype()
        .run(w.k, w.e, rounds.max(1))
        .total_joules()
}

/// An untraced campaign, as a user runs it.
fn run_plain(w: &FlWorkload, member: usize, seed: u64) -> Campaign {
    let started = Instant::now();
    let exp = w.experiment(seed);
    let (clients, test) = prepare(&exp);
    let mut engine = FedAvg::new(w.engine_config(&exp, 1), clients, test);
    let setup_s = started.elapsed().as_secs_f64();

    let mut round_ms = Vec::new();
    let mut committed = 0;
    let mut reached = false;
    let first_round = Instant::now();
    while round_ms.len() < w.round_cap && !reached {
        let t = Instant::now();
        let record = engine.run_round();
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        committed += usize::from(record.outcome.committed());
        reached = record
            .test_eval
            .is_some_and(|eval| eval.accuracy >= STRINGENT_TARGET);
    }
    let tta_s = first_round.elapsed().as_secs_f64();
    let rounds = round_ms.len();
    Campaign {
        member,
        seed,
        setup_s,
        tta_s,
        round_ms,
        rounds,
        committed,
        reached,
        model_hash: model_hash(engine.global_model().to_flat()),
        joules: joules(w, rounds),
    }
}

/// A traced campaign: spans around every layer call, plus the shadow
/// re-drive and its bit-identity check every round.
fn run_traced(
    w: &FlWorkload,
    member: usize,
    seed: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
    report: &mut Report,
) -> Campaign {
    let started = Instant::now();
    let exp = w.experiment(seed);
    let (clients, test) = tracer.time("data.prepare", None, || prepare(&exp));
    let (test_len, train_len) = (test.len(), clients.iter().map(Dataset::len).sum::<usize>());
    let config = w.engine_config(&exp, usize::MAX);
    let mut shadow = Shadow::new(w, &config, clients.clone());
    let mut engine = FedAvg::new(config, clients, test);
    let setup_s = started.elapsed().as_secs_f64();

    let mut round_ms = Vec::new();
    let mut committed = 0;
    let mut reached = false;
    let mut warm: Option<(u64, u64)> = None;
    let before = engine.transport_stats();
    let first_round = Instant::now();
    while round_ms.len() < w.round_cap && !reached {
        let t = round_ms.len();
        let round = tracer.open("fl.round", None);
        let record = tracer.time("fl.run_round", Some(round), || engine.run_round());
        let eval = tracer.time("ml.eval", Some(round), || engine.evaluate());
        tracer.time("ml.global_loss", Some(round), || engine.global_train_loss());
        let selected = shadow.round(t, tracer, round, counts);
        tracer.close(round);

        match selected {
            Ok(selected) => {
                report.gate(selected == record.selected, || {
                    format!(
                        "{} seed {seed} round {t}: shadow selected {selected:?}, engine {:?}",
                        w.name, record.selected
                    )
                });
                let same = shadow
                    .global
                    .to_flat()
                    .iter()
                    .zip(engine.global_model().to_flat())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                report.gate(same, || {
                    format!("{} seed {seed} round {t}: shadow global differs from FedAvg::global_model()", w.name)
                });
            }
            Err(e) => report.fail(e),
        }
        round_ms.push(tracer.spans()[round].duration_ns() as f64 / 1e6);
        committed += usize::from(record.outcome.committed());
        counts.eval_samples += (test_len + train_len) as f64;
        reached = eval.accuracy >= STRINGENT_TARGET;
        if t == 0 {
            warm = Some((engine.scratch_allocations(), engine.wire_allocations()));
        }
    }
    let tta_s = first_round.elapsed().as_secs_f64();
    let rounds = round_ms.len();
    let after = engine.transport_stats();
    counts.rounds += rounds as u64;
    counts.bytes_up += after.bytes_up - before.bytes_up;
    counts.bytes_down += after.bytes_down - before.bytes_down;
    if let Some((scratch, wire)) = warm {
        counts.scratch_allocs_steady += engine.scratch_allocations() - scratch;
        counts.wire_allocs_steady += engine.wire_allocations() - wire;
    }
    let joules = tracer.time("testbed.energy", None, || joules(w, rounds));
    Campaign {
        member,
        seed,
        setup_s,
        tta_s,
        round_ms,
        rounds,
        committed,
        reached,
        model_hash: model_hash(engine.global_model().to_flat()),
        joules,
    }
}

/// Runs the workload for `seconds` (at least one full panel) and reports.
pub fn run(w: &FlWorkload, seed: u64, seconds: f64, mode: Mode) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut campaigns = Vec::new();
    let peak_rss_mb = schedule(w.panel, seconds, |member| {
        let s = panel_seed(seed, member, w.panel);
        let campaign = match mode {
            Mode::Plain => run_plain(w, member, s),
            Mode::Traced => run_traced(w, member, s, &mut tracer, &mut counts, &mut report),
        };
        campaigns.push(campaign);
    });

    for c in &campaigns {
        report.attempted += c.rounds as u64;
        report.failed += (c.rounds - c.committed) as u64;
        report.notes.push(format!(
            "campaign member={} seed={} rounds={} reached={} tta_s={:.4} setup_s={:.4} model_hash={:016x}",
            c.member, c.seed, c.rounds, c.reached, c.tta_s, c.setup_s, c.model_hash
        ));
        report.gate(c.reached, || {
            format!(
                "{} seed {}: 92% not reached within {} rounds",
                w.name, c.seed, w.round_cap
            )
        });
        if c.seed == DEFAULT_SEED {
            report.gate(c.rounds == w.pinned_rounds, || {
                format!(
                    "{} default seed: {} rounds to target, pinned {}",
                    w.name, c.rounds, w.pinned_rounds
                )
            });
            report.gate(c.model_hash == w.pinned_model_hash, || {
                format!(
                    "{} default seed: final model hash {:016x}, pinned {:016x}",
                    w.name, c.model_hash, w.pinned_model_hash
                )
            });
        }
    }

    // Rounds and energy to target depend on the member's partition and
    // selection stream, and widely so at K = 1 (19 to 279 rounds over 200
    // seeds, median 146): the run reports the mean over the members that
    // ran, which varies less from panel to panel than their median.
    let per_member = |f: &dyn Fn(&Campaign) -> f64| -> Vec<f64> {
        (0..w.panel)
            .filter_map(|m| {
                let values: Vec<f64> = campaigns.iter().filter(|c| c.member == m).map(f).collect();
                (!values.is_empty()).then(|| median(&values))
            })
            .collect()
    };
    let n = campaigns.len();
    let rounds_total: usize = campaigns.iter().map(|c| c.rounds).sum();
    let wall_total: f64 = campaigns.iter().map(|c| c.tta_s).sum();

    match mode {
        Mode::Plain => {
            let committed: usize = campaigns.iter().map(|c| c.committed).sum();
            let rounds_to_target = mean(&per_member(&|c| c.rounds as f64));
            let round_ms: Vec<f64> = campaigns.iter().flat_map(|c| c.round_ms.clone()).collect();
            round_time_metrics(&mut report, &round_ms, w.window, rounds_to_target, n);
            report.metric("rounds_to_target", rounds_to_target, "count", w.panel);
            report.metric(
                "joules_to_target",
                mean(&per_member(&|c| c.joules)),
                "J",
                w.panel,
            );
            report.metric("setup_s", median_of(&campaigns, |c| c.setup_s), "s", n);
            report.metric("peak_rss_mb", peak_rss_mb, "MB", 1);
            report.metric(
                "round_ok_ratio",
                committed as f64 / rounds_total as f64,
                "ratio",
                rounds_total,
            );
        }
        Mode::Traced => layer_metrics(&mut report, &tracer, &counts, wall_total),
    }
    crate::print_span_summary(&tracer);
    report
}

/// Per-layer metrics of the FL workloads, from the spans and counters.
fn layer_metrics(report: &mut Report, tracer: &Tracer, counts: &Counts, wall_s: f64) {
    let ms = |name: &str| tracer.total_ns(name) as f64 / 1e6;
    let rounds = counts.rounds.max(1) as f64;
    let jobs = counts.jobs.max(1) as f64;
    let samples = counts.rounds as usize;
    let (run_round, eval, train) = (
        ms("fl.run_round"),
        ms("ml.eval") + ms("ml.global_loss"),
        ms("ml.train"),
    );
    let (select, wire, aggregate) = (ms("fl.select"), ms("net.wire"), ms("fl.aggregate"));
    // What an untraced round costs: the engine's round plus the evaluation
    // the paper runs every round.
    let user_round = run_round + eval;
    let prepare = tracer.durations_ms("data.prepare");

    report.metric("data.prepare_s", median(&prepare) / 1e3, "s", prepare.len());
    report.metric("ml.train_ms_per_round", train / rounds, "ms", samples);
    report.metric("ml.train_share", train / user_round, "ratio", samples);
    report.metric(
        "ml.train_sample_epochs_per_s",
        counts.sample_epochs / (train / 1e3),
        "1/s",
        counts.jobs as usize,
    );
    report.metric(
        "ml.train_gflops",
        counts.flops / (train / 1e3) / 1e9,
        "GFLOP/s",
        counts.jobs as usize,
    );
    report.metric("ml.eval_ms_per_round", eval / rounds, "ms", samples);
    report.metric("ml.eval_share", eval / user_round, "ratio", samples);
    report.metric(
        "ml.eval_samples_per_s",
        counts.eval_samples / (eval / 1e3),
        "1/s",
        samples,
    );
    report.metric(
        "net.wire_us_per_job",
        wire * 1e3 / jobs,
        "us",
        counts.jobs as usize,
    );
    report.metric(
        "fl.select_us_per_round",
        select * 1e3 / rounds,
        "us",
        samples,
    );
    report.metric(
        "fl.aggregate_us_per_round",
        aggregate * 1e3 / rounds,
        "us",
        samples,
    );
    report.metric(
        "fl.orchestration_ms_per_round",
        (run_round - select - train - wire - aggregate) / rounds,
        "ms",
        samples,
    );
    report.metric(
        "net.bytes_up_per_round",
        counts.bytes_up as f64 / rounds,
        "B",
        samples,
    );
    report.metric(
        "net.bytes_down_per_round",
        counts.bytes_down as f64 / rounds,
        "B",
        samples,
    );
    report.metric(
        "fl.scratch_allocs_steady",
        counts.scratch_allocs_steady as f64,
        "count",
        samples,
    );
    report.metric(
        "net.wire_allocs_steady",
        counts.wire_allocs_steady as f64,
        "count",
        samples,
    );
    let energy = tracer.durations_ms("testbed.energy");
    report.metric(
        "testbed.energy_us",
        median(&energy) * 1e3,
        "us",
        energy.len(),
    );
    crate::socket::absent_layer_metrics(report, samples);
    report.metric(
        "bench.trace_overhead",
        wall_s * 1e3 / user_round,
        "ratio",
        samples,
    );
}

/// Per-layer metrics of the FL layers, all zero: for the socket workload,
/// which runs no training, evaluation or data preparation.
pub fn absent_layer_metrics(report: &mut Report, samples: usize) {
    for (name, unit) in [
        ("data.prepare_s", "s"),
        ("ml.train_ms_per_round", "ms"),
        ("ml.train_share", "ratio"),
        ("ml.train_sample_epochs_per_s", "1/s"),
        ("ml.train_gflops", "GFLOP/s"),
        ("ml.eval_ms_per_round", "ms"),
        ("ml.eval_share", "ratio"),
        ("ml.eval_samples_per_s", "1/s"),
        ("net.wire_us_per_job", "us"),
        ("fl.select_us_per_round", "us"),
        ("fl.aggregate_us_per_round", "us"),
        ("fl.orchestration_ms_per_round", "ms"),
        ("net.bytes_up_per_round", "B"),
        ("net.bytes_down_per_round", "B"),
        ("fl.scratch_allocs_steady", "count"),
        ("net.wire_allocs_steady", "count"),
        ("testbed.energy_us", "us"),
    ] {
        report.metric(name, 0.0, unit, samples);
    }
}
