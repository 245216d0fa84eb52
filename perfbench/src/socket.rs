//! The real-socket workload: a `CoordinatorNode` on the benchmark thread
//! and two `ParticipantNode` threads over localhost TCP, with the fsync'd
//! `DiskJournal` and the frame trace attached. The coordinator stops after
//! half the rounds and a second incarnation restarts against the same
//! journal and trace. Participants answer only the coordinator's frames (a
//! closed loop); the payload is the protocol's 64-byte placeholder model.
//!
//! Round wall times are taken from outside the node: a watcher thread
//! polls the journal file and timestamps every round verdict the moment
//! its record reaches the file. The traced run then re-applies the
//! recorded trace event by event through `CoordinatorCore::apply`, feeding
//! the journal's growth to a fresh `DiskJournal::sync_to` after each event.

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fei_net::Link;
use fei_proto::node::{
    read_trace, replay_trace, CoordinatorAddr, CoordinatorCore, CoordinatorNode,
    CoordinatorNodeConfig, NodePersistence, NodeReport, ParticipantNode, ParticipantNodeConfig,
};
use fei_proto::{CoordinatorConfig, DiskJournal, JournalRecord, ParticipantConfig};
use fei_sim::DetRng;

use crate::report::{mean, median_of, percentile, round_time_metrics, Report};
use crate::trace::Tracer;
use crate::{panel_seed, schedule, Mode};

/// Rounds each campaign closes, across both incarnations.
pub const TARGET_ROUNDS: u64 = 400;
/// The first incarnation stops after this many rounds.
pub const RESTART_AT: u64 = 200;
/// Campaigns per run.
pub const PANEL: usize = 8;
/// Scratch directory for journals and traces, relative to the working
/// directory (the repository root); removed when the run ends.
const WORK_DIR: &str = ".perfbench_work";
/// Rounds per window when picking the run's least-disturbed stretch (see
/// `report::round_time_metrics`).
const WINDOW: usize = 200;
/// Participant threads.
const PARTICIPANTS: u64 = 2;

/// `k = 2` with a quorum below `k`: a round may open before both
/// participants have joined (the rendezvous race stays visible).
fn coordinator_config() -> CoordinatorConfig {
    CoordinatorConfig {
        k: 2,
        over_select: 0,
        quorum: 1,
        epochs: 1,
        heartbeat_interval: 10,
        heartbeat_timeout: 200,
        round_deadline: 400,
    }
}

fn node_config(global: &[u8], target_rounds: u64) -> CoordinatorNodeConfig {
    let mut config = CoordinatorNodeConfig::new(coordinator_config());
    config.global = global.to_vec();
    config.target_rounds = target_rounds;
    config
}

/// What one campaign produced.
struct Campaign {
    setup_s: f64,
    tta_s: f64,
    recover_ms: f64,
    round_ms: Vec<f64>,
    cycles: u64,
    report: NodeReport,
    global: Vec<u8>,
}

/// Watches the journal file and timestamps every round verdict record.
fn watch_journal(path: PathBuf, stop: Arc<AtomicBool>) -> JoinHandle<Vec<Instant>> {
    std::thread::spawn(move || {
        let mut closes = Vec::new();
        let mut file: Option<File> = None;
        let mut pending = Vec::new();
        loop {
            let last_pass = stop.load(Ordering::Relaxed);
            if file.is_none() {
                file = File::open(&path).ok();
            }
            if let Some(f) = file.as_mut() {
                let _ = f.read_to_end(&mut pending);
                let mut used = 0;
                while let Ok((record, len)) = JournalRecord::decode(&pending[used..]) {
                    used += len;
                    if matches!(
                        record,
                        JournalRecord::RoundCommitted { .. } | JournalRecord::RoundAborted { .. }
                    ) {
                        closes.push(Instant::now());
                    }
                }
                pending.drain(..used);
            }
            if last_pass {
                return closes;
            }
            // Poll well inside a 1 ms node cycle: polling at the cycle
            // period itself aliases round times onto whole poll periods.
            std::thread::sleep(Duration::from_micros(200));
        }
    })
}

fn run_campaign(seed: u64, dir: &Path) -> Result<Campaign, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    // Inputs from the seed: the model payload and the client ids.
    let mut rng = DetRng::new(seed).fork(0x50C);
    let global: Vec<u8> = (0..64).map(|_| rng.next_u64() as u8).collect();
    let first_client = rng.next_u64() >> 16;

    let journal = dir.join("round.journal");
    let persist = NodePersistence {
        journal: Some(journal.clone()),
        trace: Some(dir.join("round.trace")),
        port_file: Some(dir.join("coordinator.port")),
    };
    let started = Instant::now();
    let mut node = CoordinatorNode::start(
        "127.0.0.1:0",
        node_config(&global, RESTART_AT),
        persist.clone(),
    )
    .map_err(|e| format!("coordinator start: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    let participants: Vec<_> = (0..PARTICIPANTS)
        .map(|i| {
            let stop = Arc::clone(&stop);
            let addr = CoordinatorAddr::PortFile(dir.join("coordinator.port"));
            let mut config =
                ParticipantNodeConfig::new(ParticipantConfig::new(first_client + i, 2 + 2 * i));
            config.max_cycles = 240_000;
            std::thread::spawn(move || ParticipantNode::new(addr, config).run(&stop))
        })
        .collect();
    let watch_stop = Arc::new(AtomicBool::new(false));
    let watcher = watch_journal(journal.clone(), Arc::clone(&watch_stop));
    let setup_s = started.elapsed().as_secs_f64();

    let first_round = Instant::now();
    let outcome = (|| {
        let first = node.run().map_err(|e| format!("coordinator run: {e}"))?;
        drop(node);
        let restart = Instant::now();
        let mut node =
            CoordinatorNode::start("127.0.0.1:0", node_config(&global, TARGET_ROUNDS), persist)
                .map_err(|e| format!("coordinator restart: {e}"))?;
        let recover_ms = restart.elapsed().as_secs_f64() * 1e3;
        let second = node
            .run()
            .map_err(|e| format!("coordinator resumed run: {e}"))?;
        Ok::<_, String>((first.cycles + second.cycles, recover_ms, second))
    })();
    let tta_s = first_round.elapsed().as_secs_f64();

    // The flags publish nothing but "stop": the watcher's final pass reads
    // the journal file, whose contents the kernel orders for it.
    stop.store(true, Ordering::Relaxed);
    watch_stop.store(true, Ordering::Relaxed);
    // Join every thread before reporting any failure.
    let participants: Vec<Result<(), String>> = participants
        .into_iter()
        .map(|p| match p.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("participant: {e}")),
            Err(_) => Err("participant thread panicked".to_string()),
        })
        .collect();
    let closes = watcher
        .join()
        .map_err(|_| "journal watcher panicked".to_string())?;
    participants
        .into_iter()
        .collect::<Result<Vec<()>, String>>()?;
    let (cycles, recover_ms, report) = outcome?;

    let mut round_ms = Vec::with_capacity(closes.len());
    let mut last = first_round;
    for close in closes {
        round_ms.push(close.duration_since(last).as_secs_f64() * 1e3);
        last = close;
    }
    Ok(Campaign {
        setup_s,
        tta_s,
        recover_ms,
        round_ms,
        cycles,
        report,
        global,
    })
}

/// The correctness gates of one campaign.
fn check(c: &Campaign, dir: &Path, seed: u64, report: &mut Report) {
    let audit = &c.report.audit;
    report.gate(
        replay_trace(&coordinator_config(), &c.global, &c.report.trace) == *audit,
        || format!("socket seed {seed}: replay_trace differs from the live NodeAudit"),
    );
    let disk = std::fs::read(dir.join("round.journal")).unwrap_or_default();
    report.gate(disk == audit.journal, || {
        format!("socket seed {seed}: disk journal differs from the decision journal")
    });
    let trace_ok = read_trace(&dir.join("round.trace"))
        .is_ok_and(|(events, torn)| torn == 0 && events == c.report.trace);
    report.gate(trace_ok, || {
        format!("socket seed {seed}: trace file differs from the in-memory trace")
    });
    report.gate(audit.stats.committed_rounds == TARGET_ROUNDS, || {
        format!(
            "socket seed {seed}: {} rounds committed, target {TARGET_ROUNDS}",
            audit.stats.committed_rounds
        )
    });
    report.gate(audit.epoch == 1, || {
        format!("socket seed {seed}: final epoch {}, want 1", audit.epoch)
    });
    report.gate(
        c.round_ms.len() as u64 == audit.round_log.len() as u64,
        || {
            format!(
                "socket seed {seed}: watcher saw {} verdicts, audit has {}",
                c.round_ms.len(),
                audit.round_log.len()
            )
        },
    );
}

/// Traced analysis of one campaign: re-applies the trace through a fresh
/// decision core, syncing its journal growth to a fresh disk journal.
fn reapply(c: &Campaign, dir: &Path, tracer: &mut Tracer) -> Result<(), String> {
    let path = dir.join("reapply.journal");
    let (mut store, _) = DiskJournal::open(&path).map_err(|e| format!("reapply journal: {e}"))?;
    let mut core = CoordinatorCore::new(coordinator_config(), c.global.clone());
    for event in &c.report.trace {
        let _ = tracer.time("proto.apply", None, || core.apply(event));
        let bytes = core.coordinator().journal().bytes();
        if bytes.len() > store.synced_len() {
            tracer
                .time("proto.fsync", None, || store.sync_to(bytes))
                .map_err(|e| format!("reapply sync: {e}"))?;
        }
    }
    store.close().map_err(|e| format!("reapply close: {e}"))?;
    if core.audit() != c.report.audit {
        return Err("re-applied trace differs from the live NodeAudit".to_string());
    }
    Ok(())
}

/// Runs the workload for `seconds` (at least one full panel) and reports.
pub fn run(seed: u64, seconds: f64, mode: Mode) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let mut campaigns = Vec::new();
    let mut analysis_s = 0.0;
    let work = Path::new(WORK_DIR).join(format!("socket-{}", std::process::id()));
    let peak_rss_mb = schedule(PANEL, seconds, |member| {
        let s = panel_seed(seed, member, PANEL);
        let dir = work.join(format!("campaign-{}", campaigns.len()));
        match run_campaign(s, &dir) {
            Ok(c) => {
                check(&c, &dir, s, &mut report);
                if mode == Mode::Traced {
                    let t = Instant::now();
                    if let Err(e) = reapply(&c, &dir, &mut tracer) {
                        report.fail(format!("socket seed {s}: {e}"));
                    }
                    analysis_s += t.elapsed().as_secs_f64();
                }
                report.notes.push(format!(
                    "campaign member={member} seed={s} rounds={} committed={} tta_s={:.4} setup_s={:.5} recover_ms={:.3} round_ms_p50={:.3} round_ms_p90={:.3}",
                    c.report.audit.round_log.len(),
                    c.report.audit.stats.committed_rounds,
                    c.tta_s,
                    c.setup_s,
                    c.recover_ms,
                    percentile(&c.round_ms, 50.0),
                    percentile(&c.round_ms, 90.0),
                ));
                campaigns.push(c);
            }
            Err(e) => report.fail(format!("socket seed {s}: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);

    let n = campaigns.len();
    let closed: u64 = campaigns
        .iter()
        .map(|c| c.report.audit.round_log.len() as u64)
        .sum();
    let committed: u64 = campaigns
        .iter()
        .map(|c| c.report.audit.stats.committed_rounds)
        .sum();
    report.attempted += closed;
    report.failed += closed - committed;
    let wall: f64 = campaigns.iter().map(|c| c.tta_s).sum();
    match mode {
        Mode::Plain => {
            let (up, down) = (Link::wifi_uplink(), Link::wifi_downlink());
            let samples = closed as usize;
            let rounds_to_target = median_of(&campaigns, |c| c.report.audit.round_log.len() as f64);
            let round_ms: Vec<f64> = campaigns.iter().flat_map(|c| c.round_ms.clone()).collect();
            round_time_metrics(&mut report, &round_ms, WINDOW, rounds_to_target, n);
            report.metric("rounds_to_target", rounds_to_target, "count", n);
            let joules = median_of(&campaigns, |c| {
                let stats = c.report.audit.stats;
                up.transfer_energy_joules(stats.bytes_in as usize)
                    + down.transfer_energy_joules(stats.bytes_out as usize)
            });
            report.metric("joules_to_target", joules, "J", n);
            report.metric("setup_s", median_of(&campaigns, |c| c.setup_s), "s", n);
            report.metric("peak_rss_mb", peak_rss_mb, "MB", 1);
            report.metric(
                "round_ok_ratio",
                committed as f64 / closed.max(1) as f64,
                "ratio",
                samples,
            );
        }
        Mode::Traced => {
            crate::fl::absent_layer_metrics(&mut report, closed as usize);
            let per_round = |total: f64| total / closed.max(1) as f64;
            let ticks: Vec<f64> = campaigns
                .iter()
                .flat_map(|c| {
                    let log = &c.report.audit.round_log;
                    let mut prev = 0;
                    log.iter()
                        .map(|v| {
                            let gap = v.closed_at.saturating_sub(prev);
                            prev = v.closed_at;
                            gap as f64
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            let cycles: u64 = campaigns.iter().map(|c| c.cycles).sum();
            let sleep_ms = CoordinatorNodeConfig::new(coordinator_config()).cycle_sleep_ms;
            let fsync = tracer.durations_ms("proto.fsync");
            let applies = tracer.durations_ms("proto.apply");
            let stat_sum =
                |f: &dyn Fn(&Campaign) -> u64| campaigns.iter().map(f).sum::<u64>() as f64;
            let accepted = stat_sum(&|c| {
                c.report
                    .audit
                    .round_log
                    .iter()
                    .map(|v| v.accepted.len() as u64)
                    .sum()
            });
            let samples = closed as usize;
            report.metric(
                "proto.cycles_per_round",
                per_round(cycles as f64),
                "count",
                samples,
            );
            report.metric(
                "proto.round_ticks_p50",
                percentile(&ticks, 50.0),
                "ticks",
                ticks.len(),
            );
            report.metric(
                "proto.round_ticks_p90",
                percentile(&ticks, 90.0),
                "ticks",
                ticks.len(),
            );
            report.metric(
                "proto.sleep_share",
                (cycles * sleep_ms) as f64 / (wall * 1e3),
                "ratio",
                n,
            );
            report.metric(
                "proto.fsync_ms_p50",
                percentile(&fsync, 50.0),
                "ms",
                fsync.len(),
            );
            report.metric(
                "proto.fsync_ms_p90",
                percentile(&fsync, 90.0),
                "ms",
                fsync.len(),
            );
            report.metric(
                "proto.core_apply_us",
                mean(&applies) * 1e3,
                "us",
                applies.len(),
            );
            report.metric(
                "proto.frames_per_round",
                per_round(stat_sum(&|c| {
                    c.report.audit.stats.frames_in + c.report.audit.stats.frames_out
                })),
                "count",
                samples,
            );
            report.metric(
                "proto.bytes_per_round",
                per_round(stat_sum(&|c| {
                    c.report.audit.stats.bytes_in + c.report.audit.stats.bytes_out
                })),
                "B",
                samples,
            );
            report.metric(
                "proto.journal_bytes_per_round",
                per_round(stat_sum(&|c| c.report.audit.journal.len() as u64)),
                "B",
                samples,
            );
            report.metric(
                "proto.recover_ms",
                median_of(&campaigns, |c| c.recover_ms),
                "ms",
                n,
            );
            report.metric(
                "proto.accepted_per_round",
                per_round(accepted),
                "count",
                samples,
            );
            report.metric(
                "proto.rejected",
                stat_sum(&|c| c.report.audit.stats.rejected) / n.max(1) as f64,
                "count",
                n,
            );
            report.metric(
                "bench.trace_overhead",
                (wall + analysis_s) / wall,
                "ratio",
                n,
            );
        }
    }
    crate::print_span_summary(&tracer);
    report
}

/// Per-layer metrics of the protocol layer, all zero: for the FL
/// workloads, which run no protocol.
pub fn absent_layer_metrics(report: &mut Report, samples: usize) {
    for (name, unit) in [
        ("proto.cycles_per_round", "count"),
        ("proto.round_ticks_p50", "ticks"),
        ("proto.round_ticks_p90", "ticks"),
        ("proto.sleep_share", "ratio"),
        ("proto.fsync_ms_p50", "ms"),
        ("proto.fsync_ms_p90", "ms"),
        ("proto.core_apply_us", "us"),
        ("proto.frames_per_round", "count"),
        ("proto.bytes_per_round", "B"),
        ("proto.journal_bytes_per_round", "B"),
        ("proto.recover_ms", "ms"),
        ("proto.accepted_per_round", "count"),
        ("proto.rejected", "count"),
    ] {
        report.metric(name, 0.0, unit, samples);
    }
}
