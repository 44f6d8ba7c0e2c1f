//! `live_refresh`: records stream through the ingest pipeline, sealed
//! slots refresh a K=2 sharded GCWC, and reads must be answered by the
//! new generation.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gcwc::{GcwcModel, ModelConfig, ShardedModel, TrainSample};
use gcwc_graph::{EdgeGraph, PartitionSet};
use gcwc_ingest::{
    Aggregator, Pipeline, RecordLog, RefreshConfig, RefreshDriver, RefreshOutcome, SealedSlot,
    SpeedRecord, WindowConfig,
};
use gcwc_serve::{AnyModel, Client, Engine, EngineConfig, ModelRegistry, StatsSnapshot};
use gcwc_traffic::{generators, HistogramSpec};

use crate::report::{Fingerprint, Report};
use crate::serve::{bits, StatsDelta};
use crate::trace::{Recorder, ROOT};
use crate::{layers, serve, stats};

/// Histogram buckets of the live model.
pub const M: usize = 8;
/// Copies of the CI city tiled into the live graph (4 × 172 = 688 edges).
pub const SCALE: usize = 4;
/// Shards of the live model (the partitioned M2 path).
pub const SHARDS: usize = 2;
/// Slots streamed per refresh cycle and records per edge per slot.
pub const SLOTS_PER_CYCLE: u64 = 10;
const RECORDS_PER_EDGE: usize = 6;
const SLOT_SECS: u64 = 100;
/// Reads after each swap: `READ_INPUTS` newest slots, each asked twice
/// (a miss on the new generation, then a hit).
const READ_INPUTS: usize = 4;
/// Fresh cold starts in each of a run's three set-up batches.
const COLD_STARTS: usize = 5;
/// Refresh cycles run even when the time budget is shorter.
const MIN_CYCLES: usize = 3;
/// Records per log segment.
const SEGMENT_RECORDS: usize = 1 << 16;

/// SplitMix64: the seeded stream every live input is drawn from. Kept
/// here, not taken from the program's RNG, so a change to that RNG
/// does not change the benchmark's inputs.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The tiled city, its partition, the committed bootstrap generation
/// on disk, and the record stream.
pub struct LiveFixture {
    /// The tiled city edge graph.
    pub graph: EdgeGraph,
    /// Its K-way partition.
    pub partition: Arc<PartitionSet>,
    /// Model configuration of every shard.
    pub cfg: ModelConfig,
    /// Refresh policy: defaults (2-epoch warm start, 2 held-out slots,
    /// 10% tolerance) under this fixture's checkpoint directory.
    pub rcfg: RefreshConfig,
    /// Sliding-window shape.
    pub wcfg: WindowConfig,
    /// Mean speed of every edge.
    bases: Vec<f64>,
    seed: u64,
    probe: Option<(TrainSample, Vec<u64>)>,
}

impl LiveFixture {
    /// Builds the graph, streams one cycle of records from `seed` into a
    /// window, fits the bootstrap model on its slots and commits it as
    /// generation 1 under `dir`.
    pub fn build(seed: u64, dir: &Path) -> Self {
        let graph = generators::scaled_city(&generators::city_network(1).graph, SCALE);
        let n = graph.num_nodes();
        let mut rng = SplitMix::new(seed ^ 0x5eed_0f11_fe00);
        let wcfg = WindowConfig {
            num_edges: n,
            spec: HistogramSpec::hist8(),
            slot_secs: SLOT_SECS,
            slots_per_day: 96,
            grace_secs: SLOT_SECS,
            min_records: 2,
            retain_slots: 2 * SLOTS_PER_CYCLE as usize,
        };
        let mut fx = Self {
            partition: Arc::new(PartitionSet::build(&graph, SHARDS)),
            graph,
            cfg: ModelConfig::ci_hist().with_epochs(2).with_threads(1),
            rcfg: RefreshConfig::new(dir.join("ckpt")),
            wcfg,
            bases: (0..n).map(|_| 4.0 + 26.0 * rng.unit()).collect(),
            seed,
            probe: None,
        };
        let mut window = Aggregator::new(fx.wcfg);
        for r in fx.cycle_records(0) {
            window.offer(r);
        }
        let mut sealed = Vec::new();
        window.seal_all(&mut sealed).expect("seal bootstrap slots");
        let samples: Vec<TrainSample> =
            sealed.iter().enumerate().map(|(i, s)| s.to_sample(i)).collect();
        let mut model = (fx.factory())();
        model.fit_shards(&samples);
        let probe = samples[samples.len() - 1].clone();
        let expect = bits(&model.predict_global(&probe));
        fx.probe = Some((probe, expect));
        let registry = Arc::new(fx.registry());
        let mut driver = RefreshDriver::new(fx.rcfg.clone(), Box::new(fx.factory()), registry)
            .expect("open refresh driver");
        driver.install_initial(model).expect("commit bootstrap generation");
        fx
    }

    /// A bootstrap slot asked at every cold start, with the bits of the
    /// committed bootstrap model's completion of it.
    pub fn probe(&self) -> (&TrainSample, &[u64]) {
        let (s, b) = self.probe.as_ref().expect("set by build");
        (s, b)
    }

    /// Builds an untrained candidate: same partition, config and seed.
    pub fn factory(&self) -> impl Fn() -> ShardedModel<GcwcModel> + Send + 'static {
        let (partition, cfg, seed) = (Arc::clone(&self.partition), self.cfg.clone(), self.seed);
        move || ShardedModel::gcwc_on(Arc::clone(&partition), M, cfg.clone(), seed)
    }

    /// An empty sharded registry of this fixture's shape.
    pub fn registry(&self) -> ModelRegistry {
        let factories = (0..self.partition.num_partitions())
            .map(|k| {
                let graph = self.partition.partition(k).graph().clone();
                let cfg = self.cfg.clone();
                let f: Box<dyn Fn() -> AnyModel + Send + Sync> =
                    Box::new(move || AnyModel::Gcwc(GcwcModel::new(&graph, M, cfg.clone(), 0)));
                f
            })
            .collect();
        ModelRegistry::sharded(factories, &self.partition)
    }

    /// The records of cycle `c`: slots `c·10 .. c·10 + 10`, six records
    /// per edge per slot around the edge's mean speed.
    pub fn cycle_records(&self, c: u64) -> Vec<SpeedRecord> {
        let mut rng = SplitMix::new(self.seed.wrapping_mul(0x100_0000_01b3) ^ c);
        let n = self.bases.len();
        let mut out = Vec::with_capacity(SLOTS_PER_CYCLE as usize * n * RECORDS_PER_EDGE);
        for slot in c * SLOTS_PER_CYCLE..(c + 1) * SLOTS_PER_CYCLE {
            for (edge, &base) in self.bases.iter().enumerate() {
                for _ in 0..RECORDS_PER_EDGE {
                    out.push(SpeedRecord {
                        edge: edge as u32,
                        timestamp: slot * SLOT_SECS + rng.next_u64() % SLOT_SECS,
                        speed: base * (0.75 + 0.5 * rng.unit()),
                    });
                }
            }
        }
        out
    }

    /// The committed generation `g`, loaded from its checkpoints.
    pub fn committed(&self, g: u64) -> ShardedModel<GcwcModel> {
        let mut model = (self.factory())();
        model
            .load_shards(&self.rcfg.dir, &format!("{}.g{g}", self.rcfg.stem))
            .expect("load committed checkpoints");
        model
    }

    /// Checkpoint directory.
    pub fn dir(&self) -> PathBuf {
        self.rcfg.dir.clone()
    }
}

/// A serving process restarted on the committed generation.
pub struct LiveServed {
    /// The refresh driver, resumed from the manifest.
    pub driver: RefreshDriver,
    /// In-process engine over the sharded registry.
    pub engine: Engine,
}

/// Checkpoints on disk → first correct read: `RefreshDriver::new`
/// (manifest), `reinstall_current`, `Engine::new`, one completion of the
/// probe, which must equal `expect`.
pub fn cold_start(fx: &LiveFixture, expect: &[u64]) -> (LiveServed, f64, bool) {
    let t0 = Instant::now();
    let registry = Arc::new(fx.registry());
    let mut driver =
        RefreshDriver::new(fx.rcfg.clone(), Box::new(fx.factory()), Arc::clone(&registry))
            .expect("open refresh driver");
    let generation = driver.reinstall_current().expect("reinstall committed generation");
    let engine = Engine::new(registry, EngineConfig::default());
    let mut client = engine.client();
    let resp = read(&mut client, fx.probe().0);
    let secs = t0.elapsed().as_secs_f64();
    let ok = matches!(&resp, Some((b, g, _)) if *g == generation && b == expect);
    (LiveServed { driver, engine }, secs, ok)
}

/// One in-process completion: `(bits, generation, cache_hit)`, or `None`
/// when it failed or was degraded.
pub fn read(client: &mut Client, s: &TrainSample) -> Option<(Vec<u64>, u64, bool)> {
    let mut input = client.input_buffer();
    input.copy_from(&s.input);
    let c = client.complete(input, s.context.time_of_day, s.context.day_of_week).ok()?;
    let out = (!c.degraded).then(|| (bits(&c.output), c.generation, c.cache_hit));
    client.recycle(c);
    out
}

/// What one cycle measured.
struct Cycle {
    records: usize,
    /// Last record ingested → first read answered by the new generation.
    lag_s: f64,
    /// First record ingested → first read answered.
    active_s: f64,
    applied: bool,
    reads: usize,
    reads_ok: usize,
}

/// Streams one cycle, refreshes, reads, and checks every read against
/// the refreshed model's in-process output.
fn cycle(
    fx: &LiveFixture,
    c: u64,
    pipe: &mut Pipeline,
    served: &mut LiveServed,
    client: &mut Client,
    mut rec: Option<&mut Recorder>,
) -> Cycle {
    let records = fx.cycle_records(c);
    let root = rec.as_deref_mut().map(|r| (r.next_id(), r.now()));
    let parent = root.map_or(ROOT, |(id, _)| id);
    let t0 = Instant::now();
    let span = |rec: &mut Option<&mut Recorder>, name, start: Instant| {
        if let Some(r) = rec.as_deref_mut() {
            let (s, e) = (r.at(start), r.now());
            r.record(name, parent, c, s, e);
        }
    };
    for &r in &records {
        pipe.ingest(r).expect("ingest record");
    }
    let t_last = Instant::now();
    span(&mut rec, "ingest.batch", t0);
    pipe.seal_all().expect("seal slots");
    let sealed: Vec<SealedSlot> = pipe.take_sealed();
    span(&mut rec, "ingest.seal", t_last);
    let t = Instant::now();
    let outcome = served.driver.refresh(&sealed).expect("refresh");
    span(&mut rec, "refresh", t);
    let (applied, generation, ckpt_gen) = match outcome {
        RefreshOutcome::Applied { registry_generation, checkpoint_generation, .. } => {
            (true, registry_generation, checkpoint_generation)
        }
        other => {
            eprintln!("cycle {c}: refresh not applied: {other:?}");
            (false, 0, 0)
        }
    };
    let newest: Vec<TrainSample> =
        sealed.iter().rev().take(READ_INPUTS).enumerate().map(|(i, s)| s.to_sample(i)).collect();
    // Each of the newest slots is read twice: a miss on the new
    // generation, then a hit. The first read closes the freshness lag.
    let asked: Vec<usize> = (0..newest.len()).flat_map(|i| [i, i]).collect();
    let t = Instant::now();
    let mut answers = vec![read(client, &newest[0])];
    let t_first = Instant::now();
    span(&mut rec, "serve.post_swap_first", t);
    answers.extend(asked[1..].iter().map(|&i| read(client, &newest[i])));
    span(&mut rec, "read.burst", t_first);
    if let (Some(r), Some((id, start))) = (rec, root) {
        let end = r.at(t_first);
        r.push(crate::trace::Span { id, parent: ROOT, req: c, name: "cycle", start, end });
    }

    // Untimed: every read must be the refreshed model's own output,
    // missing the cache exactly when it asks a slot for the first time.
    let mut reads_ok = 0;
    if applied {
        let reference = fx.committed(ckpt_gen);
        let expect: Vec<Vec<u64>> =
            newest.iter().map(|s| bits(&reference.predict_global(s))).collect();
        for (j, (&i, answer)) in asked.iter().zip(&answers).enumerate() {
            let ok = matches!(answer, Some((b, g, hit))
                if *g == generation && *b == expect[i] && *hit == (j % 2 == 1));
            reads_ok += usize::from(ok);
        }
    }
    Cycle {
        records: records.len(),
        lag_s: (t_first - t_last).as_secs_f64(),
        active_s: (t_first - t0).as_secs_f64(),
        applied,
        reads: answers.len(),
        reads_ok,
    }
}

/// Runs `n` cold starts on the committed generation, adding each one's
/// seconds to `setup`, and returns the last process still running.
fn cold_starts(
    fx: &LiveFixture,
    n: usize,
    setup: &mut Vec<f64>,
    report: &mut Report,
) -> LiveServed {
    let committed =
        RefreshDriver::new(fx.rcfg.clone(), Box::new(fx.factory()), Arc::new(fx.registry()))
            .expect("read manifest")
            .generation();
    let expect = bits(&fx.committed(committed).predict_global(fx.probe().0));
    let mut served: Option<LiveServed> = None;
    for _ in 0..n {
        if let Some(s) = served.take() {
            s.engine.shutdown();
        }
        let (s, secs, ok) = cold_start(fx, &expect);
        report.check(ok, "cold start: first read differs from the committed model");
        report.count(1, usize::from(!ok));
        setup.push(secs);
        served = Some(s);
    }
    served.expect("at least one cold start")
}

/// Runs `live_refresh`: cycles until `seconds` have passed (at least
/// three). A traced run splits the budget into untraced and traced
/// cycles and then replays every layer. `setup_s` is the median of cold
/// starts made in three batches — before, halfway through and after the
/// cycles — so it samples the machine at three moments.
pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path, report: &mut Report) {
    gcwc_linalg::parallel::set_global_threads(1);
    let fx = LiveFixture::build(seed, &work.join("live"));
    let mut setup = Vec::with_capacity(3 * COLD_STARTS);
    let mut served = cold_starts(&fx, COLD_STARTS, &mut setup, report);

    let mut pipe = Pipeline::new(
        RecordLog::open(&work.join("log"), SEGMENT_RECORDS).expect("open record log"),
        Aggregator::new(fx.wcfg),
    );
    let mut client = served.engine.client();
    let before: StatsSnapshot = served.engine.stats();
    let epoch = Instant::now();
    let mut recorder = Recorder::new(epoch, 1);
    let (mut plain, mut traced_cycles) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut c = 1;
    let mut mid_batch = false;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let done = plain.len() + traced_cycles.len();
        if done >= MIN_CYCLES && elapsed >= seconds {
            break;
        }
        if !mid_batch && elapsed >= seconds / 2.0 {
            cold_starts(&fx, COLD_STARTS, &mut setup, report).engine.shutdown();
            mid_batch = true;
        }
        // Traced runs trace the second half of their cycles.
        let trace_this = traced && elapsed >= seconds / 2.0 && !plain.is_empty();
        let rec = trace_this.then_some(&mut recorder);
        let cy = cycle(&fx, c, &mut pipe, &mut served, &mut client, rec);
        report.count(1 + cy.reads, usize::from(!cy.applied) + cy.reads - cy.reads_ok);
        report.check(cy.applied, &format!("cycle {c}: refresh not applied"));
        report.check(
            cy.reads_ok == cy.reads,
            &format!("cycle {c}: a read differs from the refreshed model"),
        );
        if trace_this {
            traced_cycles.push(cy);
        } else {
            plain.push(cy);
        }
        c += 1;
    }
    let delta = StatsDelta::between(&before, &served.engine.stats());
    report.fingerprint(Fingerprint {
        workload: "live_refresh",
        seed,
        seconds,
        graph_nodes: fx.graph.num_nodes(),
        engine_workers: served.engine.worker_count(),
        rate: 0.0,
        limit_us: 0.0,
    });

    let lag_us = |cs: &[Cycle], p: f64| {
        let v: Vec<f64> = cs.iter().map(|c| c.lag_s * 1e6).collect();
        stats::percentile_of(&v, p)
    };
    let all: Vec<&Cycle> = plain.iter().chain(&traced_cycles).collect();
    let applied = all.iter().filter(|c| c.applied).count();
    if traced {
        delta.report(report);
        let serve_fx = serve::ServeFixture::build(seed, serve::MISS.inputs, serve::MISS.days, work);
        let (served_wire, _, _) = serve::cold_start(&serve_fx);
        // The cycles run closed loop; the generator's lateness comes
        // from a one-second open-loop probe of the replayed server.
        let probe = serve::probe(&serve_fx, &served_wire, serve::MISS.rate, 1.0);
        report.check(probe.failed() == 0, "generator probe: a response failed");
        report.count(probe.attempted(), probe.failed());
        report.layer("gen.late_p50_us", probe.late_us(50.0), "us");
        report.layer("gen.late_max_us", probe.late_us(100.0), "us");
        let mut suite = layers::Suite::new(report, work);
        suite.add_refreshes(applied, all.len() - applied);
        suite.absorb(recorder);
        suite.live_layers(&fx);
        suite.serve_layers(&serve_fx, &served_wire, probe.attempted() as u64 + 1);
        served_wire.stop();
        let traced_p50 = if traced_cycles.is_empty() { 0.0 } else { lag_us(&traced_cycles, 50.0) };
        suite.reconcile_live(traced_p50, lag_us(&plain, 50.0));
        suite.finish("live_refresh", seed);
    } else {
        let records: usize = plain.iter().map(|c| c.records).sum();
        let active: f64 = plain.iter().map(|c| c.active_s).sum();
        let reads: usize = plain.iter().map(|c| c.reads).sum();
        let reads_ok: usize = plain.iter().map(|c| c.reads_ok).sum();
        report.metric("latency_p50_us", lag_us(&plain, 50.0), "us");
        report.metric("latency_p90_us", lag_us(&plain, 90.0), "us");
        report.metric("throughput_per_s", records as f64 / active, "1/s");
        report.metric(
            "success_ratio",
            (applied + reads_ok) as f64 / (plain.len() + reads) as f64,
            "ratio",
        );
        eprintln!(
            "{} cycles, {applied} applied, cache {:.3} hit ratio",
            plain.len(),
            delta.hit_ratio()
        );
    }
    served.engine.shutdown();
    cold_starts(&fx, COLD_STARTS, &mut setup, report).engine.shutdown();
    report.setup(&setup);
    report.peak_rss();
}
