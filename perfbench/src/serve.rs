//! `serve_miss` and `serve_hit`: open-loop completion requests over the
//! binary wire against an A-GCWC served from a checkpoint.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcwc::{build_samples, AGcwcModel, CompletionModel, InferWorkspace, ModelConfig, TaskKind};
use gcwc_graph::EdgeGraph;
use gcwc_linalg::Matrix;
use gcwc_serve::protocol::OkResponse;
use gcwc_serve::wire::{self, FrameHeader, Opcode};
use gcwc_serve::{
    derive_row_flags, AnyModel, BinClient, Engine, EngineConfig, ModelRegistry, ServeError, Server,
    ServerConfig, StatsSnapshot,
};
use gcwc_traffic::{generators, simulate, HistogramSpec, SimConfig};

use crate::openloop::{self, PhaseResult, PhaseTrace, Schedule, Target, Verdict};
use crate::report::{Fingerprint, Report};
use crate::trace::Recorder;
use crate::{layers, live};

/// Histogram buckets of the served model.
pub const M: usize = 8;
/// Time-of-day intervals per day of the A-GCWC context.
pub const INTERVALS_PER_DAY: usize = 96;
/// Fresh cold starts in each of a run's three set-up batches.
const COLD_STARTS: usize = 7;
/// Share of an end-to-end run spent at the fixed rate; the rest climbs
/// the capacity ladder.
const FIXED_SHARE: f64 = 0.6;
/// Capacity ladder: step between rungs, bisections after the first
/// failing rung, and the most probes (a failing rung is probed twice).
const LADDER_STEP: f64 = 1.25;
const LADDER_REFINE: usize = 3;
const LADDER_RUNGS: usize = 8;

/// The shape of one serve workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Distinct observed matrices.
    pub inputs: usize,
    /// Days of week each input is asked for; keys = inputs × days.
    pub days: usize,
    /// Offered rate of the fixed-rate phase, requests per second.
    pub rate: f64,
    /// p90 latency limit of the capacity ladder, microseconds.
    pub limit_us: f64,
    /// First rung of the capacity ladder, requests per second.
    pub ladder_start: f64,
    /// Requests sent before measuring (they fill the cache for hits).
    pub warmup: usize,
    /// Whether every measured request must be a cache hit.
    pub expect_hits: bool,
}

/// 40 inputs × 7 days = 280 keys cycled in order: more than the 256
/// cache entries, so LRU never hits and every request runs a forward.
pub const MISS: ServeSpec = ServeSpec {
    name: "serve_miss",
    inputs: 40,
    days: 7,
    rate: 100.0,
    limit_us: 25_000.0,
    ladder_start: 125.0,
    warmup: 20,
    expect_hits: false,
};

/// 32 repeating keys: after warm-up every request is a cache hit, so
/// the wire codec, reactor, queue and cache do all the work.
pub const HIT: ServeSpec = ServeSpec {
    name: "serve_hit",
    inputs: 32,
    days: 1,
    rate: 5_000.0,
    limit_us: 1_000.0,
    ladder_start: 16_000.0,
    warmup: 64,
    expect_hits: true,
};

/// One request key with its in-process reference answer.
pub struct Key {
    /// Observed matrix.
    pub input: Matrix,
    /// Time-of-day index.
    pub tod: usize,
    /// Day-of-week index.
    pub dow: usize,
    /// Bits of the in-process reference completion.
    pub expect: Vec<u64>,
}

/// A trained A-GCWC on the CI city, its checkpoint and request keys.
pub struct ServeFixture {
    /// The CI city edge graph (172 edges).
    pub graph: Arc<EdgeGraph>,
    /// Model configuration.
    pub cfg: ModelConfig,
    /// Checkpoint on disk.
    pub ckpt: PathBuf,
    /// The model as loaded from the checkpoint.
    pub model: AGcwcModel,
    /// Request keys, with references.
    pub keys: Vec<Key>,
}

/// Bits of a matrix.
pub fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Whether a matrix holds exactly the bits `expect`.
pub fn same_bits(m: &Matrix, expect: &[u64]) -> bool {
    m.as_slice().len() == expect.len()
        && m.as_slice().iter().zip(expect).all(|(v, &b)| v.to_bits() == b)
}

impl ServeFixture {
    /// Simulates a day of CI-city traffic from `seed`, trains an A-GCWC
    /// briefly, checkpoints it under `dir`, and computes the reference
    /// completion of every key (`inputs` matrices × `days` days).
    pub fn build(seed: u64, inputs: usize, days: usize, dir: &Path) -> Self {
        let city = generators::city_network(1);
        let sim =
            SimConfig { days: 1, intervals_per_day: INTERVALS_PER_DAY, seed, ..Default::default() };
        let data = simulate(&city, HistogramSpec::hist8(), &sim);
        let ds = data.to_dataset(0.5, 5, seed);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let samples = build_samples(&ds, &idx, TaskKind::Estimation, 0);
        assert!(samples.len() >= inputs, "{} snapshots < {inputs} inputs", samples.len());

        let cfg = ModelConfig::ci_hist().with_epochs(1).with_threads(1);
        let mut trained = AGcwcModel::new(&city.graph, M, INTERVALS_PER_DAY, cfg.clone(), seed);
        trained.fit(&samples[..16]);
        let ckpt = dir.join("agcwc.ckpt");
        trained.save(&ckpt).expect("save checkpoint");

        let graph = Arc::new(city.graph);
        let mut model = AGcwcModel::new(&graph, M, INTERVALS_PER_DAY, cfg.clone(), 0);
        model.load(&ckpt).expect("load checkpoint");
        let mut ws = InferWorkspace::new();
        let mut flags = Vec::new();
        let mut keys = Vec::with_capacity(inputs * days);
        // Key j asks input j % inputs on day j / inputs, so cycling the
        // keys in order revisits a key only after all others.
        for day in 0..days {
            for s in &samples[..inputs] {
                let (tod, dow) = (s.context.time_of_day, (s.context.day_of_week + day) % 7);
                derive_row_flags(&s.input, &mut flags);
                let out = model.infer(&mut ws, &s.input, tod, dow, &flags);
                keys.push(Key { input: s.input.clone(), tod, dow, expect: bits(&out) });
                ws.give(out);
            }
        }
        Self { graph, cfg, ckpt, model, keys }
    }

    /// A registry factory building this fixture's untrained architecture.
    pub fn registry(&self) -> ModelRegistry {
        let (graph, cfg) = (Arc::clone(&self.graph), self.cfg.clone());
        ModelRegistry::new(Box::new(move || {
            AnyModel::AGcwc(AGcwcModel::new(&graph, M, INTERVALS_PER_DAY, cfg.clone(), 0))
        }))
    }

    /// Key of request `seq`: keys are cycled in order.
    pub fn key(&self, seq: u64) -> &Key {
        &self.keys[(seq % self.keys.len() as u64) as usize]
    }
}

/// The served engine's configuration: defaults but for the queue
/// depth, which is as deep as the server lets one connection pipeline.
/// A stall of the worker thread then shows as latency charged to the
/// requests behind it, not as queue-full refusals: the default 64 fills
/// in 13 ms at 5,000 req/s, a few scheduler time slices on a two-CPU
/// machine.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        queue_capacity: ServerConfig::default().max_inflight_per_conn,
        ..Default::default()
    }
}

/// A running server over a registry loaded from the fixture checkpoint.
pub struct Served {
    /// The engine behind the server.
    pub engine: Arc<Engine>,
    /// The TCP front end.
    pub server: Server,
    /// Registry generation the checkpoint was loaded as.
    pub generation: u64,
}

impl Served {
    /// Stops the server and the engine, waiting for their threads.
    pub fn stop(mut self) {
        self.server.stop();
        self.engine.shutdown();
    }
}

/// Checkpoint on disk → first correct response over the wire: registry
/// load, `Engine::new`, `Server::start`, connect, one completion.
/// Returns the running server, the elapsed seconds, and whether the
/// first response was correct.
pub fn cold_start(fx: &ServeFixture) -> (Served, f64, bool) {
    let t0 = Instant::now();
    let registry = fx.registry();
    let generation = registry.load(&fx.ckpt).expect("load checkpoint");
    let engine = Arc::new(Engine::new(Arc::new(registry), engine_config()));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind server");
    let mut client = BinClient::connect(server.addr()).expect("connect");
    let key = fx.key(0);
    let resp = client.complete(&key.input, key.tod, key.dow);
    let secs = t0.elapsed().as_secs_f64();
    let ok = matches!(&resp, Ok(r) if !r.degraded && r.generation == generation && same_bits(&r.output, &key.expect));
    (Served { engine, server, generation }, secs, ok)
}

/// The open-loop target: keys cycled in order, every response checked
/// bit for bit against its in-process reference.
pub struct WireTarget<'a> {
    fx: &'a ServeFixture,
    generation: u64,
}

impl Target for WireTarget<'_> {
    type Resp = Result<OkResponse, ServeError>;

    fn encode(&self, seq: u64, buf: &mut Vec<u8>) {
        let key = self.fx.key(seq);
        wire::encode_complete_request(buf, seq, key.tod, key.dow, &key.input);
    }

    fn decode(&self, header: &FrameHeader, payload: &[u8]) -> Self::Resp {
        match header.opcode {
            Opcode::RespComplete => Ok(wire::decode_complete_ok(payload)?),
            Opcode::RespErr => Err(wire::decode_err(payload)?),
            other => Err(ServeError::Protocol(format!("unexpected opcode {other:?}"))),
        }
    }

    fn verify(&self, seq: u64, resp: &Self::Resp) -> Verdict {
        match resp {
            Ok(r)
                if !r.degraded
                    && r.generation == self.generation
                    && same_bits(&r.output, &self.fx.key(seq).expect) =>
            {
                Verdict::Correct
            }
            Ok(_) => Verdict::Wrong,
            Err(_) => Verdict::Refused,
        }
    }
}

/// One connection to the server plus the next unused sequence number.
pub struct Conn {
    stream: TcpStream,
    next_seq: u64,
}

impl Conn {
    /// Connects to `served`. The read timeout only bounds the wait for
    /// a lost response; pacing never depends on it.
    pub fn open(served: &Served, first_seq: u64) -> Self {
        let stream = TcpStream::connect(served.server.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        Self { stream, next_seq: first_seq }
    }

    /// Sends `secs` seconds of requests at `rate` (at least one).
    pub fn phase(
        &mut self,
        target: &WireTarget<'_>,
        rate: f64,
        secs: f64,
        trace: Option<PhaseTrace<'_>>,
    ) -> PhaseResult {
        let count = ((rate * secs).round() as usize).max(1);
        let sched = Schedule { rate, count, first_seq: self.next_seq };
        self.next_seq += count as u64;
        openloop::run(&self.stream, target, sched, trace)
    }
}

/// `secs` seconds of open-loop requests at `rate` on a new connection
/// to `served`, keys from the first on.
pub fn probe(fx: &ServeFixture, served: &Served, rate: f64, secs: f64) -> PhaseResult {
    let target = WireTarget { fx, generation: served.generation };
    Conn::open(served, 1).phase(&target, rate, secs, None)
}

/// Counter deltas between two stats snapshots.
pub struct StatsDelta {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// Forward passes.
    pub batches: u64,
    /// Queue-full rejections.
    pub rejected: u64,
    /// Expired requests.
    pub expired: u64,
    /// Degraded responses.
    pub degraded: u64,
}

impl StatsDelta {
    /// `b − a`, counter by counter.
    pub fn between(a: &StatsSnapshot, b: &StatsSnapshot) -> Self {
        Self {
            hits: b.cache_hits - a.cache_hits,
            misses: b.cache_misses - a.cache_misses,
            evictions: b.cache_evictions - a.cache_evictions,
            batches: b.batches - a.batches,
            rejected: b.rejected - a.rejected,
            expired: b.expired - a.expired,
            degraded: b.degraded_responses - a.degraded_responses,
        }
    }

    /// Hits over lookups.
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    /// Cache-missing requests per forward pass (0 with no forward).
    pub fn batch_mean(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.misses as f64 / self.batches as f64
        }
    }

    /// Adds the per-layer counters to `report`.
    pub fn report(&self, report: &mut Report) {
        report.layer("cache.hit_ratio", self.hit_ratio(), "ratio");
        report.layer("cache.evictions", self.evictions as f64, "count");
        report.layer("engine.batch_mean", self.batch_mean(), "count");
        report.layer("engine.rejected", self.rejected as f64, "count");
        report.layer("engine.expired", self.expired as f64, "count");
        report.layer("engine.degraded", self.degraded as f64, "count");
    }
}

fn stats_over_wire(served: &Served) -> StatsSnapshot {
    let mut c = BinClient::connect(served.server.addr()).expect("connect for stats");
    let s = c.stats().expect("stats op");
    let _ = c.quit();
    s
}

/// Runs `n` cold starts, adding each one's seconds to `setup`, and
/// returns the last server still running.
fn cold_starts(fx: &ServeFixture, n: usize, setup: &mut Vec<f64>, report: &mut Report) -> Served {
    let mut served: Option<Served> = None;
    for _ in 0..n {
        if let Some(s) = served.take() {
            s.stop();
        }
        let (s, secs, ok) = cold_start(fx);
        report.check(ok, "cold start: first response differs from the reference");
        report.count(1, usize::from(!ok));
        setup.push(secs);
        served = Some(s);
    }
    served.expect("at least one cold start")
}

/// Runs a serve workload. `seconds` is the measuring budget: 60% at the
/// fixed rate and 40% on the capacity ladder (end-to-end run), or
/// untraced and traced fixed-rate phases plus the layer replays (traced
/// run). `setup_s` is the median of cold starts made in three batches —
/// before, between and after the phases — so it samples the machine at
/// three moments.
pub fn run(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    report: &mut Report,
) {
    gcwc_linalg::parallel::set_global_threads(1);
    let fx = ServeFixture::build(seed, spec.inputs, spec.days, work);
    assert!(
        spec.expect_hits || fx.keys.len() > engine_config().cache_capacity,
        "the miss key set must exceed the cache"
    );
    let mut setup = Vec::with_capacity(3 * COLD_STARTS);
    let served = cold_starts(&fx, COLD_STARTS, &mut setup, report);

    let target = WireTarget { fx: &fx, generation: served.generation };
    let mut conn = Conn::open(&served, 1);
    let warm = conn.phase(
        &target,
        spec.rate.min(1_000.0),
        spec.warmup as f64 / spec.rate.min(1_000.0),
        None,
    );
    report.check(warm.failed() == 0, "warm-up requests failed");
    report.count(warm.attempted(), warm.failed());

    let fixed_secs = if traced { seconds / 2.0 } else { seconds * FIXED_SHARE };
    let before = stats_over_wire(&served);
    let (fixed, traced_fixed) = if traced {
        // Untraced then traced halves: their p50 difference is the
        // tracing overhead.
        let plain = conn.phase(&target, spec.rate, fixed_secs, None);
        let epoch = Instant::now();
        let mut sender = Recorder::new(epoch, 1);
        let mut receiver = Recorder::new(epoch, 2);
        let t = conn.phase(
            &target,
            spec.rate,
            fixed_secs,
            Some(PhaseTrace { sender: &mut sender, receiver: &mut receiver }),
        );
        receiver.absorb(sender);
        (plain, Some((t, receiver)))
    } else {
        (conn.phase(&target, spec.rate, fixed_secs, None), None)
    };
    let after = stats_over_wire(&served);
    let delta = StatsDelta::between(&before, &after);
    cold_starts(&fx, COLD_STARTS, &mut setup, report).stop();
    for r in std::iter::once(&fixed).chain(traced_fixed.as_ref().map(|(t, _)| t)) {
        report.count(r.attempted(), r.failed());
        report.check(r.wrong == 0, "a response differed from its reference");
    }
    let hit_ratio = delta.hit_ratio();
    if spec.expect_hits {
        report.check(hit_ratio == 1.0, &format!("serve_hit cache hit ratio {hit_ratio} != 1"));
    } else {
        report.check(hit_ratio < 0.01, &format!("serve_miss cache hit ratio {hit_ratio} >= 1%"));
    }
    report.check(delta.degraded == 0, "degraded responses");

    report.fingerprint(Fingerprint {
        workload: spec.name,
        seed,
        seconds,
        graph_nodes: fx.graph.num_nodes(),
        engine_workers: served.engine.worker_count(),
        rate: spec.rate,
        limit_us: spec.limit_us,
    });

    if let Some((t, rec)) = traced_fixed {
        let untraced_p50 = fixed.latency_us(50.0);
        let traced_p50 = t.latency_us(50.0);
        delta.report(report);
        report.layer("gen.late_p50_us", t.late_us(50.0), "us");
        report.layer("gen.late_max_us", t.late_us(100.0), "us");
        let mut suite = layers::Suite::new(report, work);
        suite.serve_layers(&fx, &served, conn.next_seq);
        let live_fx = live::LiveFixture::build(seed, &work.join("live"));
        suite.live_layers(&live_fx);
        suite.reconcile_serve(traced_p50, untraced_p50, rec);
        suite.finish(spec.name, seed);
    } else {
        let late_max = fixed.late_us(100.0);
        let windows = fixed_secs.round().max(1.0) as usize;
        for p in [50.0, 90.0] {
            let slices: Vec<String> =
                fixed.slice_latency_us(p, windows).iter().map(|v| format!("{v:.1}")).collect();
            eprintln!("p{p} {:.1} us; per slice: {}", fixed.latency_us(p), slices.join(" "));
        }
        report.metric("latency_p50_us", fixed.windowed_latency_us(50.0, windows), "us");
        report.metric("latency_p90_us", fixed.windowed_latency_us(90.0, windows), "us");
        report.metric("success_ratio", fixed.correct as f64 / fixed.attempted() as f64, "ratio");
        let rung_secs = seconds * (1.0 - FIXED_SHARE) / LADDER_RUNGS as f64;
        let mut wrong = 0;
        let capacity = openloop::ladder(
            spec.ladder_start,
            LADDER_STEP,
            LADDER_REFINE,
            LADDER_RUNGS,
            spec.limit_us,
            |rate| {
                let r = conn.phase(&target, rate, rung_secs, None);
                wrong += r.wrong;
                let rung = openloop::Rung {
                    rate,
                    p90_us: r.windowed_latency_us(90.0, openloop::RUNG_WINDOWS),
                    pass: openloop::rung_passes(&r, spec.limit_us),
                };
                eprintln!(
                    "rung {rate:.1}/s: p90 {:.1} us, backlog {}→{}, refused {}, lost {}, late p50 {:.1} us: {}",
                    rung.p90_us,
                    r.backlog_first,
                    r.backlog_second,
                    r.refused,
                    r.lost,
                    r.late_us(50.0),
                    if rung.pass { "pass" } else { "fail" }
                );
                rung
            },
        );
        report.check(wrong == 0, "a ladder response differed from its reference");
        if capacity.is_none() {
            eprintln!("no ladder rung met the latency limit");
        }
        report.metric("throughput_per_s", capacity.unwrap_or(0.0), "1/s");
        eprintln!("generator lateness max {late_max:.1} us");
    }
    drop(conn);
    served.stop();
    cold_starts(&fx, COLD_STARTS, &mut setup, report).stop();
    report.setup(&setup);
    report.peak_rss();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcwc_serve::{CacheKey, CompletionCache};

    #[test]
    fn the_miss_key_set_exceeds_the_engine_cache() {
        let capacity = engine_config().cache_capacity;
        assert!(MISS.inputs * MISS.days > capacity);
        assert!(HIT.inputs * HIT.days <= capacity);
    }

    #[test]
    fn cycling_the_miss_keys_never_hits_the_lru() {
        let capacity = engine_config().cache_capacity;
        let mut cache = CompletionCache::new(capacity);
        let value = Matrix::zeros(1, 1);
        let keys = (MISS.inputs * MISS.days) as u64;
        for seq in 0..3 * keys {
            let key =
                CacheKey { generation: 1, time_of_day: 0, day_of_week: 0, signature: seq % keys };
            assert!(cache.get(&key).is_none(), "request {seq} hit the cache");
            cache.insert(key, &value);
        }
    }
}
