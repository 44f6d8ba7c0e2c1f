//! The traced run's per-layer numbers: every layer's public calls
//! replayed under spans on the serve and live fixtures, the workload's
//! own traced phase, and the reconciliation of stage times with the
//! end-to-end figure.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use gcwc::model::Encoder;
use gcwc::task::corrupt_input_pooled;
use gcwc::{InferRequest, InferWorkspace, TrainControl, TrainSample};
use gcwc_graph::{ConvPlan, PolyBasis, StageSpec};
use gcwc_ingest::refresh::holdout_loss;
use gcwc_ingest::{Aggregator, Pipeline, RecordLog, RefreshDriver, SealedSlot};
use gcwc_linalg::rng::seeded;
use gcwc_linalg::Matrix;
use gcwc_nn::{Adam, GradBuffer, ParamStore, Tape};
use gcwc_serve::cache::input_signature;
use gcwc_serve::{
    derive_row_flags, wire, AnyModel, BinClient, Completion, Engine, EngineConfig, ServeError,
};

use crate::live::{self, LiveFixture};
use crate::report::Report;
use crate::serve::{self, ServeFixture, Served};
use crate::trace::{self, Recorder, Span, ROOT};

/// Every per-layer metric a traced run prints, with its unit.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("wire.encode_req_us", "us"),
    ("wire.decode_req_us", "us"),
    ("wire.encode_resp_us", "us"),
    ("wire.decode_resp_us", "us"),
    ("wire.bytes_per_req", "bytes"),
    ("server.ping_us", "us"),
    ("cache.signature_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("engine.inproc_us", "us"),
    ("engine.overhead_us", "us"),
    ("engine.batch_mean", "count"),
    ("engine.rejected", "count"),
    ("engine.expired", "count"),
    ("engine.degraded", "count"),
    ("model.forward_us", "us"),
    ("model.forward_b8_us", "us"),
    ("graph.cheb_us", "us"),
    ("linalg.decoder_matmul_us", "us"),
    ("linalg.decoder_gflop_s", "GFLOP/s"),
    ("linalg.decoder_gbyte_s", "GB/s"),
    ("ingest.ns_per_record", "ns"),
    ("ingest.seal_ms", "ms"),
    ("refresh.load_ms", "ms"),
    ("refresh.fine_tune_ms", "ms"),
    ("refresh.validate_ms", "ms"),
    ("refresh.save_ms", "ms"),
    ("refresh.ckpt_bytes", "bytes"),
    ("registry.install_ms", "ms"),
    ("refresh.applied", "count"),
    ("refresh.rolled_back", "count"),
    ("train.shard_skew", "ratio"),
    ("train.step_us", "us"),
    ("nn.forward_us", "us"),
    ("nn.backward_us", "us"),
    ("nn.adam_us", "us"),
    ("serve.post_swap_first_us", "us"),
    ("gen.late_p50_us", "us"),
    ("gen.late_max_us", "us"),
    ("trace.e2e_p50_us", "us"),
    ("trace.stage_sum_us", "us"),
    ("trace.unexplained_us", "us"),
    ("trace.overhead_us", "us"),
    ("trace.root_self_us", "us"),
];

/// Replays of calls that take microseconds.
const FAST_REPS: usize = 200;
/// Replays of one forward pass (milliseconds each).
const FORWARD_REPS: usize = 40;
/// Replayed refreshes.
const REFRESH_REPS: usize = 2;
/// Timed training steps after two warm-up steps.
const TRAIN_STEPS: usize = 10;
/// Lanes of span ids: the suite's own recorder and the shard trainers.
const SUITE_LANE: u64 = 9;
const SHARD_LANE: u64 = 10;

/// How the traced phase's end-to-end p50 decomposes.
struct Reconcile {
    e2e_p50_us: f64,
    untraced_p50_us: f64,
    root: &'static str,
    stages: &'static [&'static str],
}

/// Collects replay spans and explicit values; [`Suite::finish`] turns
/// them into the per-layer metrics.
pub struct Suite<'a> {
    report: &'a mut Report,
    work: PathBuf,
    rec: Recorder,
    values: Vec<(&'static str, f64)>,
    applied: usize,
    rolled_back: usize,
    records_per_batch: usize,
    reconcile: Option<Reconcile>,
}

impl<'a> Suite<'a> {
    /// A suite writing scratch files under `work`.
    pub fn new(report: &'a mut Report, work: &Path) -> Self {
        let epoch = std::time::Instant::now();
        Self {
            report,
            work: work.to_path_buf(),
            rec: Recorder::new(epoch, SUITE_LANE),
            values: Vec::new(),
            applied: 0,
            rolled_back: 0,
            records_per_batch: 0,
            reconcile: None,
        }
    }

    /// Adds spans recorded by the workload's traced phase.
    pub fn absorb(&mut self, rec: Recorder) {
        self.rec.absorb(rec);
    }

    /// Adds refresh outcomes decided by the workload.
    pub fn add_refreshes(&mut self, applied: usize, rolled_back: usize) {
        self.applied += applied;
        self.rolled_back += rolled_back;
    }

    /// Times `reps` calls of `f`, each a span named `name` under one
    /// root span named `group`.
    fn repeat(
        &mut self,
        group: &'static str,
        name: &'static str,
        reps: usize,
        mut f: impl FnMut(usize),
    ) {
        let parent = self.rec.next_id();
        let start = self.rec.now();
        for i in 0..reps {
            let s = self.rec.now();
            f(i);
            let e = self.rec.now();
            self.rec.record(name, parent, i as u64, s, e);
        }
        let end = self.rec.now();
        self.rec.push(Span { id: parent, parent: ROOT, req: 0, name: group, start, end });
    }

    /// The serving layers on the A-GCWC fixture behind `served`:
    /// wire codec, reactor round trip, cache signature, in-process
    /// engine (continuing the workload's key order from `next_seq`),
    /// model forward, Chebyshev kernel and FC-decoder matmul.
    pub fn serve_layers(&mut self, fx: &ServeFixture, served: &Served, next_seq: u64) {
        let key = &fx.keys[0];
        let (n, m) = key.input.shape();

        let mut req = Vec::new();
        self.repeat("replay.wire", "wire.encode_req", FAST_REPS, |i| {
            req.clear();
            wire::encode_complete_request(&mut req, i as u64 + 1, key.tod, key.dow, &key.input);
            black_box(&req);
        });
        let mut filled = Matrix::zeros(n, m);
        self.repeat("replay.wire", "wire.decode_req", FAST_REPS, |_| {
            let header = wire::decode_header(&req).expect("header").expect("whole header");
            let payload = &req[wire::HEADER_LEN..wire::HEADER_LEN + header.payload_len];
            let r = wire::decode_complete_request(payload).expect("request payload");
            wire::fill_matrix(&r, &mut filled).expect("finite entries");
            black_box(&filled);
        });
        let output =
            Matrix::from_vec(n, m, key.expect.iter().map(|&b| f64::from_bits(b)).collect());
        let mut resp = Vec::new();
        self.repeat("replay.wire", "wire.encode_resp", FAST_REPS, |i| {
            resp.clear();
            wire::encode_complete_ok(
                &mut resp,
                i as u64 + 1,
                &output,
                false,
                false,
                served.generation,
                1,
            );
            black_box(&resp);
        });
        self.repeat("replay.wire", "wire.decode_resp", FAST_REPS, |_| {
            black_box(
                wire::decode_complete_ok(&resp[wire::HEADER_LEN..]).expect("response payload"),
            );
        });
        self.values.push(("wire.bytes_per_req", (req.len() + resp.len()) as f64));

        let mut ping = BinClient::connect(served.server.addr()).expect("connect for ping");
        self.repeat("replay.server", "server.ping", FAST_REPS, |_| {
            assert!(ping.ping().expect("ping"), "server must answer ping");
        });
        let _ = ping.quit();
        self.repeat("replay.cache", "cache.signature", FAST_REPS, |_| {
            black_box(input_signature(black_box(&key.input)));
        });

        let mut client = served.engine.client();
        self.repeat("replay.engine", "engine.inproc", FORWARD_REPS, |i| {
            let k = fx.key(next_seq + i as u64);
            let mut input = client.input_buffer();
            input.copy_from(&k.input);
            let c = client.complete(input, k.tod, k.dow).expect("in-process completion");
            assert_eq!(serve::bits(&c.output), k.expect, "in-process completion differs");
            client.recycle(c);
        });

        // The same keys through a cache-less engine drained on this
        // thread and straight through the model, back to back: the
        // difference of their fastest calls is the engine's own overhead
        // (queue, batching, registry snapshot, output copy), free of
        // which CPU the worker thread ran on and of the machine's slow
        // spells, which move single calls by milliseconds.
        let registry = fx.registry();
        registry.load(&fx.ckpt).expect("load checkpoint");
        let nocache = Engine::new(
            Arc::new(registry),
            EngineConfig { cache_capacity: 0, workers: 0, ..serve::engine_config() },
        );
        let mut ws = InferWorkspace::new();
        let mut flags = Vec::new();
        let answer: Arc<Mutex<Option<Completion>>> = Arc::default();
        for i in 0..FORWARD_REPS {
            let k = fx.key(i as u64);
            let (input, out_buf) = (k.input.clone(), Matrix::zeros(n, m));
            let slot = Arc::clone(&answer);
            let hook = Box::new(move |r: Result<Completion, ServeError>| {
                *slot.lock().expect("answer slot") = r.ok();
            });
            let t0 = self.rec.now();
            let submitted = nocache.submit(input, out_buf, k.tod, k.dow, None, hook);
            assert!(submitted.is_ok(), "cache-less engine refused a request");
            nocache.process_queued();
            let t1 = self.rec.now();
            self.rec.record("engine.nocache", ROOT, i as u64, t0, t1);
            let c = answer.lock().expect("answer slot").take().expect("cache-less completion");
            assert_eq!(serve::bits(&c.output), k.expect, "cache-less completion differs");
            derive_row_flags(&k.input, &mut flags);
            let t2 = self.rec.now();
            let out = fx.model.infer(&mut ws, &k.input, k.tod, k.dow, &flags);
            let t3 = self.rec.now();
            self.rec.record("model.forward", ROOT, i as u64, t2, t3);
            assert_eq!(serve::bits(&out), k.expect, "model forward differs from the reference");
            ws.give(out);
        }
        nocache.shutdown();

        let batch: Vec<(&serve::Key, Vec<f64>)> = (0..8)
            .map(|i| {
                let k = fx.key(i);
                let mut f = Vec::new();
                derive_row_flags(&k.input, &mut f);
                (k, f)
            })
            .collect();
        let mut outs: Vec<Matrix> = (0..8).map(|_| Matrix::zeros(n, m)).collect();
        self.repeat("replay.model", "model.forward_b8", FORWARD_REPS / 4, |_| {
            fx.model.infer_into(
                &mut ws,
                8,
                |r| InferRequest {
                    input: &batch[r].0.input,
                    time_of_day: batch[r].0.tod,
                    day_of_week: batch[r].0.dow,
                    row_flags: &batch[r].1,
                },
                &mut outs,
            );
            black_box(&outs);
        });

        // Kernels at the served model's shapes and plan-time tier.
        let specs: Vec<StageSpec> = fx
            .cfg
            .conv_layers
            .iter()
            .map(|l| StageSpec { cheb_order: l.cheb_order, pool: l.pool })
            .collect();
        let plan = ConvPlan::build(fx.graph.adjacency(), &specs);
        let tier = plan.kernel_tier();
        let mut rng = live::SplitMix::new(7);
        let mut c_in = 1;
        let signals: Vec<Matrix> = plan
            .stages()
            .iter()
            .zip(&fx.cfg.conv_layers)
            .map(|(stage, layer)| {
                let x = Matrix::from_fn(stage.in_nodes, m * c_in, |_, _| rng.unit() - 0.5);
                c_in = layer.filters;
                x
            })
            .collect();
        let stages = plan.stages();
        self.repeat("replay.kernels", "graph.cheb", FAST_REPS / 2, |_| {
            gcwc_linalg::tile::with_default_tier(tier, || {
                for (stage, x) in stages.iter().zip(&signals) {
                    black_box(stage.basis.forward(x));
                }
            });
        });
        let fc_in = plan.out_nodes() * c_in;
        let rows = Matrix::from_fn(m, fc_in, |_, _| rng.unit() - 0.5);
        let w = Matrix::from_fn(fc_in, n, |_, _| rng.unit() - 0.5);
        let mut dec = Matrix::zeros(m, n);
        self.repeat("replay.kernels", "linalg.decoder_matmul", FAST_REPS, |_| {
            gcwc_linalg::tile::with_default_tier(tier, || {
                black_box(&rows).matmul_into(&w, &mut dec)
            });
            black_box(&dec);
        });
        let flops = 2.0 * (m * fc_in * n) as f64;
        let bytes = 8.0 * (m * fc_in + fc_in * n + m * n) as f64;
        self.values.push(("linalg.decoder_flops", flops));
        self.values.push(("linalg.decoder_bytes", bytes));
    }

    /// The write-path layers on the live fixture: ingest and seal, the
    /// refresh replayed as its public steps, per-shard fine-tune skew,
    /// one training step split into forward, backward and Adam, and the
    /// first read after a swap.
    pub fn live_layers(&mut self, fx: &LiveFixture) {
        let dir = self.work.join("replay");
        std::fs::create_dir_all(&dir).expect("create replay dir");
        let mut pipe = Pipeline::new(
            RecordLog::open(&dir.join("log"), 1 << 16).expect("open replay log"),
            Aggregator::new(fx.wcfg),
        );
        let mut sealed: Vec<SealedSlot> = Vec::new();
        for c in 0..3u64 {
            // Cycles far past the workload's so slots never collide.
            let records = fx.cycle_records(1_000 + c);
            self.records_per_batch = records.len();
            self.rec.time("ingest.batch", ROOT, c, || {
                for &r in &records {
                    pipe.ingest(r).expect("ingest record");
                }
            });
            self.rec.time("ingest.seal", ROOT, c, || pipe.seal_all().expect("seal slots"));
            sealed = pipe.take_sealed();
        }

        let committed =
            RefreshDriver::new(fx.rcfg.clone(), Box::new(fx.factory()), Arc::new(fx.registry()))
                .expect("read manifest")
                .generation();
        let stem = format!("{}.g{committed}", fx.rcfg.stem);
        let split = sealed.len() - fx.rcfg.holdout;
        let fresh: Vec<TrainSample> =
            sealed[..split].iter().enumerate().map(|(i, s)| s.to_sample(i)).collect();
        let holdout: Vec<TrainSample> =
            sealed[split..].iter().enumerate().map(|(i, s)| s.to_sample(i)).collect();
        let registry = Arc::new(fx.registry());
        let engine = Engine::new(Arc::clone(&registry), EngineConfig::default());
        let mut client = engine.client();
        let factory = fx.factory();
        for r in 0..REFRESH_REPS as u64 {
            let parent = self.rec.next_id();
            let start = self.rec.now();
            let mut cand = factory();
            self.rec.time("refresh.load", parent, r, || {
                cand.load_shards(&fx.dir(), &stem).expect("load committed checkpoints")
            });
            let prev =
                self.rec.time("refresh.validate", parent, r, || holdout_loss(&cand, &holdout));
            self.rec.time("refresh.fine_tune", parent, r, || {
                cand.fine_tune_shards_resumable(
                    &fresh,
                    &dir,
                    "replay.finetune",
                    1,
                    false,
                    &fx.rcfg.plan,
                )
                .expect("fine-tune")
            });
            let next =
                self.rec.time("refresh.validate", parent, r, || holdout_loss(&cand, &holdout));
            if next <= prev * (1.0 + fx.rcfg.max_regression) {
                self.applied += 1;
            } else {
                self.rolled_back += 1;
            }
            let paths = self.rec.time("refresh.save", parent, r, || {
                cand.save_shards(&dir, "replay").expect("save checkpoints")
            });
            let bytes: u64 =
                paths.iter().map(|p| std::fs::metadata(p).map_or(0, |m| m.len())).sum();
            self.values.push(("refresh.ckpt_bytes", bytes as f64));
            let (_, shards) = cand.into_shards();
            self.rec.time("registry.install", parent, r, || {
                registry.install_set(shards.into_iter().map(AnyModel::Gcwc).collect())
            });
            let first = self
                .rec
                .time("serve.post_swap_first", parent, r, || live::read(&mut client, &holdout[0]));
            assert!(matches!(first, Some((_, _, false))), "first read after a swap must miss");
            let end = self.rec.now();
            self.rec.push(Span {
                id: parent,
                parent: ROOT,
                req: r,
                name: "refresh.replay",
                start,
                end,
            });
        }
        engine.shutdown();

        // Per-shard fine-tune on its own pinned thread: the slowest
        // shard sets the refresh time.
        let cand = fx.committed(committed);
        let locals: Vec<Vec<TrainSample>> = (0..cand.num_shards())
            .map(|k| fresh.iter().map(|s| cand.localize(k, s)).collect())
            .collect();
        let (_, mut shards) = cand.into_shards();
        let epoch = self.rec.epoch();
        let plan = fx.rcfg.plan;
        let recs: Vec<Recorder> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter_mut()
                .zip(&locals)
                .enumerate()
                .map(|(k, (shard, local))| {
                    scope.spawn(move || {
                        let mut rec = Recorder::new(epoch, SHARD_LANE + k as u64);
                        gcwc_linalg::parallel::with_threads(1, || {
                            rec.time("train.shard_fine_tune", ROOT, k as u64, || {
                                shard.fine_tune(local, &plan, &TrainControl::default())
                            })
                        })
                        .expect("shard fine-tune");
                        rec
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard trainer panicked")).collect()
        });
        let durs: Vec<f64> =
            recs.iter().flat_map(|r| r.spans().iter().map(|s| (s.end - s.start) as f64)).collect();
        let (lo, hi) = durs.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &d| (lo.min(d), hi.max(d)));
        self.values.push(("train.shard_skew", hi / lo));
        for r in recs {
            self.rec.absorb(r);
        }

        self.train_step(fx, &locals[0][0]);
    }

    /// Steady-state training steps on shard 0's graph, built like one
    /// step of the training loop: forward, KL loss and backward, Adam.
    fn train_step(&mut self, fx: &LiveFixture, sample: &TrainSample) {
        let graph = fx.partition.partition(0).graph();
        let cfg = &fx.cfg;
        let mut store = ParamStore::new();
        let mut init = seeded(11);
        let enc = Encoder::new(graph, live::M, cfg, &mut store, &mut init);
        let mut adam = Adam::new(&store, cfg.optim);
        let mut tape = Tape::new();
        let mut buffer = GradBuffer::new();
        for step in 0..TRAIN_STEPS + 2 {
            let timed = step >= 2;
            let parent = self.rec.next_id();
            let start = self.rec.now();
            let t0 = self.rec.now();
            store.zero_grads();
            tape.reset();
            buffer.reset();
            let mut rng = seeded(step as u64);
            let (input, flags) = corrupt_input_pooled(
                &sample.input,
                &sample.context.row_flags,
                cfg.row_dropout,
                &mut rng,
                tape.pool_mut(),
            );
            let pred = enc.output(&mut tape, &store, &input, true, &mut rng);
            tape.pool_mut().give(input);
            tape.pool_mut().give_vec(flags);
            let t1 = self.rec.now();
            let loss = tape.kl_loss_masked_ref(pred, &sample.label, &sample.label_mask, 1e-6);
            tape.backward(loss, &mut buffer);
            let t2 = self.rec.now();
            buffer.merge_into(&mut store);
            store.scale_grads(1.0);
            adam.step(&mut store);
            let t3 = self.rec.now();
            if timed {
                let s = step as u64;
                self.rec.record("nn.forward", parent, s, t0, t1);
                self.rec.record("nn.backward", parent, s, t1, t2);
                self.rec.record("nn.adam", parent, s, t2, t3);
                self.rec.push(Span {
                    id: parent,
                    parent: ROOT,
                    req: s,
                    name: "train.step",
                    start,
                    end: t3,
                });
            }
        }
    }

    /// Stages of a traced open-loop request: client encode, server-side
    /// decode, the in-process engine, response encode, client decode,
    /// and the reactor + loopback round trip of a ping.
    pub fn reconcile_serve(&mut self, traced_p50_us: f64, untraced_p50_us: f64, rec: Recorder) {
        self.rec.absorb(rec);
        self.reconcile = Some(Reconcile {
            e2e_p50_us: traced_p50_us,
            untraced_p50_us,
            root: "request",
            stages: &[
                "client.encode_req",
                "wire.decode_req",
                "engine.inproc",
                "wire.encode_resp",
                "client.decode_resp",
                "server.ping",
            ],
        });
    }

    /// Stages between a cycle's last record and the first read of the
    /// new generation: seal, refresh, first read.
    pub fn reconcile_live(&mut self, traced_p50_us: f64, untraced_p50_us: f64) {
        self.reconcile = Some(Reconcile {
            e2e_p50_us: traced_p50_us,
            untraced_p50_us,
            root: "cycle",
            stages: &["ingest.seal", "refresh", "serve.post_swap_first"],
        });
    }

    /// Writes the spans, derives every per-layer metric from their self
    /// times and the recorded values, and adds them to the report.
    pub fn finish(self, workload: &str, seed: u64) {
        let spans = self.rec.spans();
        let out_dir = Path::new(".bench_out");
        if std::fs::create_dir_all(out_dir).is_ok() {
            let path = out_dir.join(format!("{workload}-seed{seed}.spans.tsv"));
            if let Err(e) = trace::write_tsv(&path, spans) {
                eprintln!("could not write {}: {e}", path.display());
            }
        }
        let self_us = trace::self_p50_us(spans);
        let mut dur_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in spans {
            dur_us.entry(s.name).or_default().push((s.end - s.start) as f64 / 1e3);
        }
        let us = |name: &str| *self_us.get(name).unwrap_or_else(|| panic!("no {name} spans"));
        let fastest = |name: &str| dur_us[name].iter().copied().fold(f64::INFINITY, f64::min);
        let value = |name: &str| {
            let v: Vec<f64> =
                self.values.iter().filter(|(n, _)| *n == name).map(|&(_, v)| v).collect();
            assert!(!v.is_empty(), "no {name} value");
            crate::stats::median(&v)
        };
        let matmul_us = us("linalg.decoder_matmul");
        let mut m: Vec<(&str, f64)> = vec![
            ("wire.encode_req_us", us("wire.encode_req")),
            ("wire.decode_req_us", us("wire.decode_req")),
            ("wire.encode_resp_us", us("wire.encode_resp")),
            ("wire.decode_resp_us", us("wire.decode_resp")),
            ("wire.bytes_per_req", value("wire.bytes_per_req")),
            ("server.ping_us", us("server.ping")),
            ("cache.signature_us", us("cache.signature")),
            ("engine.inproc_us", us("engine.inproc")),
            ("engine.overhead_us", fastest("engine.nocache") - fastest("model.forward")),
            ("model.forward_us", us("model.forward")),
            ("model.forward_b8_us", us("model.forward_b8") / 8.0),
            ("graph.cheb_us", us("graph.cheb")),
            ("linalg.decoder_matmul_us", matmul_us),
            ("linalg.decoder_gflop_s", value("linalg.decoder_flops") / (matmul_us * 1e3)),
            ("linalg.decoder_gbyte_s", value("linalg.decoder_bytes") / (matmul_us * 1e3)),
            ("ingest.ns_per_record", us("ingest.batch") * 1e3 / self.records_per_batch as f64),
            ("ingest.seal_ms", us("ingest.seal") / 1e3),
            ("refresh.load_ms", us("refresh.load") / 1e3),
            ("refresh.fine_tune_ms", us("refresh.fine_tune") / 1e3),
            // Two holdout scores per refresh: before and after.
            ("refresh.validate_ms", 2.0 * us("refresh.validate") / 1e3),
            ("refresh.save_ms", us("refresh.save") / 1e3),
            ("refresh.ckpt_bytes", value("refresh.ckpt_bytes")),
            ("registry.install_ms", us("registry.install") / 1e3),
            ("refresh.applied", self.applied as f64),
            ("refresh.rolled_back", self.rolled_back as f64),
            ("train.shard_skew", value("train.shard_skew")),
            ("train.step_us", crate::stats::median(&dur_us["train.step"])),
            ("nn.forward_us", us("nn.forward")),
            ("nn.backward_us", us("nn.backward")),
            ("nn.adam_us", us("nn.adam")),
            ("serve.post_swap_first_us", us("serve.post_swap_first")),
        ];
        let rc = self.reconcile.as_ref().expect("reconcile_serve or reconcile_live called");
        let stage_sum: f64 = rc.stages.iter().map(|s| us(s)).sum();
        m.push(("trace.e2e_p50_us", rc.e2e_p50_us));
        m.push(("trace.stage_sum_us", stage_sum));
        m.push(("trace.unexplained_us", rc.e2e_p50_us - stage_sum));
        m.push(("trace.overhead_us", rc.e2e_p50_us - rc.untraced_p50_us));
        m.push(("trace.root_self_us", us(rc.root)));
        for (name, v) in m {
            let unit = PER_LAYER.iter().find(|(n, _)| *n == name).expect("listed").1;
            self.report.layer(name, v, unit);
        }
        for (name, _) in PER_LAYER {
            assert!(self.report.value(name).is_some(), "per-layer metric {name} not measured");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json beside perfbench/");
        let layers = &text[text.find("\"per_layer\"").unwrap()..];
        assert_eq!(layers.matches("\"name\"").count(), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(layers.contains(&entry), "{entry} missing");
        }
    }
}
