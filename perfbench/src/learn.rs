//! `learn-n400`: the paper's operating point, in process, no sockets.
//!
//! One SpikeDyn `OnlineLearner` with 400 excitatory neurons on 14×14 inputs
//! in batches of 8 consumes the four drift scenarios back to back (the
//! streaming phase), then a held-out evaluation set goes through
//! `Engine::infer_batch` with the learned weights (the inference phase):
//! the paper's train/infer split. The kernels, the plasticity rule and the
//! engine do almost all the work and the serving layers none, so a kernel
//! change shows here in full and a scheduler change must show nothing.
//!
//! A traced run replays the streaming phase through a mirror of
//! `OnlineLearner::ingest_batch` built from the lower layers' public calls,
//! so the trainer and engine calls inside each batch get spans of their
//! own; the mirror must return the learner's predictions exactly.

use std::collections::VecDeque;
use std::io;
use std::time::Instant;

use neuro_energy::GpuSpec;
use snn_core::encoding::PoissonEncoder;
use snn_core::metrics::ClassAssignment;
use snn_core::ops::OpCounts;
use snn_core::rng::{derive_seed, seeded_rng};
use snn_core::sim::{run_sample, SampleResult};
use snn_core::stdp::PairStdp;
use snn_data::{eval_set, Image, Scenario, SyntheticDigits};
use snn_online::{
    DriftDetector, ModelSnapshot, OnlineConfig, OnlineLearner, SlidingMetrics, WindowRecord,
};
use snn_runtime::Engine;
use spikedyn::{AdaptiveResponse, Method, Trainer};

use crate::fleet::FIXED_SEED;
use crate::json::Value;
use crate::spans::{totals, Tracer};
use crate::stats::{mean, median, percentile};
use crate::{peak_rss_mb, Args, Outcome, LIMIT_P90_MS};

const N_EXC: usize = 400;
const BATCH: usize = 8;

/// Streaming samples per scenario for each second of the run's budget.
const SAMPLES_PER_SCENARIO_PER_S: u64 = 30;

/// Held-out samples per class.
const EVAL_PER_CLASS: u64 = 100;

/// Timed passes over the held-out set.
const INFER_PASSES: usize = 5;

/// Checkpoint/restore cycles timed per run (the in-process form of a
/// migration).
const CODEC_CYCLES: usize = 100;

/// Set-ups per run, half before and half after the timed phases;
/// `setup_s` is their median.
const SETUP_REPEATS: usize = 8;

/// Samples of the traced kernel micro-phase.
const KERNEL_SAMPLES: usize = 16;

struct Inputs {
    stream: Vec<Image>,
    held_out: Vec<Image>,
}

/// The training stream is fixed (see [`FIXED_SEED`]); the seed draws the
/// held-out images.
fn inputs(args: &Args) -> Inputs {
    let train = SyntheticDigits::new(derive_seed(FIXED_SEED, 1));
    let classes: Vec<u8> = (0..10).collect();
    let per = SAMPLES_PER_SCENARIO_PER_S * args.seconds;
    let mut stream = Vec::new();
    for (i, sc) in Scenario::all().iter().enumerate() {
        let offset = i as u64 * 100_000;
        let scenario_seed = derive_seed(FIXED_SEED, 10 + i as u64);
        stream.extend(sc.stream(&train, &classes, per, scenario_seed, offset));
    }
    let held_out = eval_set(
        &SyntheticDigits::new(derive_seed(args.seed, 1)),
        &classes,
        EVAL_PER_CLASS,
        1_000_000,
        derive_seed(args.seed, 30),
    );
    let down = |v: Vec<Image>| v.into_iter().map(|i| i.downsample(2)).collect();
    Inputs {
        stream: down(stream),
        held_out: down(held_out),
    }
}

fn config() -> OnlineConfig {
    let mut cfg = OnlineConfig::fast(Method::SpikeDyn, N_EXC);
    cfg.seed = derive_seed(FIXED_SEED, N_EXC as u64);
    cfg.batch_size = BATCH;
    cfg
}

fn snn_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Closed-loop streaming: every batch as soon as the previous returns.
struct Streamed {
    predictions: Vec<Vec<Option<u8>>>,
    batch_ms: Vec<f64>,
    wall_s: f64,
}

fn stream(learner: &mut OnlineLearner, samples: &[Image]) -> io::Result<Streamed> {
    let mut predictions = Vec::new();
    let mut batch_ms = Vec::new();
    let t_all = Instant::now();
    for batch in samples.chunks(BATCH) {
        let t0 = Instant::now();
        predictions.push(learner.ingest_batch(batch).map_err(snn_err)?);
        batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(Streamed {
        predictions,
        batch_ms,
        wall_s: t_all.elapsed().as_secs_f64(),
    })
}

fn correct(predictions: &[Vec<Option<u8>>], samples: &[Image]) -> (u64, u64) {
    let right = predictions
        .iter()
        .flatten()
        .zip(samples)
        .filter(|(p, img)| **p == Some(img.label))
        .count();
    (right as u64, samples.len() as u64)
}

/// A mirror of `OnlineLearner::ingest_batch` made of the public calls of
/// the layers below it, with a span around each call. Must stay step for
/// step equal to the learner; the traced run checks its predictions.
struct Mirror {
    cfg: OnlineConfig,
    trainer: Trainer,
    engine: Engine,
    assignment: Option<ClassAssignment>,
    reservoir: VecDeque<Image>,
    metrics: SlidingMetrics,
    drift: DriftDetector,
    samples_seen: u64,
    last_assign_at: u64,
    response_remaining: u64,
    results: Vec<SampleResult>,
}

impl Mirror {
    fn new(cfg: OnlineConfig) -> Mirror {
        let trainer = Trainer::with_compression(
            cfg.method,
            cfg.n_input,
            cfg.n_exc,
            cfg.present,
            cfg.time_compression,
            cfg.seed,
        )
        .with_max_rate(cfg.max_rate_hz);
        Mirror {
            engine: trainer.engine(),
            trainer,
            assignment: None,
            reservoir: VecDeque::new(),
            metrics: SlidingMetrics::new(cfg.metric_window, cfg.n_classes),
            drift: DriftDetector::new(cfg.drift, cfg.n_classes),
            samples_seen: 0,
            last_assign_at: 0,
            response_remaining: 0,
            results: Vec::new(),
            cfg,
        }
    }

    fn ingest(
        &mut self,
        batch: &[Image],
        tracer: &Tracer,
        req: u64,
    ) -> io::Result<Vec<Option<u8>>> {
        let root = tracer.open("online.ingest_batch", req, None, Instant::now());
        let t = Instant::now();
        let results = self
            .trainer
            .infer_results_with(&mut self.engine, batch)
            .map_err(snn_err)?;
        tracer.record("runtime.infer", req, root, t, Instant::now());
        let mut predictions = Vec::with_capacity(batch.len());
        let mut events = 0;
        for (img, result) in batch.iter().zip(&results) {
            let predicted = self
                .assignment
                .as_ref()
                .and_then(|a| a.predict(&result.exc_spike_counts));
            predictions.push(predicted);
            self.metrics.push(WindowRecord {
                label: img.label,
                predicted,
                exc_spikes: result.total_exc_spikes(),
                input_spikes: result.input_spikes,
            });
            if self.assignment.is_some()
                && self.drift.observe(predicted, result.input_spikes).is_some()
            {
                events += 1;
            }
        }
        for img in batch {
            let t = Instant::now();
            let r = self.trainer.train_image(img);
            tracer.record("spikedyn.train_image", req, root, t, Instant::now());
            self.results.push(r);
            if self.reservoir.len() == self.cfg.reservoir_capacity {
                self.reservoir.pop_front();
            }
            self.reservoir.push_back(img.clone());
        }
        self.samples_seen += batch.len() as u64;
        if self.response_remaining > 0 {
            let spent = (batch.len() as u64).min(self.response_remaining);
            self.response_remaining -= spent;
            if self.response_remaining == 0 {
                self.trainer
                    .apply_adaptive_response(&AdaptiveResponse::neutral());
            }
        }
        if events > 0
            && self.cfg.response.hold_samples > 0
            && self
                .trainer
                .apply_adaptive_response(&self.cfg.response.boosted())
        {
            self.response_remaining = self.cfg.response.hold_samples;
        }
        if self.samples_seen >= self.last_assign_at + self.cfg.assign_every {
            let crossings = (self.samples_seen - self.last_assign_at) / self.cfg.assign_every;
            self.last_assign_at += crossings * self.cfg.assign_every;
            if !self.reservoir.is_empty() {
                let t = Instant::now();
                let labelled: &[Image] = self.reservoir.make_contiguous();
                self.assignment = Some(
                    self.trainer
                        .fit_assignment_with(&mut self.engine, labelled, self.cfg.n_classes)
                        .map_err(snn_err)?,
                );
                tracer.record("spikedyn.fit_assignment", req, root, t, Instant::now());
            }
        }
        tracer.close(root, Instant::now());
        Ok(predictions)
    }
}

/// Mean µs per call of the `snn-core` kernels, run by hand on a copy of the
/// trained network: (encode step, deliver, network step, STDP post-spike,
/// whole sample).
fn kernel_phase(learner: &OnlineLearner, samples: &[Image], seed: u64) -> [f64; 5] {
    let trainer = learner.trainer();
    let present = trainer.present;
    let encoder = PoissonEncoder::new(learner.config().max_rate_hz);
    let stdp = PairStdp::default();
    let mut net = trainer.net.clone();
    let mut ops = OpCounts::default();
    let mut buf = Vec::new();
    let (mut enc, mut del, mut step, mut post) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for (i, img) in samples.iter().enumerate() {
        let rates = encoder.rates_hz(img.pixels());
        let mut rng = seeded_rng(derive_seed(seed, 9000 + i as u64));
        net.settle();
        for _ in 0..present.present_steps() {
            let t = Instant::now();
            PoissonEncoder::sample_step(&rates, present.dt_ms, &mut rng, &mut buf, &mut ops);
            enc.push(us(t));
            let t = Instant::now();
            net.deliver_input_spikes(&buf, &mut ops);
            del.push(us(t));
            let t = Instant::now();
            net.step(present.dt_ms, &mut ops);
            step.push(us(t));
        }
        // The trained network rarely fires without the retry boost, so the
        // post-spike update runs once per neuron on the traces the sample
        // left behind: the call's cost does not depend on who fired.
        for j in 0..net.n_exc() {
            let t = Instant::now();
            stdp.apply_post_spike(&mut net.weights, &net.traces, j, &mut ops);
            post.push(us(t));
        }
    }
    let mut net = trainer.net.clone();
    let mut whole = Vec::new();
    for (i, img) in samples.iter().enumerate() {
        let rates = encoder.rates_hz(img.pixels());
        let mut rng = seeded_rng(derive_seed(seed, 9500 + i as u64));
        let t = Instant::now();
        std::hint::black_box(run_sample(
            &mut net, &rates, &present, None, &mut rng, &mut ops,
        ));
        whole.push(us(t));
    }
    [
        mean(&enc),
        mean(&del),
        mean(&step),
        mean(&post),
        mean(&whole),
    ]
}

pub fn run(args: &Args) -> io::Result<Outcome> {
    let set_up = |setups: &mut Vec<f64>| {
        let t0 = Instant::now();
        let inp = inputs(args);
        let learner = OnlineLearner::new(config());
        setups.push(t0.elapsed().as_secs_f64());
        (inp, learner)
    };
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..crate::fleet::setups_before(SETUP_REPEATS) {
        live = Some(set_up(&mut setups));
    }
    let (inp, mut learner) = live.expect("at least one set-up");
    let mut out = Outcome::default();
    let mut detail = Value::obj();
    let gpu = GpuSpec::gtx_1080_ti();

    // Streaming phase: the four scenarios back to back, closed loop.
    let streamed = stream(&mut learner, &inp.stream)?;
    let n_stream = inp.stream.len() as f64;
    let train_sps = n_stream / streamed.wall_s;
    let ops = learner.trainer().avg_train_sample_ops();
    let train_mj = gpu.energy_j(&ops) * 1e3;
    let drift_events = learner.drift_events().len();
    out.attempted += streamed.batch_ms.len() as u64;

    // In-process migration: checkpoint → bytes → snapshot → resumed learner,
    // continuing on the resumed one.
    let (mut ckpt_ms, mut restore_ms, mut migrate_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut ckpt_bytes = 0;
    for _ in 0..CODEC_CYCLES {
        let t0 = Instant::now();
        let bytes = learner.checkpoint().to_bytes();
        let t1 = Instant::now();
        let snap = ModelSnapshot::from_bytes(&bytes).map_err(snn_err)?;
        let resumed = OnlineLearner::resume(snap).map_err(snn_err)?;
        let t2 = Instant::now();
        ckpt_ms.push((t1 - t0).as_secs_f64() * 1e3);
        restore_ms.push((t2 - t1).as_secs_f64() * 1e3);
        migrate_ms.push((t2 - t0).as_secs_f64() * 1e3);
        out.attempted += 1;
        // Output check, outside the timed region: the round trip is exact.
        if resumed.checkpoint().to_bytes() != bytes {
            out.mismatch("checkpoint does not round-trip byte for byte".into());
        }
        ckpt_bytes = bytes.len();
        learner = resumed;
    }

    // In process nothing queues, so the highest sustained rate is the
    // closed-loop streaming rate. Whether its p90 meets the serving limit
    // is in the detail line.
    let pct = |p: f64| {
        percentile(&streamed.batch_ms, p)
            .ok_or_else(|| io::Error::other(format!("stream: too few batches for p{p}")))
    };
    let (p50, p90) = (pct(50.0)?, pct(90.0)?);
    out.put("ingest_p50_ms", p50);
    out.put("max_sps", train_sps);
    let (right, seen) = correct(&streamed.predictions, &inp.stream);
    let mut stream_phase = Value::obj();
    stream_phase
        .set("phase", "stream")
        .set("batches", streamed.batch_ms.len())
        .set("achieved_sps", train_sps)
        .set("p50_ms", p50)
        .set("p90_ms", p90)
        .set("p95_ms", pct(95.0)?)
        .set("met_limit", p90 <= LIMIT_P90_MS);

    // Inference phase: the held-out set through the batched engine,
    // INFER_PASSES times with the same per-batch seeds. One pass lasts
    // under a second, so `infer_sps` takes the median pass.
    let engine = learner.trainer().engine();
    let infer_seed = derive_seed(args.seed, 7000);
    let held: Vec<&[Image]> = inp.held_out.chunks(BATCH).collect();
    let mut infer_ops = OpCounts::default();
    let mut batched = Vec::new();
    let mut pass_s = Vec::new();
    let mut unrepeated = Vec::new();
    for pass in 0..INFER_PASSES {
        let mut results = Vec::with_capacity(held.len());
        let t0 = Instant::now();
        for (i, b) in held.iter().enumerate() {
            let outcome = engine.infer_batch_metered(b, derive_seed(infer_seed, i as u64));
            if pass == 0 {
                infer_ops.accumulate(&outcome.ops);
            }
            results.push(outcome.results);
        }
        pass_s.push(t0.elapsed().as_secs_f64());
        // Compared outside the timed pass; only the first pass's results
        // are kept.
        if pass == 0 {
            batched = results;
        } else if results != batched {
            unrepeated.push(pass);
        }
    }
    let infer_wall = median(&pass_s);
    let (engine_stats, pool) = (engine.stats(), engine.pool_stats());
    out.attempted += (held.len() * INFER_PASSES) as u64;
    let n_held = inp.held_out.len() as f64;
    out.put("peak_rss_mb", peak_rss_mb());

    // Output check: every pass repeated the first, and the batched engine
    // equals the sequential reference.
    for pass in unrepeated {
        out.mismatch(format!("infer_batch pass {pass} differs from pass 0"));
    }
    for (i, b) in held.iter().enumerate() {
        if engine.infer_sequential(b, derive_seed(infer_seed, i as u64)) != batched[i] {
            out.mismatch(format!(
                "infer_batch differs from infer_sequential on batch {i}"
            ));
        }
    }

    // The remaining set-ups, after the timed phases and the peak RSS read.
    while setups.len() < SETUP_REPEATS {
        drop(set_up(&mut setups));
    }
    let (setup_s, setup_detail) = crate::fleet::setup_summary(&setups);
    out.put("setup_s", setup_s);
    out.put("train_sps", train_sps);
    out.put("infer_sps", n_held / infer_wall);
    out.put("train_mj_per_sample", train_mj);
    out.put(
        "infer_mj_per_sample",
        gpu.energy_j(&infer_ops) * 1e3 / n_held,
    );
    out.put("prequential_acc", right as f64 / seen.max(1) as f64);
    out.put(
        "checkpoint_p50_ms",
        percentile(&ckpt_ms, 50.0).expect("enough cycles"),
    );
    out.put(
        "migrate_p50_ms",
        percentile(&migrate_ms, 50.0).expect("enough cycles"),
    );

    if args.trace {
        trace_phase(args, &inp, &streamed, &mut out, &mut detail)?;
        let [enc, del, step, post, whole] =
            kernel_phase(&learner, &inp.held_out[..KERNEL_SAMPLES], args.seed);
        out.put("core.encode_step_us", enc);
        out.put("core.deliver_us", del);
        out.put("core.network_step_us", step);
        out.put("core.stdp_post_us", post);
        out.put("core.run_sample_us", whole);
        out.put("core.syn_events_per_sample", ops.syn_events as f64);
        out.put("core.neuron_updates_per_sample", ops.neuron_updates as f64);
        out.put("core.weight_updates_per_sample", ops.weight_updates as f64);
        out.put("core.spikes_per_sample", ops.spikes as f64);
        out.put("runtime.infer_us_per_sample", infer_wall * 1e6 / n_held);
        out.put("runtime.pool_hit_rate", pool.hit_rate());
        out.put(
            "runtime.pool_wait_us",
            pool.wait_us as f64 / pool.checkouts.max(1) as f64,
        );
        out.put(
            "runtime.busy_share",
            engine_stats.busy_us as f64 / (pass_s.iter().sum::<f64>() * 1e6),
        );
        out.put(
            "runtime.batch_speedup",
            batch_speedup(&engine, &inp.held_out, infer_seed),
        );
        out.put("online.ingest_batch_ms", mean(&streamed.batch_ms));
        out.put("online.drift_events", drift_events as f64);
        out.put("online.checkpoint_ms", median(&ckpt_ms));
        out.put("online.restore_ms", median(&restore_ms));
        out.put("online.checkpoint_bytes", ckpt_bytes as f64);
    }
    out.put("ok_rate", out.ok_rate());

    detail
        .set("n_exc", N_EXC)
        .set("stream_samples", inp.stream.len())
        .set("held_out_samples", inp.held_out.len())
        .set(
            "infer_pass_s",
            Value::Arr(pass_s.iter().map(|&t| t.into()).collect()),
        )
        .set("setup_s", setup_detail)
        .set("phases", Value::Arr(vec![stream_phase]))
        .set("drift_events", drift_events)
        .set("codec_cycles", CODEC_CYCLES);
    out.detail = detail;
    Ok(out)
}

/// `infer_sequential` time ÷ `infer_batch` time on the same 64 samples
/// (median of three each); sequential is the base.
fn batch_speedup(engine: &Engine, samples: &[Image], seed: u64) -> f64 {
    let batch = &samples[..samples.len().min(64)];
    let time = |f: &dyn Fn()| {
        let t: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&t)
    };
    let seq = time(&|| {
        std::hint::black_box(engine.infer_sequential(batch, seed));
    });
    let par = time(&|| {
        std::hint::black_box(engine.infer_batch(batch, seed));
    });
    seq / par
}

/// The traced replay of the streaming phase through the mirror: span self
/// times per layer, the per-sample counts of `SampleResult`, and the
/// overhead of tracing on the headline `train_sps`.
fn trace_phase(
    args: &Args,
    inp: &Inputs,
    untraced: &Streamed,
    out: &mut Outcome,
    detail: &mut Value,
) -> io::Result<()> {
    let tracer = Tracer::new(true);
    let mut mirror = Mirror::new(config());
    let t0 = Instant::now();
    let mut traced_preds = Vec::new();
    for (i, batch) in inp.stream.chunks(BATCH).enumerate() {
        traced_preds.push(mirror.ingest(batch, &tracer, i as u64)?);
    }
    let traced_sps = inp.stream.len() as f64 / t0.elapsed().as_secs_f64();
    if traced_preds != untraced.predictions {
        out.mismatch("traced mirror diverged from OnlineLearner::ingest_batch".into());
    }
    let untraced_sps = inp.stream.len() as f64 / untraced.wall_s;
    // Better is lower: the share of the untraced rate that tracing costs.
    out.put("trace_overhead", (untraced_sps - traced_sps) / untraced_sps);
    let spans = tracer.spans();
    let t = totals(&spans);
    let batches = untraced.batch_ms.len() as f64;
    let ms_per_batch = |name: &str| {
        t.get(name)
            .map_or(0.0, |x| x.self_ns as f64 / 1e6 / batches)
    };
    let mean_of = |name: &str, scale: f64| {
        t.get(name)
            .map_or(0.0, |x| x.total_ns as f64 / scale / x.count.max(1) as f64)
    };
    out.put("online.self_ms", ms_per_batch("online.ingest_batch"));
    out.put(
        "spikedyn.train_image_us",
        mean_of("spikedyn.train_image", 1e3),
    );
    out.put(
        "spikedyn.fit_assignment_ms",
        mean_of("spikedyn.fit_assignment", 1e6),
    );
    let n = mirror.results.len().max(1) as f64;
    out.put(
        "core.retries_per_sample",
        mirror.results.iter().map(|r| r.retries as f64).sum::<f64>() / n,
    );
    out.put(
        "core.steps_per_sample",
        mirror
            .results
            .iter()
            .map(|r| r.steps_run as f64)
            .sum::<f64>()
            / n,
    );
    // The blocking path of one batch: the learner's own code plus its
    // trainer and engine children. Their self times add up to the traced
    // batch time; the untraced batch time differs by the tracing overhead.
    let mut path = Value::obj();
    let mut sum = 0.0;
    for name in [
        "online.ingest_batch",
        "runtime.infer",
        "spikedyn.train_image",
        "spikedyn.fit_assignment",
    ] {
        let v = ms_per_batch(name);
        sum += v;
        path.set(name, v);
    }
    path.set("sum_of_self_ms_per_batch", sum)
        .set("untraced_ingest_batch_ms", mean(&untraced.batch_ms));
    let file = args.out_dir().join("spans.jsonl");
    tracer.write_jsonl(&file)?;
    detail
        .set("blocking_path_ms_per_batch", path)
        .set("traced_train_sps", traced_sps)
        .set("untraced_train_sps", untraced_sps)
        .set("spans", file.display().to_string());
    Ok(())
}
