//! One benchmark run: set-up, the timed window, the output checks, the
//! end-to-end metrics, and (traced) the per-layer pass.

use std::time::Instant;

use esti_core::perf::Phase;
use esti_core::serving::Priority;
use esti_model::ReferenceModel;
use esti_runtime::{
    planner_dtype, ContinuousBatcher, ExecMode, ExecPlanner, GenerateOptions, KvBackend,
    OverloadShed, PartitionedEngine, PlanDecision, ServeError, ServingOutcome, ServingRequest,
    WeightFormat,
};

use crate::host::Records;
use crate::layers::{self, CollSnapshot, Contexts};
use crate::spans::Tracer;
use crate::stats::{
    digest, inferred_deferrals, median, percentile, slo_summary, stream_hash, Served, Timeline,
};
use crate::workload::{
    bench_model, offline_batches, requests, top_class, Workload, MODEL_SEED, OFFLINE_BATCH,
    OFFLINE_GEN, OFFLINE_PROMPT, PAGE_SIZE, PREFIX_LEN, SLOTS,
};

/// Requests (or offline rows) re-run in isolation to check the served
/// streams, outside the timed window.
const CHECK_SAMPLE: usize = 4;

/// The `serving` layer's metrics and units, reported as 0 on `offline_2d`,
/// which bypasses the batcher.
const SERVING_METRICS: [(&str, &str); 18] = [
    ("serving.step_p50_s", "s"),
    ("serving.step_p90_s", "s"),
    ("serving.mean_batch", "slots"),
    ("serving.peak_batch", "slots"),
    ("serving.decode_steps", "count"),
    ("serving.decode_busy_frac", "fraction"),
    ("serving.non_decode_s", "s"),
    ("serving.drain_s", "s"),
    ("serving.preemptions", "count"),
    ("serving.replayed_tokens", "count"),
    ("serving.useful_token_frac", "fraction"),
    ("serving.shed_queue_full", "count"),
    ("serving.shed_ttft_deadline", "count"),
    ("serving.ttft_p90_s", "s"),
    ("serving.tpot_p90_s", "s"),
    ("serving.high_ttft_p90_s", "s"),
    ("serving.ttft_p99_s", "s"),
    ("serving.tpot_p99_s", "s"),
];

/// Named metric values with units, in print order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    /// The value of `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted: requests sent, or offline sequences.
    pub attempted: usize,
    /// Operations that failed: a run-level error or a wrong output.
    pub failed: usize,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Planner decisions `phase/batch/tokens=mode`, sorted.
    pub plan: Vec<String>,
}

/// A single-process engine with every environment knob pinned.
///
/// `offline_2d` also pins monolithic execution. Its planner probes
/// collectives over 4 chips per core, and in 3 of 48 runs on a 2-core
/// host the probe's noise made the planner choose `Overlapped{8}` for the
/// batch prefill, which then ran about five times slower: a run-level
/// coin flip that widens the spread of every timing. The planner still
/// decides in set-up; its choice is reported, flagged when it diverges,
/// and counted in `planner.overlapped_decisions`.
#[must_use]
pub fn engine(model: &ReferenceModel, w: Workload) -> PartitionedEngine {
    let mut e = match w {
        Workload::Offline2d => PartitionedEngine::new_with_exec(
            model,
            w.layout(),
            WeightFormat::Exact,
            ExecMode::Monolithic,
        ),
        _ => PartitionedEngine::new(model, w.layout(), WeightFormat::Exact),
    };
    e.set_intra_chip_threads(1);
    e.set_kv_backend(KvBackend::Paged {
        page_size: PAGE_SIZE,
    });
    e
}

/// The planner's decisions for the workload's shapes, as plan lines:
/// these run `Calibration::probed` for every collective group size the
/// layout's schedule uses (cached for the rest of the process).
fn calibrate(model: &ReferenceModel, w: Workload) -> Vec<String> {
    let planner = ExecPlanner::new(
        model.config(),
        w.layout(),
        planner_dtype(WeightFormat::Exact),
    );
    let (b, l) = match w {
        Workload::Offline2d => (OFFLINE_BATCH, OFFLINE_PROMPT),
        _ => (1, 16),
    };
    let decode_batch = if w == Workload::Offline2d { b } else { SLOTS };
    [
        planner.decide(Phase::Decode, decode_batch, 1),
        planner.decide(Phase::Prefill, b, l),
    ]
    .iter()
    .map(plan_line)
    .collect()
}

/// What set-up leaves behind for the timed window.
#[allow(clippy::large_enum_variant)] // built once per run
enum Ready {
    Serving(ContinuousBatcher),
    Offline(PartitionedEngine),
}

/// What [`setup`] returns.
struct SetUp {
    model: ReferenceModel,
    ready: Ready,
    /// Set-up seconds.
    secs: f64,
    /// Planner calibration seconds.
    calib_s: f64,
    /// The planner's decisions in set-up.
    plan: Vec<String>,
}

/// Set-up: model init, planner calibration, engine build and one warm-up
/// request.
fn setup(w: Workload, tr: &mut Tracer) -> Result<SetUp, String> {
    let t = Instant::now();
    let root = tr.begin("setup", None);
    let (model, _) = tr.time("model.init_random", None, || {
        ReferenceModel::init_random(bench_model(), MODEL_SEED)
    });
    let (plan, calib_s) = tr.time("planner.calibration", None, || calibrate(&model, w));
    let ready = match w {
        Workload::Offline2d => {
            let (mut e, _) = tr.time("engine.build", None, || engine(&model, w));
            let warm: Vec<Vec<usize>> = offline_batches(u64::MAX, 1).remove(0);
            let opts = GenerateOptions {
                max_new_tokens: 2,
                ..GenerateOptions::default()
            };
            tr.time("engine.warmup", None, || e.generate(&warm, &opts));
            Ready::Offline(e)
        }
        _ => {
            let (mut b, _) = tr.time("serving.build", None, || {
                ContinuousBatcher::new(&model, w.layout(), WeightFormat::Exact, w.serving_options())
            });
            // As long as the workload's prompts, so the first timed
            // prefill does not pay for first-touch buffers and pages.
            let len = if w == Workload::LongPrefix {
                PREFIX_LEN + 16
            } else {
                16
            };
            let vocab = bench_model().vocab;
            let warm =
                ServingRequest::immediate((0..len).map(|t| 1 + t % (vocab - 1)).collect(), 8);
            let (r, _) = tr.time("serving.warmup", None, || b.try_serve(&[warm]));
            r.map_err(|e| format!("warm-up request failed: {e}"))?;
            Ready::Serving(b)
        }
    };
    tr.end(root, &[]);
    Ok(SetUp {
        model,
        ready,
        secs: t.elapsed().as_secs_f64(),
        calib_s,
        plan,
    })
}

/// Set-up alone, for the set-up samples taken in child processes.
///
/// # Errors
///
/// Fails if the warm-up request fails.
pub fn setup_only(w: Workload) -> Result<f64, String> {
    let mut tr = Tracer::new(false);
    setup(w, &mut tr).map(|s| s.secs)
}

/// Runs `w` for `seconds` on inputs generated from `seed`. `setup_samples`
/// are set-up times measured in fresh processes; this run's own set-up is
/// added to them before taking the median.
///
/// # Errors
///
/// Fails when set-up fails; failures in the timed window are counted in
/// the result instead.
pub fn run(
    rec: &Records,
    w: Workload,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    mut setup_samples: Vec<f64>,
) -> Result<RunResult, String> {
    let SetUp {
        model,
        ready,
        secs: setup_s,
        calib_s,
        plan,
    } = setup(w, tr)?;
    setup_samples.push(setup_s);
    let mut res = match ready {
        Ready::Serving(batcher) => serve(rec, w, seed, seconds, &model, batcher, tr),
        Ready::Offline(engine) => offline(rec, seed, seconds, &model, engine, tr),
    };
    res.plan.extend(plan);
    res.plan.sort();
    res.plan.dedup();
    res.e2e.0.insert(
        0,
        (
            "setup_s".to_owned(),
            median(&setup_samples).unwrap_or(setup_s),
            "s",
        ),
    );
    if tr.enabled() {
        res.layers.put("planner.calibration_s", calib_s, "s");
        let overlapped = res.plan.iter().filter(|d| !d.ends_with("=mono")).count();
        res.layers
            .put("planner.overlapped_decisions", overlapped as f64, "count");
    }
    Ok(res)
}

/// A planner decision as `phase/batch/tokens=mode`.
fn plan_line(d: &PlanDecision) -> String {
    let mode = match d.chosen {
        ExecMode::Monolithic => "mono".to_owned(),
        ExecMode::Overlapped { chunks } => format!("overlapped{chunks}"),
    };
    format!("{:?}/{}/{}={mode}", d.phase, d.batch, d.tokens)
}

/// The decisions of `e`'s planner (none for an engine with a pinned mode).
pub fn plan_lines(e: &PartitionedEngine) -> Vec<String> {
    e.exec_plan().decisions.iter().map(plan_line).collect()
}

/// Compares this run's per-request stream hashes with the first run of
/// the same commit and workload on the same inputs (`inputs` is their
/// digest) in this checkout; returns the requests whose streams differ.
/// Shed requests (`None`) are skipped on either side.
fn check_digests(rec: &Records, w: Workload, inputs: u64, hashes: &[Option<u64>]) -> usize {
    let enc: Vec<String> = hashes
        .iter()
        .map(|h| h.map_or("-".to_owned(), |h| format!("{h:016x}")))
        .collect();
    let name = format!("digests-{}", w.name());
    match rec.remember(&name, &format!("{inputs:016x}"), &enc.join(",")) {
        Ok(Some(prior)) => prior
            .split(',')
            .zip(&enc)
            .filter(|(a, b)| *a != "-" && *b != "-" && a != b)
            .count(),
        Ok(None) => 0,
        Err(e) => {
            eprintln!("perfbench: cannot keep digest records: {e}");
            0
        }
    }
}

/// The served stream of request `r` recomputed alone with
/// `PartitionedEngine::generate` (prompt replicated to the layout's
/// minimum batch; rows are independent, so row 0 is the request's own).
fn isolated(e: &mut PartitionedEngine, prompt: &[usize], max_new: usize) -> Vec<usize> {
    let rows: Vec<Vec<usize>> = (0..e.min_batch()).map(|_| prompt.to_vec()).collect();
    let opts = GenerateOptions {
        max_new_tokens: max_new,
        ..GenerateOptions::default()
    };
    e.generate(&rows, &opts).swap_remove(0)
}

fn serve(
    rec: &Records,
    w: Workload,
    seed: u64,
    seconds: f64,
    model: &ReferenceModel,
    mut batcher: ContinuousBatcher,
    tr: &mut Tracer,
) -> RunResult {
    let reqs = requests(w, seed, seconds);
    let n = reqs.len();
    let before = CollSnapshot::take(batcher.decode_engine());
    let span = tr.begin("serving.try_serve", None);
    let t0 = tr.now();
    let t = Instant::now();
    let result = batcher.try_serve(&reqs);
    let wall = t.elapsed().as_secs_f64();
    let mut res = RunResult {
        attempted: n,
        ..RunResult::default()
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            tr.end(span, &[]);
            eprintln!("perfbench: serve failed: {e}");
            res.failed = n;
            return res;
        }
    };
    let coll = CollSnapshot::take(batcher.decode_engine()).since(&before);

    let mut is_shed = vec![false; n];
    for s in &out.shed {
        if let ServeError::Overloaded { index, .. } = s {
            is_shed[*index] = true;
        }
    }
    let high = reqs.iter().filter(|r| r.priority == Priority::High).count();
    println!(
        "requests: {n} sent, {high} high priority, {} shed",
        out.shed.len()
    );
    // `report.requests` holds the served requests in submission order.
    let mut stats = out.report.requests.iter();
    let served: Vec<Served> = (0..n)
        .map(|i| {
            if is_shed[i] {
                return Served::Shed;
            }
            let s = stats.next().expect("one report row per served request");
            tr.record(
                "request.wait_prefill",
                t0 + s.arrival,
                t0 + s.prefilled,
                span,
                Some(i),
            );
            tr.record(
                "request.decode",
                t0 + s.prefilled,
                t0 + s.finished,
                span,
                Some(i),
            );
            Served::Done {
                ttft: s.ttft(),
                tpot: s.tpot(),
                tokens: out.outputs[i].len(),
            }
        })
        .collect();
    tr.end(
        span,
        &[
            ("decode_steps", out.report.decode_steps as f64),
            ("generated", out.total_generated as f64),
            ("shed", out.shed.len() as f64),
            ("preemptions", out.preemptions as f64),
        ],
    );

    // Output checks, outside the timed window.
    for (i, r) in reqs.iter().enumerate() {
        let want = if is_shed[i] { 0 } else { r.max_new_tokens };
        if out.outputs[i].len() != want {
            res.failed += 1;
        }
    }
    let done: Vec<usize> = (0..n).filter(|&i| !is_shed[i]).collect();
    // A fixed sample by index, so its digest does not depend on which
    // requests timing let through; a shed sample is recomputed but has no
    // served stream to compare.
    let sample: Vec<usize> = (0..CHECK_SAMPLE).map(|k| k * n / CHECK_SAMPLE).collect();
    let mut iso = engine(model, w);
    let mut sample_hashes = Vec::new();
    for &i in &sample {
        let want = isolated(&mut iso, &reqs[i].prompt, reqs[i].max_new_tokens);
        if !is_shed[i] && want != out.outputs[i] {
            eprintln!("perfbench: request {i} differs from isolated generate");
            res.failed += 1;
        }
        sample_hashes.push(stream_hash(&want));
    }
    let hashes: Vec<Option<u64>> = (0..n)
        .map(|i| (!is_shed[i]).then(|| stream_hash(&out.outputs[i])))
        .collect();
    let inputs: Vec<u64> = reqs
        .iter()
        .flat_map(|r| {
            [
                stream_hash(&r.prompt),
                r.max_new_tokens as u64,
                r.arrival.to_bits(),
            ]
        })
        .collect();
    res.failed += check_digests(rec, w, digest(&inputs), &hashes);
    println!(
        "output digest: {:016x} over {} served streams",
        digest(&hashes.iter().flatten().copied().collect::<Vec<_>>()),
        done.len()
    );
    println!(
        "sample digest: {:016x} over requests {sample:?} recomputed alone",
        digest(&sample_hashes)
    );
    // Only a KV page budget defers a request while a slot is free; without
    // one, priority queueing and preemption would defeat the inference.
    let deferrals = if w.serving_options().kv_position_budget.is_some() {
        let timelines: Vec<Timeline> = out
            .report
            .requests
            .iter()
            .map(|s| Timeline {
                arrival: s.arrival,
                prefilled: s.prefilled,
                finished: s.finished,
            })
            .collect();
        let step_max = out.step_log.iter().map(|&(_, s)| s).fold(0.0, f64::max);
        let n = inferred_deferrals(&timelines, step_max, SLOTS);
        println!(
            "admission: {n} requests deferred with a free slot (inferred), \
             KV pages free at least {}",
            out.report.kv_pages_free
        );
        n
    } else {
        0
    };

    // End-to-end metrics.
    let window = out.report.makespan - reqs[0].arrival;
    let ttft: Vec<f64> = served.iter().filter_map(|s| s.ttft()).collect();
    let tpot: Vec<f64> = served.iter().filter_map(|s| s.tpot()).collect();
    let slo = slo_summary(&served, w.slo(), window);
    let processed: usize = done
        .iter()
        .map(|&i| reqs[i].prompt.len() + out.outputs[i].len())
        .sum();
    let p = |v: &[f64], q| percentile(v, q).unwrap_or(0.0);
    let m = &mut res.e2e;
    m.put("ttft_p50_s", p(&ttft, 50.0), "s");
    m.put("tpot_p50_s", p(&tpot, 50.0), "s");
    m.put("output_tok_s", out.total_generated as f64 / window, "tok/s");
    m.put("slo_attainment", slo.attainment, "fraction");
    m.put("goodput_tok_s", slo.goodput_tok_s, "tok/s");
    m.put("served_frac", done.len() as f64 / n as f64, "fraction");
    m.put("offline_tok_s", processed as f64 / window, "tok/s");

    res.plan = plan_lines(batcher.decode_engine());
    if tr.enabled() {
        serving_layers(&mut res.layers, &reqs, &out, &served, wall);
        let kv = batcher.decode_engine().kv_page_stats();
        let m = &mut res.layers;
        m.put(
            "kv.pages_shared_peak",
            out.report.kv_pages_shared as f64,
            "count",
        );
        m.put(
            "kv.pages_free_min",
            out.report.kv_pages_free as f64,
            "count",
        );
        m.put(
            "kv.pages_live_end",
            kv.map_or(0, |s| s.pages_live) as f64,
            "count",
        );
        m.put("kv.admission_deferrals", deferrals as f64, "count");
        let step_s: f64 = out.step_log.iter().map(|&(_, s)| s).sum();
        let ctx = Contexts::of(&reqs, &done);
        let mut pass = layers::Pass::new(model, w, tr);
        pass.engine_and_kv(&reqs, &done, &ctx, &mut res.layers);
        pass.collectives(&coll, out.report.decode_steps, step_s, &mut res.layers);
        pass.tensor(ctx.prompt_median, &mut res.layers);
        layers::computed_kv(
            model.config(),
            &reqs,
            &done,
            out.report.mean_decode_batch,
            &mut res.layers,
        );
        res.plan.extend(pass.plan());
    }
    res
}

/// The `serving` layer: counters of `ServingOutcome` and `ServingReport`
/// plus the wall time of the `try_serve` call.
fn serving_layers(
    m: &mut Metrics,
    reqs: &[ServingRequest],
    out: &ServingOutcome,
    served: &[Served],
    wall: f64,
) {
    let steps: Vec<f64> = out.step_log.iter().map(|&(_, s)| s).collect();
    let step_sum: f64 = steps.iter().sum();
    let p = |v: &[f64], q| percentile(v, q).unwrap_or(0.0);
    let ttft: Vec<f64> = served.iter().filter_map(|s| s.ttft()).collect();
    let tpot: Vec<f64> = served.iter().filter_map(|s| s.tpot()).collect();
    let top_ttft: Vec<f64> = top_class(reqs)
        .iter()
        .filter_map(|&i| served[i].ttft())
        .collect();
    let last_due = reqs.last().map_or(0.0, |r| r.arrival);
    let (mut queue_full, mut deadline) = (0, 0);
    for s in &out.shed {
        match s {
            ServeError::Overloaded {
                reason: OverloadShed::QueueFull { .. },
                ..
            } => queue_full += 1,
            ServeError::Overloaded {
                reason: OverloadShed::TtftDeadline { .. },
                ..
            } => deadline += 1,
            _ => {}
        }
    }
    let replayed = out.preempted_tokens_replayed;
    m.put("serving.step_p50_s", p(&steps, 50.0), "s");
    m.put("serving.step_p90_s", p(&steps, 90.0), "s");
    m.put("serving.mean_batch", out.report.mean_decode_batch, "slots");
    m.put(
        "serving.peak_batch",
        out.report.peak_decode_batch as f64,
        "slots",
    );
    m.put(
        "serving.decode_steps",
        out.report.decode_steps as f64,
        "count",
    );
    m.put(
        "serving.decode_busy_frac",
        step_sum / wall.max(f64::MIN_POSITIVE),
        "fraction",
    );
    m.put("serving.non_decode_s", wall - step_sum, "s");
    m.put("serving.drain_s", out.report.makespan - last_due, "s");
    m.put("serving.preemptions", out.preemptions as f64, "count");
    m.put("serving.replayed_tokens", replayed as f64, "count");
    m.put(
        "serving.useful_token_frac",
        out.total_generated as f64 / (out.total_generated + replayed).max(1) as f64,
        "fraction",
    );
    m.put("serving.shed_queue_full", f64::from(queue_full), "count");
    m.put("serving.shed_ttft_deadline", f64::from(deadline), "count");
    m.put("serving.ttft_p90_s", p(&ttft, 90.0), "s");
    m.put("serving.tpot_p90_s", p(&tpot, 90.0), "s");
    m.put("serving.high_ttft_p90_s", p(&top_ttft, 90.0), "s");
    m.put("serving.ttft_p99_s", p(&ttft, 99.0), "s");
    m.put("serving.tpot_p99_s", p(&tpot, 99.0), "s");
}

/// `offline_2d`: fixed batches through `PartitionedEngine::generate`,
/// repeated until `seconds` have passed. Each batch runs twice: once for
/// one token (its wall time is the batch's TTFT) and once in full. A
/// batch's time per output token is its full run minus the run's median
/// TTFT, over the tokens after the first.
fn offline(
    rec: &Records,
    seed: u64,
    seconds: f64,
    model: &ReferenceModel,
    mut e: PartitionedEngine,
    tr: &mut Tracer,
) -> RunResult {
    let w = Workload::Offline2d;
    let first = GenerateOptions {
        max_new_tokens: 1,
        ..GenerateOptions::default()
    };
    let full = GenerateOptions {
        max_new_tokens: OFFLINE_GEN,
        ..GenerateOptions::default()
    };
    let before = CollSnapshot::take(&e);
    let mut res = RunResult::default();
    let (mut ttft, mut walls) = (vec![], vec![]);
    let mut hashes = Vec::new();
    // The first batch, kept for the isolated re-run and the printed digest.
    let (mut first_prompts, mut first_outs) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut batch_seed = seed;
    while start.elapsed().as_secs_f64() < seconds {
        let prompts = offline_batches(batch_seed, 1).remove(0);
        batch_seed = batch_seed.wrapping_add(0x9e37_79b9);
        let (head, t1) = tr.time("engine.generate", None, || e.generate(&prompts, &first));
        let (outs, tg) = tr.time("engine.generate", None, || e.generate(&prompts, &full));
        res.attempted += prompts.len();
        // The one-token run must agree with the full run's first token.
        res.failed += head
            .iter()
            .zip(&outs)
            .filter(|(h, o)| o.first() != h.first())
            .count();
        ttft.push(t1);
        walls.push(tg);
        hashes.extend(outs.iter().map(|o| Some(stream_hash(o))));
        if first_prompts.is_empty() {
            (first_prompts, first_outs) = (prompts, outs);
        }
    }
    let batches = ttft.len();
    let busy: f64 = ttft.iter().chain(&walls).sum();
    let coll = CollSnapshot::take(&e).since(&before);

    // Sample rows of the first batch recomputed alone.
    let mut iso = engine(model, w);
    for k in 0..CHECK_SAMPLE.min(first_prompts.len()) {
        let r = k * first_prompts.len() / CHECK_SAMPLE;
        if isolated(&mut iso, &first_prompts[r], OFFLINE_GEN) != first_outs[r] {
            eprintln!("perfbench: offline row {r} differs from isolated generate");
            res.failed += 1;
        }
    }
    let inputs: Vec<u64> = first_prompts.iter().map(|p| stream_hash(p)).collect();
    res.failed += check_digests(rec, w, digest(&inputs) ^ OFFLINE_GEN as u64, &hashes);
    let first_hashes: Vec<u64> = first_outs.iter().map(|o| stream_hash(o)).collect();
    println!(
        "output digest: {:016x} over the first batch ({} sequences); {batches} batches ran",
        digest(&first_hashes),
        first_hashes.len()
    );

    let p = |v: &[f64], q| percentile(v, q).unwrap_or(0.0);
    let ttft_med = p(&ttft, 50.0);
    let tpot: Vec<f64> = walls
        .iter()
        .map(|tg| (tg - ttft_med) / (OFFLINE_GEN - 1) as f64)
        .collect();
    let rate = |tokens: usize| -> Vec<f64> {
        walls
            .iter()
            .map(|tg| (OFFLINE_BATCH * tokens) as f64 / tg)
            .collect()
    };
    let out_tok_s = rate(OFFLINE_GEN);
    // Every row of a batch shares its timing, so a batch meets the SLO as
    // a whole.
    let met: Vec<bool> = ttft
        .iter()
        .zip(&tpot)
        .map(|(&t1, &per_tok)| {
            Served::Done {
                ttft: t1,
                tpot: Some(per_tok),
                tokens: OFFLINE_GEN,
            }
            .meets(w.slo())
        })
        .collect();
    let good: Vec<f64> = met
        .iter()
        .zip(&out_tok_s)
        .map(|(&ok, &r)| if ok { r } else { 0.0 })
        .collect();
    let attainment = met.iter().filter(|&&ok| ok).count() as f64 / met.len().max(1) as f64;
    let m = &mut res.e2e;
    m.put("ttft_p50_s", ttft_med, "s");
    m.put("tpot_p50_s", p(&tpot, 50.0), "s");
    m.put("output_tok_s", p(&out_tok_s, 50.0), "tok/s");
    m.put("slo_attainment", attainment, "fraction");
    m.put("goodput_tok_s", p(&good, 50.0), "tok/s");
    m.put("served_frac", 1.0, "fraction");
    m.put(
        "offline_tok_s",
        p(&rate(OFFLINE_PROMPT + OFFLINE_GEN), 50.0),
        "tok/s",
    );

    res.plan = plan_lines(&e);
    if tr.enabled() {
        let forwards = batches * (2 + 1 + OFFLINE_GEN);
        let mut pass = layers::Pass::new(model, w, tr);
        pass.offline_engine(&mut res.layers);
        pass.collectives(&coll, forwards, busy, &mut res.layers);
        pass.tensor(OFFLINE_PROMPT as f64, &mut res.layers);
        let kv = e.kv_page_stats();
        let m = &mut res.layers;
        // No batcher runs here.
        for (name, unit) in SERVING_METRICS {
            m.put(name, 0.0, unit);
        }
        m.put(
            "kv.pages_shared_peak",
            kv.map_or(0, |s| s.pages_shared) as f64,
            "count",
        );
        m.put(
            "kv.pages_free_min",
            kv.map_or(0, |s| s.pages_free) as f64,
            "count",
        );
        m.put(
            "kv.pages_live_end",
            kv.map_or(0, |s| s.pages_live) as f64,
            "count",
        );
        m.put("kv.admission_deferrals", 0.0, "count");
        res.plan.extend(pass.plan());
    }
    res
}
