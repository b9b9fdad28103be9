//! The traced per-layer pass: spans around calls into the engine, the KV
//! cache, the collectives and the GEMM kernels, at the shapes the timed
//! run recorded, plus deltas of the counters the program exposes.

use esti_collectives::{CollectiveOp, CommGroup, ACT_BYTES};
use esti_core::layout::FfnLayout;
use esti_model::{KvCache, ModelConfig, ReferenceModel};
use esti_runtime::{PartitionedEngine, ServingRequest};
use esti_tensor::{ops, Tensor};

use crate::run::{engine, Metrics};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::workload::{offline_batches, Workload, OFFLINE_GEN, OFFLINE_PROMPT, PAGE_SIZE, SLOTS};

/// Requests whose prompts the engine pass prefills one at a time.
const PREFILL_SAMPLE: usize = 8;
/// Decode steps timed per context length.
const DECODE_REPS: usize = 12;
/// Repetitions of each isolated collective and GEMM.
const OP_REPS: usize = 40;

/// Collective counters of an engine at one instant.
#[derive(Debug, Clone)]
pub struct CollSnapshot {
    bytes: [u64; 4],
    calls: [u64; 4],
    /// Per chip, nanoseconds blocked per op.
    chip_nanos: Vec<[u64; 4]>,
}

impl CollSnapshot {
    /// Reads `traffic()` and `comm_times()`.
    #[must_use]
    pub fn take(e: &PartitionedEngine) -> CollSnapshot {
        let t = e.traffic();
        CollSnapshot {
            bytes: CollectiveOp::ALL.map(|op| t.bytes(op)),
            calls: CollectiveOp::ALL.map(|op| t.calls(op)),
            chip_nanos: e
                .comm_times()
                .iter()
                .map(|c| CollectiveOp::ALL.map(|op| c.nanos(op)))
                .collect(),
        }
    }

    /// Counter growth since `before`.
    #[must_use]
    pub fn since(&self, before: &CollSnapshot) -> CollSnapshot {
        let sub = |a: [u64; 4], b: [u64; 4]| std::array::from_fn(|i| a[i].saturating_sub(b[i]));
        CollSnapshot {
            bytes: sub(self.bytes, before.bytes),
            calls: sub(self.calls, before.calls),
            chip_nanos: self
                .chip_nanos
                .iter()
                .zip(&before.chip_nanos)
                .map(|(a, b)| sub(*a, *b))
                .collect(),
        }
    }
}

/// Context lengths and prompt sizes the timed run recorded.
#[derive(Debug, Clone, Copy)]
pub struct Contexts {
    /// Median final context (prompt plus generated tokens).
    pub short: usize,
    /// 90th-percentile final context.
    pub long: usize,
    /// Median prompt length.
    pub prompt_median: f64,
}

impl Contexts {
    /// From the served requests `done` of `reqs`.
    #[must_use]
    pub fn of(reqs: &[ServingRequest], done: &[usize]) -> Contexts {
        let ctx: Vec<f64> = done
            .iter()
            .map(|&i| (reqs[i].prompt.len() + reqs[i].max_new_tokens) as f64)
            .collect();
        let prompts: Vec<f64> = done.iter().map(|&i| reqs[i].prompt.len() as f64).collect();
        Contexts {
            short: median(&ctx).unwrap_or(32.0) as usize,
            long: percentile(&ctx, 90.0).unwrap_or(512.0) as usize,
            prompt_median: median(&prompts).unwrap_or(16.0),
        }
    }
}

/// Per-layer measurements for one workload.
pub struct Pass<'a> {
    model: &'a ReferenceModel,
    w: Workload,
    tr: &'a mut Tracer,
    engines: Vec<PartitionedEngine>,
}

/// A `rows x cols` tensor of small deterministic values.
fn filled(rows: usize, cols: usize, salt: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| (((i * 31 + salt * 17) % 97) as f32 - 48.0) / 97.0)
        .collect();
    Tensor::from_vec(vec![rows, cols], data)
}

/// `prompt` repeated until it is `len` tokens long.
fn stretched(prompt: &[usize], len: usize) -> Vec<usize> {
    prompt.iter().copied().cycle().take(len).collect()
}

impl<'a> Pass<'a> {
    /// A pass over `w`'s layout, recording into `tr`.
    pub fn new(model: &'a ReferenceModel, w: Workload, tr: &'a mut Tracer) -> Self {
        Pass {
            model,
            w,
            tr,
            engines: Vec::new(),
        }
    }

    /// Planner decisions of the engines this pass built.
    #[must_use]
    pub fn plan(&self) -> Vec<String> {
        self.engines
            .iter()
            .flat_map(crate::run::plan_lines)
            .collect()
    }

    /// Median seconds of `DECODE_REPS` decode steps on `e`.
    fn decode_steps(&mut self, e: &mut PartitionedEngine, batch: usize) -> f64 {
        let toks = vec![1usize; batch];
        let secs: Vec<f64> = (0..DECODE_REPS)
            .map(|_| {
                let (r, s) = self
                    .tr
                    .time("engine.try_decode_step", None, || e.try_decode_step(&toks));
                r.expect("decode step on a fault-free engine");
                s
            })
            .collect();
        median(&secs).unwrap_or(0.0)
    }

    /// Median seconds of one `read_slot` call on a paged cache holding
    /// `rows` rows of `ctx` positions at `width` values per position.
    fn read_slot(&mut self, rows: usize, ctx: usize, width: usize, label: &str) -> f64 {
        let n_layers = self.model.config().n_layers;
        let mut cache = KvCache::paged(n_layers, PAGE_SIZE);
        for r in 0..rows {
            let layers: Vec<(Tensor, Tensor)> = (0..n_layers)
                .map(|l| (filled(ctx, width, r + l), filled(ctx, width, r + l + 1)))
                .collect();
            let tokens: Vec<usize> = (0..ctx).map(|t| 1 + (t * 7 + r * 13) % 127).collect();
            cache.insert_row_shared(r, rows, &layers, &tokens);
        }
        let name = format!("kv.read_slot.{label}");
        let mut secs = Vec::new();
        for _ in 0..OP_REPS / 4 {
            for l in 0..n_layers {
                for r in 0..rows {
                    let (kv, s) = self.tr.time(&name, None, || cache.read_slot(l, r));
                    std::hint::black_box(kv);
                    secs.push(s);
                }
            }
        }
        median(&secs).unwrap_or(0.0)
    }

    /// The `engine` and `kvcache` layers of a serving workload: batch-1
    /// prefills and KV hand-offs at recorded prompt lengths, then 8-slot
    /// decode steps and `read_slot` calls at the recorded short and long
    /// contexts.
    pub fn engine_and_kv(
        &mut self,
        reqs: &[ServingRequest],
        done: &[usize],
        ctx: &Contexts,
        m: &mut Metrics,
    ) {
        let model = self.model;
        let mut pre = engine(model, self.w);
        let mut dec = engine(model, self.w);
        dec.begin_slots(SLOTS, ctx.long + DECODE_REPS + 1);
        let (mut toks, mut secs, mut handoff) = (0usize, 0.0f64, Vec::new());
        for (k, &i) in done.iter().take(PREFILL_SAMPLE).enumerate() {
            let prompt = &reqs[i].prompt;
            pre.reset();
            let rows: Vec<Vec<usize>> = (0..pre.min_batch()).map(|_| prompt.clone()).collect();
            let (r, s) = self
                .tr
                .time("engine.try_prefill", Some(i), || pre.try_prefill(&rows));
            r.expect("prefill on a fault-free engine");
            toks += prompt.len();
            secs += s;
            let (kv, s1) = self
                .tr
                .time("engine.extract_kv", Some(i), || pre.extract_kv(0));
            let ((), s2) = self.tr.time("engine.insert_kv_shared", Some(i), || {
                dec.insert_kv_shared(k % SLOTS, &kv, prompt)
            });
            handoff.push(s1 + s2);
        }
        m.put(
            "engine.prefill_tok_s",
            toks as f64 / secs.max(f64::MIN_POSITIVE),
            "tok/s",
        );
        let d_kv = model.config().n_kv_heads() * model.config().d_head;
        let mut short_step = 0.0;
        for (label, len) in [("short", ctx.short), ("long", ctx.long)] {
            let prompts: Vec<Vec<usize>> = (0..SLOTS)
                .map(|k| stretched(&reqs[done[k % done.len()]].prompt, len))
                .collect();
            pre.reset();
            pre.try_prefill(&prompts)
                .expect("prefill on a fault-free engine");
            dec.begin_slots(SLOTS, len + DECODE_REPS + 1);
            for (r, p) in prompts.iter().enumerate() {
                let kv = pre.extract_kv(r);
                dec.insert_kv_shared(r, &kv, p);
            }
            let step = self.decode_steps(&mut dec, SLOTS);
            if label == "short" {
                short_step = step;
            }
            m.put(&format!("engine.decode_step_s.{label}"), step, "s");
            // Head-sharded multiquery attention replicates the KV head, so
            // each chip caches every slot at the full KV width.
            let read = self.read_slot(SLOTS, len, d_kv, label);
            m.put(&format!("kv.read_slot_s.{label}"), read, "s");
        }
        m.put("engine.kv_handoff_s", median(&handoff).unwrap_or(0.0), "s");
        m.put(
            "engine.decode_tok_s",
            SLOTS as f64 / short_step.max(f64::MIN_POSITIVE),
            "tok/s",
        );
        println!(
            "engine pass: contexts short {} long {}",
            ctx.short, ctx.long
        );
        self.engines.push(pre);
        self.engines.push(dec);
    }

    /// The `engine` and `kvcache` layers of `offline_2d`: a batch prefill,
    /// decode steps right after it (short) and `OFFLINE_GEN` steps later
    /// (long), and one KV hand-off.
    pub fn offline_engine(&mut self, m: &mut Metrics) {
        let model = self.model;
        let cfg = model.config();
        let prompts = offline_batches(u64::MAX - 1, 1).remove(0);
        let b = prompts.len();
        let mut e = engine(model, self.w);
        let (r, s) = self
            .tr
            .time("engine.try_prefill", None, || e.try_prefill(&prompts));
        r.expect("prefill on a fault-free engine");
        m.put(
            "engine.prefill_tok_s",
            (b * OFFLINE_PROMPT) as f64 / s,
            "tok/s",
        );
        let short = self.decode_steps(&mut e, b);
        let toks = vec![1usize; b];
        while e.cache_len() + DECODE_REPS < OFFLINE_PROMPT + OFFLINE_GEN {
            e.try_decode_step(&toks)
                .expect("decode step on a fault-free engine");
        }
        let long = self.decode_steps(&mut e, b);
        m.put("engine.decode_step_s.short", short, "s");
        m.put("engine.decode_step_s.long", long, "s");
        m.put("engine.decode_tok_s", b as f64 / short, "tok/s");
        let mut slots = engine(model, self.w);
        slots.begin_slots(b, e.cache_len() + 1);
        let (kv, s1) = self.tr.time("engine.extract_kv", None, || e.extract_kv(0));
        let ((), s2) = self.tr.time("engine.insert_kv_shared", None, || {
            slots.insert_kv_shared(0, &kv, &stretched(&prompts[0], kv.len));
        });
        m.put("engine.kv_handoff_s", s1 + s2, "s");
        // Batch-sharded attention: each chip caches `b / chips` rows.
        let d_kv = cfg.n_kv_heads() * cfg.d_head;
        let rows = (b / self.w.layout().mesh.n_chips()).max(1);
        for (label, len) in [
            ("short", OFFLINE_PROMPT + 1),
            ("long", OFFLINE_PROMPT + OFFLINE_GEN),
        ] {
            let read = self.read_slot(rows, len, d_kv, label);
            m.put(&format!("kv.read_slot_s.{label}"), read, "s");
        }
        let mean_ctx = OFFLINE_PROMPT as f64 + (OFFLINE_GEN as f64 - 1.0) / 2.0;
        let bytes = rows as f64 * mean_ctx * (2 * cfg.n_layers * d_kv * 4) as f64;
        m.put("kv.bytes_materialized_per_step", bytes, "B");
        m.put("kv.shared_prompt_frac", 0.0, "fraction");
        self.engines.push(e);
        self.engines.push(slots);
    }

    /// The dominant group size of `op` in the layout's dataflow.
    fn group_size(&self, op: CollectiveOp) -> usize {
        let mesh = self.w.layout().mesh;
        match (self.w.layout().ffn, op) {
            (FfnLayout::WeightStationary2D, CollectiveOp::AllReduce) => mesh.x,
            (FfnLayout::WeightStationary2D, _) => mesh.yz(),
            _ => mesh.n_chips(),
        }
    }

    /// Median seconds of one `op` moving `elems` ledger elements on a
    /// fresh group of `g` members, timed on rank 0.
    fn isolated(&mut self, op: CollectiveOp, elems: usize, g: usize) -> f64 {
        let per = (elems / g).max(1);
        let members = CommGroup::create(g);
        let span = self.tr.begin(&format!("coll.isolated.{op:?}"), None);
        let times: Vec<Vec<f64>> = std::thread::scope(|s| {
            let hs: Vec<_> = members
                .into_iter()
                .map(|c| {
                    s.spawn(move || {
                        let x = filled(g, per, c.rank());
                        let shard = filled(1, per, c.rank());
                        (0..OP_REPS)
                            .map(|_| {
                                let t = std::time::Instant::now();
                                let y = match op {
                                    CollectiveOp::AllReduce => c.all_reduce(&x),
                                    CollectiveOp::AllGather => c.all_gather(&shard, 0),
                                    CollectiveOp::ReduceScatter => c.reduce_scatter(&x, 0),
                                    CollectiveOp::AllToAll => c.all_to_all(&x, 0, 0),
                                };
                                std::hint::black_box(y);
                                t.elapsed().as_secs_f64()
                            })
                            .collect()
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("isolated collective member"))
                .collect()
        });
        let t = median(&times[0]).unwrap_or(0.0);
        self.tr.end(
            span,
            &[
                ("elems", elems as f64),
                ("group", g as f64),
                ("median_s", t),
            ],
        );
        t
    }

    /// The `collectives` layer from counter deltas over the timed run:
    /// `steps` forward passes taking `busy_s` seconds in all.
    pub fn collectives(&mut self, d: &CollSnapshot, steps: usize, busy_s: f64, m: &mut Metrics) {
        let steps_f = steps.max(1) as f64;
        let chips = d.chip_nanos.len().max(1) as f64;
        let mut blocked_total = 0.0;
        let mut explained = 0.0;
        for (k, op) in CollectiveOp::ALL.into_iter().enumerate() {
            let blocked =
                d.chip_nanos.iter().map(|c| c[k] as f64).sum::<f64>() / chips * 1e-9 / steps_f;
            blocked_total += blocked;
            let name = match op {
                CollectiveOp::AllReduce => "all_reduce",
                CollectiveOp::AllToAll => "all_to_all",
                CollectiveOp::AllGather => "all_gather",
                CollectiveOp::ReduceScatter => "reduce_scatter",
            };
            m.put(&format!("coll.{name}.blocked_s_per_step"), blocked, "s");
            // The ledger charges an all-reduce as reduce-scatter plus
            // all-gather: two elements per element moved.
            let factor = if op == CollectiveOp::AllReduce { 2 } else { 1 } * ACT_BYTES;
            let iso = match d.bytes[k].checked_div(d.calls[k]) {
                Some(per_call) => {
                    self.isolated(op, (per_call / factor) as usize, self.group_size(op))
                }
                None => 0.0,
            };
            m.put(&format!("coll.{name}.isolated_s"), iso, "s");
            explained += (iso * d.calls[k] as f64 / steps_f).min(blocked);
        }
        let total_bytes: u64 = d.bytes.iter().sum();
        let total_calls: u64 = d.calls.iter().sum();
        m.put(
            "coll.blocked_frac",
            blocked_total * steps_f / busy_s.max(f64::MIN_POSITIVE),
            "fraction",
        );
        m.put("coll.bytes_per_step", total_bytes as f64 / steps_f, "B");
        m.put("coll.calls_per_step", total_calls as f64 / steps_f, "count");
        let wait = if blocked_total > 0.0 {
            (blocked_total - explained) / blocked_total
        } else {
            0.0
        };
        m.put("coll.wait_frac", wait, "fraction");
    }

    /// The `tensor` layer: GEMM throughput at the per-chip shapes of the
    /// fused input and output projections, for decode (`SLOTS` or batch
    /// rows) and prefill (`prefill_rows` rows), and the GEMM share of the
    /// short decode step measured by the engine pass.
    pub fn tensor(&mut self, prefill_rows: f64, m: &mut Metrics) {
        let cfg = self.model.config().clone();
        let layout = self.w.layout();
        let (e_shard, f_shard) = match layout.ffn {
            FfnLayout::WeightStationary2D => (cfg.d_model / layout.mesh.x, layout.mesh.yz()),
            _ => (cfg.d_model, layout.mesh.n_chips()),
        };
        let heads = cfg.n_heads * cfg.d_head / f_shard;
        let n_in = 2 * cfg.d_ff / f_shard + heads;
        let k_out = cfg.d_ff / f_shard + heads;
        let (decode_rows, prefill_rows) = match self.w {
            Workload::Offline2d => (
                crate::workload::OFFLINE_BATCH,
                crate::workload::OFFLINE_BATCH * OFFLINE_PROMPT,
            ),
            _ => (SLOTS, prefill_rows.round().max(1.0) as usize),
        };
        let mut gemm = |rows: usize, label: &str| {
            let (a_in, b_in) = (filled(rows, e_shard, 1), filled(e_shard, n_in, 2));
            let (a_out, b_out) = (filled(rows, k_out, 3), filled(k_out, e_shard, 4));
            let name = format!("tensor.matmul.{label}");
            let secs: Vec<f64> = (0..OP_REPS)
                .map(|_| {
                    let ((), s) = self.tr.time(&name, None, || {
                        std::hint::black_box(ops::matmul(&a_in, &b_in));
                        std::hint::black_box(ops::matmul(&a_out, &b_out));
                    });
                    s
                })
                .collect();
            let t = median(&secs).unwrap_or(0.0);
            let flops = 2.0 * rows as f64 * (e_shard * n_in + k_out * e_shard) as f64;
            (flops / t.max(f64::MIN_POSITIVE) / 1e9, t)
        };
        let (g_dec, t_dec) = gemm(decode_rows, "decode");
        let (g_pre, _) = gemm(prefill_rows, "prefill");
        m.put("tensor.gemm_gflops.decode", g_dec, "GFLOP/s");
        m.put("tensor.gemm_gflops.prefill", g_pre, "GFLOP/s");
        let step = m.get("engine.decode_step_s.short").unwrap_or(0.0);
        let share = if step > 0.0 {
            cfg.n_layers as f64 * t_dec / step
        } else {
            0.0
        };
        m.put("tensor.gemm_share.decode", share, "fraction");
    }
}

/// KV quantities computed from shapes, not measured: bytes `read_slot`
/// materializes per decode step on one chip, and the share of prompt
/// tokens that lie in whole pages an earlier request's prompt already
/// registered.
pub fn computed_kv(
    cfg: &ModelConfig,
    reqs: &[ServingRequest],
    done: &[usize],
    mean_batch: f64,
    m: &mut Metrics,
) {
    let d_kv = cfg.n_kv_heads() * cfg.d_head;
    // Mean context a decode step reads, weighted by the steps at each.
    let (mut ctx_sum, mut steps) = (0.0, 0.0);
    for &i in done {
        let (p, g) = (reqs[i].prompt.len() as f64, reqs[i].max_new_tokens as f64);
        ctx_sum += g * (p + (g - 1.0) / 2.0);
        steps += g;
    }
    let mean_ctx = if steps > 0.0 { ctx_sum / steps } else { 0.0 };
    let bytes = mean_batch * mean_ctx * (2 * cfg.n_layers * d_kv * 4) as f64;
    m.put("kv.bytes_materialized_per_step", bytes, "B");
    let mut seen: std::collections::HashSet<&[usize]> = std::collections::HashSet::new();
    let (mut shared, mut total) = (0usize, 0usize);
    for &i in done {
        let p = &reqs[i].prompt;
        total += p.len();
        for end in (PAGE_SIZE..=p.len()).step_by(PAGE_SIZE) {
            if !seen.insert(&p[..end]) {
                shared += PAGE_SIZE;
            }
        }
    }
    m.put(
        "kv.shared_prompt_frac",
        shared as f64 / total.max(1) as f64,
        "fraction",
    );
}
