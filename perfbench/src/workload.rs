//! The four seeded workloads: model, layouts, scheduler options, and the
//! generation of `ServingRequest`s (or offline prompt batches) from a seed.
//!
//! The program under test receives only what these functions generate.
//! Why each workload exists is documented in `perfbench/README.md`.

use esti_core::layout::{AttnSharding, FfnLayout, Layout, MeshFactors};
use esti_core::serving::{ArrivalProcess, ArrivalTrace, LengthDist, TraceRequest, TraceSpec};
use esti_model::{AttentionKind, BlockKind, MlpKind, ModelConfig, PositionKind};
use esti_runtime::{KvBackend, ServingOptions, ServingRequest};

use crate::stats::Slo;

/// Seed of the bench model's random weights (fixed: the weights are part
/// of the program under test, not of its input).
pub const MODEL_SEED: u64 = 11;
/// Workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed held out from tuning, for confirming later claims.
pub const HELD_OUT_SEED: u64 = 7919;

/// Decode slots of every serving workload.
pub const SLOTS: usize = 8;
/// Positions per KV page.
pub const PAGE_SIZE: usize = 16;

/// `chat`: Poisson arrivals per second (about 0.3 of the saturation
/// throughput measured on a 2-core host, leaving headroom for host noise).
pub const CHAT_RATE: f64 = 8.0;
/// `long_prefix`: evenly spaced arrivals per second. A request's prefill
/// (about 130 ms on a 2-core host) keeps the prefill tier about 20% busy,
/// and a typical request (64 tokens at about 6 ms a step) finishes well
/// before the next one arrives, so its TPOT is the long-context decode
/// step rather than a count of other requests' prefill stalls.
pub const LONG_PREFIX_RATE: f64 = 1.5;
/// `long_prefix`: every `PAIR_EVERY`-th request arrives [`PAIR_GAP`]
/// seconds after its predecessor, while that one decodes: a fixed share
/// of occupancy peaks, where page admission either shares the prefix or
/// defers the request.
pub const PAIR_EVERY: usize = 8;
/// See [`PAIR_EVERY`].
pub const PAIR_GAP: f64 = 0.2;
/// `long_prefix`: shared prompt prefixes and their length in tokens.
pub const PREFIXES: usize = 4;
/// Length of each shared prefix.
pub const PREFIX_LEN: usize = 256;
/// `long_prefix`: decode-tier KV budget in canonical positions (40
/// pages). Any one request fits (at most 38 pages with the idle-slot
/// allowance); two live requests fit only when they share their prefix,
/// so the second of a pair with distinct prefixes is deferred.
pub const LONG_PREFIX_KV_BUDGET: usize = 640;
/// `overload`: arrivals per second inside a burst (about 2.5x capacity)
/// and in the calm between bursts (about 0.3x).
pub const BURST_RATE: f64 = 67.0;
/// See [`BURST_RATE`].
pub const CALM_RATE: f64 = 8.0;
/// `overload`: seconds of each burst and of each calm period. Fixed dwell
/// (not exponential) so every run of a given length sees the same number
/// of bursts; the seed varies the requests, not the burst schedule.
pub const BURST_S: f64 = 0.5;
/// See [`BURST_S`].
pub const CALM_S: f64 = 4.0;
/// `overload`: waiting requests tolerated before shedding.
pub const QUEUE_LIMIT: usize = 8;
/// `overload`: TTFT deadline per class (`Low`, `Normal`, `High`) in seconds.
pub const TTFT_DEADLINE: [f64; 3] = [0.5, 1.0, 2.0];
/// `offline_2d`: sequences per `generate` call, prompt and output length.
pub const OFFLINE_BATCH: usize = 16;
/// See [`OFFLINE_BATCH`].
pub const OFFLINE_PROMPT: usize = 32;
/// See [`OFFLINE_BATCH`].
pub const OFFLINE_GEN: usize = 64;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unique short prompts at about 0.3 of decode capacity.
    Chat,
    /// Long shared prefixes under a KV page budget.
    LongPrefix,
    /// Bursty priority traffic with shedding and preemption.
    Overload,
    /// Fixed batches through `PartitionedEngine::generate` on 8 chips.
    Offline2d,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Chat,
        Workload::LongPrefix,
        Workload::Overload,
        Workload::Offline2d,
    ];

    /// The workload's name as given to `--workload`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Chat => "chat",
            Workload::LongPrefix => "long_prefix",
            Workload::Overload => "overload",
            Workload::Offline2d => "offline_2d",
        }
    }

    /// Parses a `--workload` value.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The latency limits of `slo_attainment` and `goodput_tok_s`.
    #[must_use]
    pub fn slo(self) -> Slo {
        match self {
            Workload::Chat => Slo {
                ttft_s: 0.25,
                tpot_s: 0.02,
            },
            Workload::LongPrefix => Slo {
                ttft_s: 1.0,
                tpot_s: 0.04,
            },
            Workload::Overload => Slo {
                ttft_s: 1.0,
                tpot_s: 0.04,
            },
            Workload::Offline2d => Slo {
                ttft_s: 2.0,
                tpot_s: 0.2,
            },
        }
    }

    /// The layout the workload runs on.
    #[must_use]
    pub fn layout(self) -> Layout {
        match self {
            // 1D weight-stationary, head-sharded attention, one chip per core.
            Workload::Chat | Workload::LongPrefix | Workload::Overload => Layout {
                ffn: FfnLayout::WeightStationary1D,
                attn: AttnSharding::Head,
                mesh: MeshFactors::new(1, 2, 1),
            },
            // 2D weight-stationary with batch-sharded multiquery attention.
            Workload::Offline2d => Layout {
                ffn: FfnLayout::WeightStationary2D,
                attn: AttnSharding::Batch,
                mesh: MeshFactors::new(2, 2, 2),
            },
        }
    }

    /// Scheduler options of a serving workload. Every knob the program
    /// would otherwise read from the environment is pinned here.
    #[must_use]
    pub fn serving_options(self) -> ServingOptions {
        let base = ServingOptions {
            max_decode_batch: SLOTS,
            intra_chip_threads: 1,
            kv_backend: Some(KvBackend::Paged {
                page_size: PAGE_SIZE,
            }),
            ..ServingOptions::default()
        };
        match self {
            Workload::LongPrefix => ServingOptions {
                kv_position_budget: Some(LONG_PREFIX_KV_BUDGET),
                ..base
            },
            Workload::Overload => ServingOptions {
                queue_limit: Some(QUEUE_LIMIT),
                ttft_deadline: TTFT_DEADLINE.map(Some),
                preemption: true,
                ..base
            },
            Workload::Chat | Workload::Offline2d => base,
        }
    }
}

/// The bench model: the `tiny8x` structure (multiquery, parallel SwiGLU
/// block, RoPE) at `d_model` 512.
#[must_use]
pub fn bench_model() -> ModelConfig {
    ModelConfig {
        name: "tiny8x-512".to_owned(),
        n_layers: 2,
        d_model: 512,
        d_ff: 2048,
        n_heads: 16,
        d_head: 32,
        vocab: 128,
        attention: AttentionKind::MultiQuery,
        block: BlockKind::Parallel,
        mlp: MlpKind::SwiGlu,
        position: PositionKind::Rope,
        max_seq: 1024,
    }
}

/// splitmix64: the token and prefix generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A token in `[1, vocab)` (0 is the batcher's idle-slot dummy).
    fn token(&mut self, vocab: usize) -> usize {
        1 + (self.next() % (vocab as u64 - 1)) as usize
    }

    fn tokens(&mut self, n: usize, vocab: usize) -> Vec<usize> {
        (0..n).map(|_| self.token(vocab)).collect()
    }
}

/// `n` Poisson arrivals conditioned to fall in `[start, start + span)`:
/// the trace's first `n` arrival gaps rescaled so its `(n+1)`-th arrival
/// lands at the window's end. Conditioning on the count keeps the offered
/// load of a run fixed while arrival order statistics stay Poisson.
fn window(spec: &TraceSpec, n: usize, seed: u64, start: f64, span: f64) -> Vec<TraceRequest> {
    let mut trace = ArrivalTrace::generate(spec, n + 1, seed).requests;
    let scale = span / trace[n].arrival;
    trace.truncate(n);
    for r in &mut trace {
        r.arrival = start + r.arrival * scale;
    }
    trace
}

/// The serving requests of `workload` for a run of `seconds`, generated
/// from `seed` alone: arrivals, lengths and priorities from
/// [`ArrivalTrace`], prompt tokens (including shared prefixes) from a
/// seeded token stream.
///
/// # Panics
///
/// Panics for [`Workload::Offline2d`], which has no arrivals.
#[must_use]
pub fn requests(workload: Workload, seed: u64, seconds: f64) -> Vec<ServingRequest> {
    let vocab = bench_model().vocab;
    let mut rng = SplitMix(seed ^ 0x5eed_f00d);
    let lognormal = |median: f64, sigma, max| LengthDist::LogNormal { median, sigma, max };
    let spec = |rate, high, low| TraceSpec {
        process: ArrivalProcess::Poisson { rate },
        prompt: lognormal(24.0, 0.5, 128),
        output: lognormal(48.0, 0.5, 192),
        high_fraction: high,
        low_fraction: low,
    };
    let count = |rate: f64, span: f64| ((rate * span).round() as usize).max(1);
    let trace = match workload {
        Workload::Chat => window(
            &spec(CHAT_RATE, 0.0, 0.0),
            count(CHAT_RATE, seconds),
            seed,
            0.0,
            seconds,
        ),
        Workload::LongPrefix => {
            // Evenly spaced arrivals: this workload is about prefill and KV
            // paths, and Poisson clumps of ~100 ms prefills would make its
            // TTFT tail a measure of queueing luck.
            let spec = TraceSpec {
                process: ArrivalProcess::Uniform {
                    rate: LONG_PREFIX_RATE,
                },
                prompt: LengthDist::Uniform { lo: 8, hi: 32 },
                output: lognormal(64.0, 0.2, 192),
                ..spec(LONG_PREFIX_RATE, 0.0, 0.0)
            };
            let mut trace = window(&spec, count(LONG_PREFIX_RATE, seconds), seed, 0.0, seconds);
            for i in (PAIR_EVERY - 1..trace.len()).step_by(PAIR_EVERY) {
                trace[i].arrival = trace[i - 1].arrival + PAIR_GAP;
            }
            trace
        }
        Workload::Overload => {
            let mut out = Vec::new();
            let (mut t, mut cycle) = (0.0, 0u64);
            while t < seconds {
                for (rate, span) in [(BURST_RATE, BURST_S), (CALM_RATE, CALM_S)] {
                    let span = span.min(seconds - t);
                    if span <= 0.0 {
                        break;
                    }
                    let sub = seed.wrapping_mul(0x100_0000_01b3) ^ cycle;
                    // Narrow lengths: this workload is about admission
                    // policy, and length spread would only add noise to it.
                    let spec = TraceSpec {
                        prompt: lognormal(24.0, 0.25, 64),
                        output: lognormal(48.0, 0.25, 96),
                        ..spec(rate, 0.1, 0.3)
                    };
                    out.extend(window(&spec, count(rate, span), sub, t, span));
                    t += span;
                    cycle += 1;
                }
            }
            out
        }
        Workload::Offline2d => panic!("offline_2d has no arrivals"),
    };
    let prefixes: Vec<Vec<usize>> = (0..PREFIXES)
        .map(|_| rng.tokens(PREFIX_LEN, vocab))
        .collect();
    trace
        .iter()
        .enumerate()
        .map(|(i, r)| {
            // On long_prefix the drawn prompt length is the unique tail.
            let prompt = if workload == Workload::LongPrefix {
                let mut p = prefixes[(rng.next() % PREFIXES as u64) as usize].clone();
                p.extend(rng.tokens(r.prompt_len, vocab));
                p
            } else {
                rng.tokens(r.prompt_len, vocab)
            };
            ServingRequest {
                prompt,
                max_new_tokens: r.gen_len,
                seed: i as u64,
                arrival: r.arrival,
                priority: r.priority,
            }
        })
        .collect()
}

/// `n` offline batches of [`OFFLINE_BATCH`] prompts of [`OFFLINE_PROMPT`]
/// tokens each, generated from `seed` alone.
#[must_use]
pub fn offline_batches(seed: u64, n: usize) -> Vec<Vec<Vec<usize>>> {
    let vocab = bench_model().vocab;
    let mut rng = SplitMix(seed ^ 0x0ff1_1e55);
    (0..n)
        .map(|_| {
            (0..OFFLINE_BATCH)
                .map(|_| rng.tokens(OFFLINE_PROMPT, vocab))
                .collect()
        })
        .collect()
}

/// Indices of the requests in the highest priority class present.
#[must_use]
pub fn top_class(requests: &[ServingRequest]) -> Vec<usize> {
    let top = requests
        .iter()
        .map(|r| r.priority)
        .max()
        .unwrap_or_default();
    (0..requests.len())
        .filter(|&i| requests[i].priority == top)
        .collect()
}
