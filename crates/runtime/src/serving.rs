//! Continuous-batching serving over the partitioned engine (Section 4.4).
//!
//! Where [`esti_core::serving`] *models* the paper's two-tier arrangement
//! analytically, this module *runs* it: a batch-1 prefill tier
//! ([`PartitionedEngine`] at the layout's minimum batch) pipelines into a
//! fixed-capacity decode tier running in slot mode
//! ([`PartitionedEngine::begin_slots`]). Variable-length prompts arrive in
//! a queue, are prefilled (optionally chunked), admitted into free decode
//! slots at step boundaries up to the cap, and evicted on completion.
//!
//! Correctness rests on two properties proved elsewhere in the workspace:
//! every op treats batch rows independently (so a request's row in a
//! padded, mixed-age batch computes bit-identically to running it alone),
//! and the canonical [`RequestKv`](crate::RequestKv) form is
//! layout-independent (so a prefill-tier cache moves into any decode-tier
//! slot exactly). The conformance tests assert the visible consequence:
//! per-request token streams identical to isolated
//! [`PartitionedEngine::generate`] runs.
//!
//! # Self-healing
//!
//! The same two properties make the scheduler recoverable. When a decode
//! step fails (a chip died or a collective timed out — see
//! [`EngineError`]), the batcher rebuilds the decode engine and *replays*
//! every in-flight request from durable state it already holds: the prompt
//! (re-prefilled with the original chunking), the per-request RNG seed
//! (re-seeded, so the sampling stream restarts from draw zero), and the
//! recorded emitted tokens (fed back through real decode steps, each
//! replayed sample asserted equal to its recording). Because batch rows are
//! independent and the replayed computation is the original computation,
//! post-recovery token streams are **bit-identical** to a fault-free run —
//! the chaos conformance tests in `tests/faults.rs` assert exactly that for
//! every decode layout. The price paid is accounted in
//! [`ServingReport::recovery`] and cross-checked against
//! `esti_netsim::crash_recovery_cost`.

use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use esti_collectives::FaultPlan;
use esti_core::layout::Layout;
use esti_core::serving::{Priority, RecoveryStats, RequestStats, ServingReport};
use esti_model::{KvCache, PositionKind, ReferenceModel};
use esti_tensor::sample::{sample_row, Sampling};

use crate::engine::{EngineError, ExecMode, KvBackend, PartitionedEngine, WeightFormat};

/// One queued generation request.
#[derive(Debug, Clone)]
pub struct ServingRequest {
    /// Prompt tokens (any length ≥ 1; requests in one queue may differ).
    pub prompt: Vec<usize>,
    /// Tokens to generate for this request.
    pub max_new_tokens: usize,
    /// Per-request RNG seed — sampling draws are independent streams, so a
    /// request's tokens do not depend on what else shares its batch (and a
    /// replayed request re-derives exactly its own stream).
    pub seed: u64,
    /// Arrival time in seconds relative to the start of serving.
    pub arrival: f64,
    /// Scheduling class. Higher classes are admitted (and prefilled)
    /// first; under pressure, with [`ServingOptions::preemption`], they
    /// preempt strictly lower classes out of their decode slots.
    pub priority: Priority,
}

impl ServingRequest {
    /// A request arriving at `t = 0` in the default ([`Priority::Normal`])
    /// class.
    #[must_use]
    pub fn immediate(prompt: Vec<usize>, max_new_tokens: usize) -> Self {
        ServingRequest {
            prompt,
            max_new_tokens,
            seed: 0,
            arrival: 0.0,
            priority: Priority::Normal,
        }
    }

    /// The same request in the given scheduling class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// Scheduler policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServingOptions {
    /// Decode-tier slot count (the in-flight cap). Must satisfy the
    /// layout's batch divisibility requirements.
    pub max_decode_batch: usize,
    /// Sampling method applied to every request.
    pub sampling: Sampling,
    /// Chunked (incremental) prefill size; `None` prefills each prompt in
    /// one pass.
    pub prefill_chunk: Option<usize>,
    /// Intra-chip kernel worker threads per simulated chip, applied to both
    /// tiers and to every engine rebuilt during fault recovery. `0` keeps
    /// each engine's own default (the `ESTI_CHIP_THREADS` environment
    /// knob). Thread count never changes results — the banded kernels are
    /// bit-identical at any worker count.
    pub intra_chip_threads: usize,
    /// KV page size applied to both tiers (and every engine rebuilt
    /// during fault recovery). `None` keeps each engine's own default (the
    /// `ESTI_KV_PAGE_SIZE` environment knob). Page size never changes
    /// results — token streams are bit-identical at every page size.
    pub kv_backend: Option<KvBackend>,
    /// Decode-tier KV memory budget of each chip's page pool, in cache
    /// positions (one position = one token's K and V across all layers of
    /// the chip's heads); the pool holds `budget / page_size` pages.
    /// `None` is unlimited. Admission reads every pool that would hold the
    /// request — pages already live, shared prompt-prefix pages mapped
    /// once, pages live rows may still grow into — and defers requests
    /// that would overflow.
    pub kv_position_budget: Option<usize>,
    /// Arrived-but-unadmitted requests the scheduler tolerates before
    /// shedding; `None` queues without bound. Shedding removes the
    /// *newest* waiting request of the *lowest* waiting class — the one
    /// whose loss costs the least — recording a typed
    /// [`ServeError::Overloaded`] in [`ServingOutcome::shed`] instead of
    /// letting the backlog grow without bound.
    pub queue_limit: Option<usize>,
    /// Per-class TTFT deadline in seconds, indexed by
    /// [`Priority::index`]: a waiting request that has already waited past
    /// its class deadline is shed (typed [`ServeError::Overloaded`])
    /// rather than served uselessly late. `None` disables the deadline
    /// for that class.
    pub ttft_deadline: [Option<f64>; 3],
    /// Preempt a strictly-lower-priority slot when a higher class is
    /// waiting and no slot is free. The victim re-enters its class queue
    /// (at the front — it keeps its FIFO standing) and, on re-admission,
    /// *replays* through the recovery machinery to a bit-identical
    /// stream. On by default: with every request in one class (the
    /// pre-priority behavior) preemption never fires.
    pub preemption: bool,
}

impl Default for ServingOptions {
    fn default() -> Self {
        ServingOptions {
            max_decode_batch: 4,
            sampling: Sampling::Greedy,
            prefill_chunk: None,
            intra_chip_threads: 0,
            kv_backend: None,
            kv_position_budget: None,
            queue_limit: None,
            ttft_deadline: [None; 3],
            preemption: true,
        }
    }
}

/// Why a serving run could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request list was empty.
    NoRequests,
    /// Requests were not sorted by arrival time.
    UnsortedArrivals,
    /// A request's prompt had no tokens; rejected at admission (index is
    /// the request's position in the submitted batch).
    EmptyPrompt {
        /// Index of the offending request.
        index: usize,
    },
    /// A learned-position model cannot serve this request: prompt plus
    /// generation exceeds the position table.
    PromptTooLong {
        /// Index of the offending request.
        index: usize,
        /// Positions the request needs.
        needed: usize,
        /// Positions the model has.
        max_seq: usize,
    },
    /// A request can never fit the configured
    /// [`ServingOptions::kv_position_budget`], even with the decode tier
    /// otherwise empty.
    KvBudgetExceeded {
        /// Index of the offending request.
        index: usize,
        /// Canonical KV positions the request needs at worst case.
        needed: usize,
        /// The configured budget in canonical KV positions.
        budget: usize,
    },
    /// A request was shed by admission control under overload. Never
    /// returned as a run-level error from
    /// [`ContinuousBatcher::try_serve`] — shed requests are reported
    /// per-request in [`ServingOutcome::shed`] while the rest of the
    /// batch completes; this is the typed record of why each was refused.
    Overloaded {
        /// Index of the shed request.
        index: usize,
        /// Which overload policy triggered the shed.
        reason: OverloadShed,
    },
    /// An engine failure that recovery could not absorb (e.g. the prefill
    /// tier failed twice in a row for the same prompt).
    Engine(EngineError),
    /// More faults occurred than the configured recovery budget
    /// ([`ContinuousBatcher::set_max_recoveries`]) allows.
    RecoveryLimit {
        /// Faults seen, including the one that broke the budget.
        faults: usize,
        /// The failure that exhausted the budget.
        last: EngineError,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoRequests => write!(f, "no requests to serve"),
            ServeError::UnsortedArrivals => {
                write!(f, "requests must be sorted by arrival time")
            }
            ServeError::EmptyPrompt { index } => {
                write!(f, "request {index} has an empty prompt")
            }
            ServeError::PromptTooLong { index, needed, max_seq } => {
                write!(f, "request {index} needs {needed} positions but max_seq is {max_seq}")
            }
            ServeError::KvBudgetExceeded { index, needed, budget } => {
                write!(
                    f,
                    "request {index} needs {needed} KV positions but the budget is {budget}"
                )
            }
            ServeError::Overloaded { index, reason } => match reason {
                OverloadShed::QueueFull { waiting, limit } => write!(
                    f,
                    "request {index} shed under overload: {waiting} waiting, limit {limit}"
                ),
                OverloadShed::TtftDeadline { waited, deadline } => write!(
                    f,
                    "request {index} shed under overload: waited {waited:.3}s past its \
                     {deadline:.3}s TTFT deadline"
                ),
            },
            ServeError::Engine(e) => write!(f, "unrecoverable engine failure: {e}"),
            ServeError::RecoveryLimit { faults, last } => {
                write!(f, "recovery budget exhausted after {faults} faults (last: {last})")
            }
        }
    }
}

/// Which admission-control policy shed a request (the payload of
/// [`ServeError::Overloaded`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverloadShed {
    /// The waiting queue was over [`ServingOptions::queue_limit`].
    QueueFull {
        /// Requests waiting when the shed happened.
        waiting: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The request out-waited its class's
    /// [`ServingOptions::ttft_deadline`].
    TtftDeadline {
        /// Seconds the request had waited unadmitted.
        waited: f64,
        /// The class deadline it missed.
        deadline: f64,
    },
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) | ServeError::RecoveryLimit { last: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

/// Everything a serving run produces.
#[derive(Debug, Clone)]
pub struct ServingOutcome {
    /// Generated tokens per request, in request order.
    pub outputs: Vec<Vec<usize>>,
    /// Measured per-request latency/TTFT stats plus decode-tier occupancy,
    /// in the same shape the analytical simulator reports — so measured
    /// and modeled runs cross-check directly. Fault and recovery accounting
    /// lives in [`ServingReport::recovery`].
    pub report: ServingReport,
    /// Per decode step: live (non-idle) slots and measured wall-clock
    /// seconds — the curve to compare against analytical step times.
    pub step_log: Vec<(usize, f64)>,
    /// Total tokens generated across all requests.
    pub total_generated: usize,
    /// Requests refused by admission control, each a typed
    /// [`ServeError::Overloaded`] carrying the request index and shed
    /// reason. Shed requests keep an empty `outputs` row and contribute
    /// no latency stats to `report`.
    pub shed: Vec<ServeError>,
    /// Priority preemptions performed (each victim re-queued, then
    /// replayed to a bit-identical stream on re-admission).
    pub preemptions: usize,
    /// Recorded tokens re-derived during preemption replays — pure
    /// overhead the preemption policy paid for priority inversion relief.
    pub preempted_tokens_replayed: usize,
}

impl ServingOutcome {
    /// Measured decode throughput in generated tokens per second.
    #[must_use]
    pub fn throughput_tokens_per_sec(&self) -> f64 {
        self.report.generated_throughput(self.total_generated)
    }
}

/// A live request occupying a decode slot.
struct Active {
    idx: usize,
    rng: StdRng,
    next_tok: usize,
    /// Position of the next sample in this request's token stream. Behind
    /// `outputs[idx].len()` only while replaying after a recovery: until
    /// the cursor catches up, each sample is asserted equal to its
    /// recording instead of being appended.
    consumed: usize,
}

/// The slot-machine parameters of a [`ContinuousBatcher`], exported for
/// `esti-verify`'s slot-lifecycle pass.
///
/// The pass models admission → prefill → decode-slot → evict/replay as an
/// explicit state machine and explores it against abstract request traces;
/// these fields are the knobs that machine is parameterized over, read from
/// the live scheduler so the model cannot drift from the configuration
/// under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatcherSpec {
    /// Decode-tier slot count ([`ServingOptions::max_decode_batch`]).
    pub slots: usize,
    /// Faults one `try_serve` call absorbs before
    /// [`ServeError::RecoveryLimit`].
    pub max_recoveries: usize,
    /// Admission prefill emits the request's first token, so a request with
    /// `max_new_tokens <= 1` completes at admission without ever occupying
    /// a decode slot.
    pub prefill_emits_first_token: bool,
    /// Replay-cursor position after a recovery rebuild: re-prefill
    /// re-derives token 0 (asserted against the recording), so replay of
    /// the remaining recorded tokens restarts at index 1.
    pub replay_restarts_at: usize,
    /// KV page size of the decode tier's cache. A live batcher always
    /// reports it; `None` leaves the pool model below out of an abstract
    /// spec.
    pub page_size: Option<usize>,
    /// Page-pool admission budget
    /// ([`ServingOptions::kv_position_budget`] `/ page_size`); `None` when
    /// unbudgeted. When set, admission charges new pages
    /// (shared prefix pages charged once), growth reservations, and one
    /// idle-slot dummy page per empty slot, and defers requests that would
    /// overflow; eviction refunds a page exactly when its last reference
    /// drops.
    pub pool_pages: Option<usize>,
    /// Whether a waiting higher class preempts a strictly lower one out of
    /// its slot ([`ServingOptions::preemption`]). A preempted request is
    /// never dropped: it re-enters its class queue with its recording
    /// intact and must eventually re-admit and replay
    /// (`replay_restarts_at`) — the lifecycle pass rejects machines that
    /// preempt without a replay cursor or starve victims forever.
    pub preemption: bool,
}

/// The two-tier continuous-batching scheduler.
///
/// # Examples
///
/// ```
/// use esti_core::planner::decode_layout;
/// use esti_core::Machine;
/// use esti_model::{ModelConfig, ReferenceModel};
/// use esti_runtime::{ContinuousBatcher, ServingOptions, ServingRequest, WeightFormat};
///
/// let model = ReferenceModel::init_random(ModelConfig::tiny(), 0);
/// let machine = Machine::tpu_v4_slice(4).unwrap();
/// let layout = decode_layout(model.config(), &machine);
/// let mut batcher =
///     ContinuousBatcher::new(&model, layout, WeightFormat::Exact, ServingOptions::default());
/// let requests = vec![
///     ServingRequest::immediate(vec![1, 2, 3], 4),
///     ServingRequest::immediate(vec![5, 6], 4),
/// ];
/// let outcome = batcher.serve(&requests);
/// assert_eq!(outcome.outputs.len(), 2);
/// assert!(outcome.outputs.iter().all(|o| o.len() == 4));
/// ```
pub struct ContinuousBatcher {
    prefill: PartitionedEngine,
    decode: PartitionedEngine,
    opts: ServingOptions,
    /// Everything needed to rebuild a tier after a fault.
    model: ReferenceModel,
    layout: Layout,
    fmt: WeightFormat,
    /// Pinned execution mode; `None` lets each engine's planner choose.
    exec: Option<ExecMode>,
    /// Deadline re-applied to rebuilt engines.
    deadline: Option<Duration>,
    /// A fault plan armed into the decode tier just before the given
    /// successful-step count is reached (one-shot).
    decode_fault: Option<(usize, FaultPlan)>,
    /// Forced preemptions `(after_step, slot)` applied at step boundaries
    /// (one-shot, for conformance testing).
    preempt_plan: Vec<(usize, usize)>,
    /// Recovery budget per [`ContinuousBatcher::try_serve`] call.
    max_recoveries: usize,
}

/// Builds a tier engine: planner-driven when no mode is pinned. `workers`
/// is [`ServingOptions::intra_chip_threads`]; `0` keeps the engine default.
/// `kv` is [`ServingOptions::kv_backend`]; `None` keeps the engine default.
fn build_engine(
    model: &ReferenceModel,
    layout: Layout,
    fmt: WeightFormat,
    exec: Option<ExecMode>,
    workers: usize,
    kv: Option<KvBackend>,
) -> PartitionedEngine {
    let mut engine = match exec {
        Some(mode) => PartitionedEngine::new_with_exec(model, layout, fmt, mode),
        None => PartitionedEngine::new(model, layout, fmt),
    };
    if workers > 0 {
        engine.set_intra_chip_threads(workers);
    }
    if let Some(backend) = kv {
        engine.set_kv_backend(backend);
    }
    engine
}

/// Decode growth pages a live row may still allocate. `consumed` is
/// [`Active::consumed`]: the row caches `prompt + consumed − 1` positions.
fn pages_to_grow(req: &ServingRequest, consumed: usize, page_size: usize) -> usize {
    let l = req.prompt.len();
    (l + req.max_new_tokens).div_ceil(page_size) - (l + consumed - 1).div_ceil(page_size)
}

/// Pages one chip's pool holds or owes: its live pages, the copy-outs
/// its shared partial prompt pages still owe, and the growth each live
/// row in `rows` may still allocate. Idle rows hold no pages here — the
/// batcher evicts them right after each step. The count depends only on
/// which requests are live, not on how far they have decoded, so a replay
/// after a fault recommits exactly what the failed engine had.
fn pages_committed(
    cache: &KvCache,
    rows: Range<usize>,
    requests: &[ServingRequest],
    active: &[Option<Active>],
    page_size: usize,
) -> usize {
    let grow: usize = active[rows]
        .iter()
        .flatten()
        .map(|a| pages_to_grow(&requests[a.idx], a.consumed, page_size))
        .sum();
    cache.page_stats().map_or(0, |st| st.pages_live) + cache.copy_outs_owed() + grow
}

/// Raises `peak` to the busiest chip's `(live, shared)` page counts.
fn observe_pools(engine: &PartitionedEngine, peak: &mut (usize, usize)) {
    for st in engine.kv_shards().filter_map(|(_, cache)| cache.page_stats()) {
        peak.0 = peak.0.max(st.pages_live);
        peak.1 = peak.1.max(st.pages_shared);
    }
}

impl ContinuousBatcher {
    /// Builds both tiers from one model and layout (the common case; the
    /// paper's tiers may differ in chip count, which maps here to building
    /// with different layouts via two engines — a future extension).
    ///
    /// # Panics
    ///
    /// Panics if `opts.max_decode_batch` is zero or violates the layout's
    /// batch divisibility requirements, or on any condition
    /// [`PartitionedEngine::new`] panics on.
    #[must_use]
    pub fn new(
        model: &ReferenceModel,
        layout: Layout,
        fmt: WeightFormat,
        opts: ServingOptions,
    ) -> Self {
        ContinuousBatcher::new_impl(model, layout, fmt, None, opts)
    }

    /// Like [`ContinuousBatcher::new`] with an explicit execution mode
    /// pinned into both tiers (and any engine rebuilt during fault
    /// recovery), bypassing the per-engine execution planner.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ContinuousBatcher::new`].
    #[must_use]
    pub fn new_with_exec(
        model: &ReferenceModel,
        layout: Layout,
        fmt: WeightFormat,
        exec: ExecMode,
        opts: ServingOptions,
    ) -> Self {
        ContinuousBatcher::new_impl(model, layout, fmt, Some(exec), opts)
    }

    fn new_impl(
        model: &ReferenceModel,
        layout: Layout,
        fmt: WeightFormat,
        exec: Option<ExecMode>,
        opts: ServingOptions,
    ) -> Self {
        assert!(opts.max_decode_batch > 0, "decode batch cap must be positive");
        let prefill =
            build_engine(model, layout, fmt, exec, opts.intra_chip_threads, opts.kv_backend);
        let decode =
            build_engine(model, layout, fmt, exec, opts.intra_chip_threads, opts.kv_backend);
        let deadline = decode.collective_deadline();
        ContinuousBatcher {
            prefill,
            decode,
            opts,
            model: model.clone(),
            layout,
            fmt,
            exec,
            deadline,
            decode_fault: None,
            preempt_plan: Vec::new(),
            max_recoveries: 3,
        }
    }

    /// The decode-tier engine (for inspecting traffic or comm times).
    #[must_use]
    pub fn decode_engine(&self) -> &PartitionedEngine {
        &self.decode
    }

    /// The slot-machine parameters the lifecycle analyzer models (see
    /// [`BatcherSpec`]).
    #[must_use]
    pub fn spec(&self) -> BatcherSpec {
        let KvBackend::Paged { page_size } = self.decode.kv_backend();
        BatcherSpec {
            slots: self.opts.max_decode_batch,
            max_recoveries: self.max_recoveries,
            prefill_emits_first_token: true,
            replay_restarts_at: 1,
            page_size: Some(page_size),
            pool_pages: self.opts.kv_position_budget.map(|b| b / page_size),
            preemption: self.opts.preemption,
        }
    }

    /// Sets the collective deadline both tiers (and any rebuilt engine)
    /// run under; `None` waits forever.
    pub fn set_collective_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
        self.prefill.set_collective_deadline(deadline);
        self.decode.set_collective_deadline(deadline);
    }

    /// Caps how many faults one [`ContinuousBatcher::try_serve`] call will
    /// recover from before giving up with [`ServeError::RecoveryLimit`].
    pub fn set_max_recoveries(&mut self, max: usize) {
        self.max_recoveries = max;
    }

    /// Arms `plan` into the decode tier immediately before its
    /// `at_step`-th successful decode step (chaos testing): the plan's call
    /// indices then count collectives from the start of that step. One-shot
    /// — a rebuilt engine comes up fault-free.
    pub fn schedule_decode_fault(&mut self, at_step: usize, plan: FaultPlan) {
        self.decode_fault = Some((at_step, plan));
    }

    /// Arms `plan` into the prefill tier right away (chaos testing). The
    /// recovery path rebuilds the tier fault-free and retries the prompt.
    pub fn inject_prefill_fault(&mut self, plan: FaultPlan) {
        self.prefill.inject_faults(plan);
    }

    /// Forces preemptions for the next serve call (conformance testing):
    /// each `(after_step, slot)` entry evicts whatever request occupies
    /// `slot` at the step boundary right after the `after_step`-th
    /// successful decode step, re-queuing it exactly as a policy
    /// preemption would. One-shot; entries naming an empty slot are
    /// no-ops. The conformance suite drives arbitrary schedules through
    /// this hook and asserts streams stay bit-identical to un-preempted
    /// runs.
    pub fn schedule_preemptions(&mut self, plan: &[(usize, usize)]) {
        self.preempt_plan = plan.to_vec();
    }

    /// Serves `requests` (sorted by arrival) to completion and returns
    /// every request's generated tokens plus measured statistics.
    ///
    /// See [`ContinuousBatcher::try_serve`] for the admission policy and
    /// recovery behavior.
    ///
    /// # Panics
    ///
    /// Panics on any [`ServeError`] — invalid submissions (empty request
    /// list, unsorted arrivals, an empty prompt, a learned-position
    /// overflow) and engine failures past the recovery budget alike.
    pub fn serve(&mut self, requests: &[ServingRequest]) -> ServingOutcome {
        self.try_serve(requests).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Serves `requests` (sorted by arrival) to completion.
    ///
    /// Admission policy: priority-first, FIFO within a class. At every
    /// step boundary, arrived requests join their class queue; the
    /// highest waiting class is prefilled first (batch-1, padded to the
    /// layout's minimum batch by prompt replication) and takes the lowest
    /// free slot, until slots or arrived requests run out. With
    /// [`ServingOptions::preemption`], a waiting request whose class
    /// strictly exceeds the lowest in-flight class evicts that slot's
    /// request (least progress first, so the least replay is wasted); the
    /// victim re-enters its class queue and later replays to a
    /// bit-identical stream through the same machinery fault recovery
    /// uses. The decode tier then steps the full slot batch — idle slots
    /// carry a dummy token and are evicted right after each step, so they
    /// never age and hold no pages between steps. A request leaves its
    /// slot the moment its last token is sampled.
    ///
    /// With [`ServingOptions::kv_position_budget`], a request is admitted
    /// only if every chip pool holding its slot can take it: live pages,
    /// copy-outs owed, the pages live rows may still grow into, the pages
    /// inserting the prompt commits the pool to, the request's own
    /// growth, and one dummy page per row left idle must fit
    /// `budget / page_size`. Otherwise it waits for evictions to free
    /// pages.
    ///
    /// Admission control ([`ServingOptions::queue_limit`],
    /// [`ServingOptions::ttft_deadline`]) sheds waiting requests under
    /// overload instead of queueing without bound; each shed is a typed
    /// [`ServeError::Overloaded`] in [`ServingOutcome::shed`], the run
    /// itself still completes. Preempted requests are never shed — they
    /// hold emitted tokens and always complete.
    ///
    /// Failed steps trigger recovery (see the module docs): the dead tier
    /// is rebuilt and in-flight requests are replayed to bit-identical
    /// streams, up to [`ContinuousBatcher::set_max_recoveries`] faults.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoRequests`] / [`ServeError::UnsortedArrivals`] /
    /// [`ServeError::EmptyPrompt`] / [`ServeError::PromptTooLong`] reject
    /// the submission before any engine work;
    /// [`ServeError::KvBudgetExceeded`] rejects a request that cannot fit
    /// an otherwise empty chip pool; [`ServeError::Engine`] and
    /// [`ServeError::RecoveryLimit`] report faults recovery could not
    /// absorb.
    pub fn try_serve(&mut self, requests: &[ServingRequest]) -> Result<ServingOutcome, ServeError> {
        if requests.is_empty() {
            return Err(ServeError::NoRequests);
        }
        if !requests.windows(2).all(|w| w[0].arrival <= w[1].arrival) {
            return Err(ServeError::UnsortedArrivals);
        }
        let cfg = self.decode.config().clone();
        for (index, r) in requests.iter().enumerate() {
            if r.prompt.is_empty() {
                return Err(ServeError::EmptyPrompt { index });
            }
            let needed = r.prompt.len() + r.max_new_tokens;
            if cfg.position == PositionKind::Learned && needed > cfg.max_seq {
                return Err(ServeError::PromptTooLong { index, needed, max_seq: cfg.max_seq });
            }
        }
        let cap = self.opts.max_decode_batch;
        let reserve =
            requests.iter().map(|r| r.prompt.len() + r.max_new_tokens).max().unwrap_or(0);
        let KvBackend::Paged { page_size } = self.decode.kv_backend();
        self.decode.begin_slots(cap, reserve);
        let pad = self.prefill.min_batch();

        let t0 = Instant::now();
        let now = || t0.elapsed().as_secs_f64();
        let n = requests.len();
        let mut outputs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut prefilled_at = vec![0.0f64; n];
        let mut finished_at = vec![0.0f64; n];
        // Requests arrive (in sorted order) past `cursor` into their class
        // queue; admission drains the highest class first, FIFO within.
        let mut waiting: [VecDeque<usize>; 3] = Default::default();
        let mut cursor = 0usize;
        let mut shed: Vec<ServeError> = Vec::new();
        let mut is_shed = vec![false; n];
        let mut preemptions = 0usize;
        let mut preempted_replayed = 0usize;
        let mut forced = std::mem::take(&mut self.preempt_plan);
        let mut active: Vec<Option<Active>> = (0..cap).map(|_| None).collect();
        let mut step_log: Vec<(usize, f64)> = Vec::new();
        let mut occupancy_sum = 0usize;
        let mut recovery = RecoveryStats::default();
        let mut steps_done = 0usize;
        let mut peak_live = 0usize;
        // Busiest chip's (live, shared) pages, sampled around every step.
        let mut peak_pages = (0usize, 0usize);

        loop {
            // Arrived requests join their class queue.
            while cursor < n && requests[cursor].arrival <= now() {
                waiting[requests[cursor].priority.index()].push_back(cursor);
                cursor += 1;
            }

            // Forced preemptions scheduled for this step boundary (one
            // shot each; empty slots are no-ops).
            for i in (0..forced.len()).rev() {
                let (after_step, slot) = forced[i];
                if after_step != steps_done {
                    continue;
                }
                forced.swap_remove(i);
                if let Some(a) = active[slot].take() {
                    waiting[requests[a.idx].priority.index()].push_front(a.idx);
                    self.decode.evict_slot(slot);
                    preemptions += 1;
                }
            }

            // TTFT-deadline shedding. Preempted victims (non-empty
            // recording) are exempt: they were admitted once and must
            // complete.
            for class in Priority::ALL {
                if let Some(deadline) = self.opts.ttft_deadline[class.index()] {
                    waiting[class.index()].retain(|&idx| {
                        let waited = now() - requests[idx].arrival;
                        if outputs[idx].is_empty() && waited > deadline {
                            is_shed[idx] = true;
                            shed.push(ServeError::Overloaded {
                                index: idx,
                                reason: OverloadShed::TtftDeadline { waited, deadline },
                            });
                            false
                        } else {
                            true
                        }
                    });
                }
            }

            // Queue-depth shedding: the newest waiting request of the
            // lowest class goes first; preempted victims are exempt.
            if let Some(limit) = self.opts.queue_limit {
                let mut total: usize = waiting.iter().map(VecDeque::len).sum();
                'shed: while total > limit {
                    for class in Priority::ALL {
                        let q = &mut waiting[class.index()];
                        let Some(pos) = q.iter().rposition(|&idx| outputs[idx].is_empty())
                        else {
                            continue;
                        };
                        let Some(idx) = q.remove(pos) else { unreachable!("pos in bounds") };
                        is_shed[idx] = true;
                        shed.push(ServeError::Overloaded {
                            index: idx,
                            reason: OverloadShed::QueueFull { waiting: total, limit },
                        });
                        total -= 1;
                        continue 'shed;
                    }
                    break; // only un-sheddable victims remain waiting
                }
            }

            // Admission at the step boundary, highest class first.
            'admit: while let Some(class) = Priority::ALL
                .into_iter()
                .rev()
                .find(|c| !waiting[c.index()].is_empty())
            {
                let slot = match active.iter().position(Option::is_none) {
                    Some(s) => s,
                    None if self.opts.preemption => {
                        // Policy preemption: evict the lowest class below
                        // the admitted one; among equals the least
                        // progress, so the least replay is wasted.
                        let victim = active
                            .iter()
                            .enumerate()
                            .filter_map(|(s, o)| o.as_ref().map(|a| (s, a.idx)))
                            .filter(|&(_, v)| requests[v].priority < class)
                            .min_by_key(|&(s, v)| {
                                (requests[v].priority, outputs[v].len(), s)
                            });
                        let Some((s, v)) = victim else { break };
                        waiting[requests[v].priority.index()].push_front(v);
                        active[s] = None;
                        self.decode.evict_slot(s);
                        preemptions += 1;
                        s
                    }
                    None => break,
                };
                let Some(&idx) = waiting[class.index()].front() else { break };
                // Page-pool admission gate. Every chip holding the slot
                // must fit its committed pages, the pages inserting this
                // prompt commits it to, this request's growth, and the one
                // dummy page each row left idle holds during the next
                // step — so no chip's pool outgrows the budget. A request
                // done at prefill never enters the pool.
                let req = &requests[idx];
                if let Some(budget) =
                    self.opts.kv_position_budget.filter(|_| req.max_new_tokens > 1)
                {
                    for (rows, cache) in self.decode.kv_shards() {
                        if !rows.contains(&slot) {
                            continue;
                        }
                        let live = active[rows.clone()].iter().flatten().count();
                        let idle_after = rows.len() - live - 1;
                        let need =
                            pages_committed(cache, rows, requests, &active, page_size)
                                + cache.insert_pages(&req.prompt)
                                + pages_to_grow(req, 1, page_size)
                                + idle_after;
                        if need > budget / page_size {
                            if live == 0 {
                                // Nothing to evict will ever free enough:
                                // the request cannot fit even alone.
                                return Err(ServeError::KvBudgetExceeded {
                                    index: idx,
                                    needed: need * page_size,
                                    budget,
                                });
                            }
                            break 'admit; // Defer until eviction frees pages.
                        }
                    }
                }
                waiting[class.index()].pop_front();
                let replaying = !outputs[idx].is_empty();
                let last_logits = self.prefill_with_retry(&req.prompt, pad, &mut recovery)?;
                let mut rng = StdRng::seed_from_u64(req.seed);
                if !replaying {
                    prefilled_at[idx] = now();
                    if req.max_new_tokens == 0 {
                        finished_at[idx] = prefilled_at[idx];
                        continue;
                    }
                }
                // The first generated token comes from the prefill logits —
                // its sampling time is the TTFT recorded above. On a
                // post-preemption re-admission the re-derived token is
                // asserted against the recording instead (the replay
                // cursor then walks the emitted decode suffix).
                let tok = sample_row(&mut rng, &last_logits, self.opts.sampling);
                if replaying {
                    assert_eq!(tok, outputs[idx][0], "request {idx} diverged at replayed token 0");
                    preempted_replayed += outputs[idx].len() - 1;
                } else {
                    outputs[idx].push(tok);
                    if req.max_new_tokens == 1 {
                        finished_at[idx] = now();
                        continue;
                    }
                }
                let kv = self.prefill.extract_kv(0);
                self.decode.insert_kv_shared(slot, &kv, &req.prompt);
                active[slot] = Some(Active { idx, rng, next_tok: tok, consumed: 1 });
            }

            let live = active.iter().flatten().count();
            peak_live = peak_live.max(live);
            if live == 0 {
                if cursor >= n && waiting.iter().all(VecDeque::is_empty) {
                    break;
                }
                // Nothing in flight and the next request has not arrived:
                // nap (bounded, so a mis-scheduled wakeup self-corrects).
                if cursor < n {
                    let wait = requests[cursor].arrival - now();
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait.min(0.02)));
                    }
                }
                continue;
            }

            // Step-boundary invariant of the gate: no chip's live pages
            // plus the pages it still owes its live rows exceed the budget.
            debug_assert!(
                self.opts.kv_position_budget.is_none_or(|budget| {
                    self.decode.kv_shards().all(|(rows, cache)| {
                        pages_committed(cache, rows, requests, &active, page_size)
                            <= budget / page_size
                    })
                }),
                "a chip's committed KV pages exceed kv_position_budget"
            );
            observe_pools(&self.decode, &mut peak_pages);

            // Scheduled chaos: arm the one-shot fault plan at its step.
            if matches!(self.decode_fault, Some((at, _)) if at == steps_done) {
                if let Some((_, plan)) = self.decode_fault.take() {
                    self.decode.inject_faults(plan);
                }
            }

            // One decode step over the full slot batch.
            let tokens: Vec<usize> =
                active.iter().map(|a| a.as_ref().map_or(0, |a| a.next_tok)).collect();
            let t_step = Instant::now();
            let logits = match self.decode.try_decode_step(&tokens) {
                Ok(logits) => logits,
                Err(err) => {
                    self.recover_decode(
                        requests,
                        &outputs,
                        &mut active,
                        cap,
                        reserve,
                        pad,
                        &mut recovery,
                        err,
                    )?;
                    continue;
                }
            };
            steps_done += 1;
            step_log.push((live, t_step.elapsed().as_secs_f64()));
            occupancy_sum += live;
            observe_pools(&self.decode, &mut peak_pages);

            let v = cfg.vocab;
            for (s, slot) in active.iter_mut().enumerate() {
                let Some(a) = slot else { continue };
                let row = &logits.data()[s * v..(s + 1) * v];
                let tok = sample_row(&mut a.rng, row, self.opts.sampling);
                if a.consumed < outputs[a.idx].len() {
                    // Replay after a recovery: the recomputed sample must
                    // reproduce its recording bit-for-bit.
                    assert_eq!(
                        tok,
                        outputs[a.idx][a.consumed],
                        "request {} diverged at replayed token {}",
                        a.idx,
                        a.consumed
                    );
                } else {
                    outputs[a.idx].push(tok);
                }
                a.consumed += 1;
                if a.consumed == requests[a.idx].max_new_tokens {
                    finished_at[a.idx] = now();
                    *slot = None;
                } else {
                    a.next_tok = tok;
                }
            }
            // Finished and idle rows give back their pages (an idle row's
            // dummy append included) and restart at position zero, so the
            // next boundary's gate sees live rows only.
            for (s, slot) in active.iter().enumerate() {
                if slot.is_none() {
                    self.decode.evict_slot(s);
                }
            }
        }

        // Shed requests have no latency to report; everything else does.
        let stats: Vec<RequestStats> = requests
            .iter()
            .enumerate()
            .filter(|&(idx, _)| !is_shed[idx])
            .map(|(idx, r)| RequestStats {
                arrival: r.arrival,
                prefilled: prefilled_at[idx],
                finished: finished_at[idx],
                generated: outputs[idx].len(),
            })
            .collect();
        let total_generated = outputs.iter().map(Vec::len).sum();
        let pages_free = self
            .opts
            .kv_position_budget
            .map_or(0, |b| (b / page_size).saturating_sub(peak_pages.0));
        let report = ServingReport::new(stats, step_log.len(), occupancy_sum)
            .with_recovery(recovery)
            .with_peak_batch(peak_live)
            .with_kv_pages(pages_free, peak_pages.1);
        Ok(ServingOutcome {
            report,
            step_log,
            outputs,
            total_generated,
            shed,
            preemptions,
            preempted_tokens_replayed: preempted_replayed,
        })
    }

    /// Rebuilds the decode tier after a failed step and replays every
    /// in-flight request up to its recorded stream: prompt re-prefilled
    /// (original chunking), RNG re-seeded, first token re-derived from the
    /// prefill logits, KV re-inserted into the same slot. The emitted
    /// decode suffix is then re-derived by the ordinary step loop, which
    /// asserts each replayed sample equals its recording — so a successful
    /// recovery is bit-identical by construction, not by luck.
    #[allow(clippy::too_many_arguments)] // private: the serve loop's locals.
    fn recover_decode(
        &mut self,
        requests: &[ServingRequest],
        outputs: &[Vec<usize>],
        active: &mut [Option<Active>],
        cap: usize,
        reserve: usize,
        pad: usize,
        recovery: &mut RecoveryStats,
        err: EngineError,
    ) -> Result<(), ServeError> {
        recovery.faults += 1;
        if recovery.faults > self.max_recoveries {
            return Err(ServeError::RecoveryLimit { faults: recovery.faults, last: err });
        }
        let t = Instant::now();
        self.decode = build_engine(
            &self.model,
            self.layout,
            self.fmt,
            self.exec,
            self.opts.intra_chip_threads,
            self.opts.kv_backend,
        );
        self.decode.set_collective_deadline(self.deadline);
        // The rebuilt pools start empty; each replayed request re-inserts
        // through the shared-prefix path, so prompt prefixes re-share
        // exactly as they did before the fault.
        self.decode.begin_slots(cap, reserve);
        let mut steps_lost = 0usize;
        for (slot, entry) in active.iter_mut().enumerate() {
            let Some(idx) = entry.as_ref().map(|a| a.idx) else { continue };
            let req = &requests[idx];
            let emitted = &outputs[idx];
            let last_logits = self.prefill_with_retry(&req.prompt, pad, recovery)?;
            let mut rng = StdRng::seed_from_u64(req.seed);
            let tok0 = sample_row(&mut rng, &last_logits, self.opts.sampling);
            assert_eq!(tok0, emitted[0], "request {idx} diverged at replayed token 0");
            let kv = self.prefill.extract_kv(0);
            self.decode.insert_kv_shared(slot, &kv, &req.prompt);
            *entry = Some(Active { idx, rng, next_tok: tok0, consumed: 1 });
            recovery.requests_replayed += 1;
            recovery.prefill_tokens_replayed += req.prompt.len();
            recovery.decode_tokens_replayed += emitted.len() - 1;
            steps_lost = steps_lost.max(emitted.len() - 1);
        }
        recovery.steps_lost += steps_lost;
        recovery.recovery_seconds += t.elapsed().as_secs_f64();
        Ok(())
    }

    /// [`ContinuousBatcher::try_prefill_padded`] with one recovery: if the
    /// prefill tier fails (it holds no cross-request state), it is rebuilt
    /// fault-free and the prompt retried once, charging the retry to the
    /// recovery ledger. A second failure is unrecoverable.
    fn prefill_with_retry(
        &mut self,
        prompt: &[usize],
        pad: usize,
        recovery: &mut RecoveryStats,
    ) -> Result<Vec<f32>, ServeError> {
        match self.try_prefill_padded(prompt, pad) {
            Ok(logits) => Ok(logits),
            Err(err) => {
                recovery.faults += 1;
                if recovery.faults > self.max_recoveries {
                    return Err(ServeError::RecoveryLimit { faults: recovery.faults, last: err });
                }
                let t = Instant::now();
                self.prefill = build_engine(
                    &self.model,
                    self.layout,
                    self.fmt,
                    self.exec,
                    self.opts.intra_chip_threads,
                    self.opts.kv_backend,
                );
                self.prefill.set_collective_deadline(self.deadline);
                let logits = self.try_prefill_padded(prompt, pad).map_err(ServeError::Engine)?;
                recovery.prefill_tokens_replayed += prompt.len();
                recovery.recovery_seconds += t.elapsed().as_secs_f64();
                Ok(logits)
            }
        }
    }

    /// Prefills one prompt on the prefill tier, padded to batch `pad` by
    /// replication (row 0 is bit-unaffected — batch rows are independent
    /// everywhere), honoring the chunked-prefill option. Returns row 0's
    /// last-position logits; the tier's cache then holds the prompt's KV
    /// for [`PartitionedEngine::extract_kv`].
    fn try_prefill_padded(
        &mut self,
        prompt: &[usize],
        pad: usize,
    ) -> Result<Vec<f32>, EngineError> {
        self.prefill.reset();
        let len = prompt.len();
        let chunk = self.opts.prefill_chunk.unwrap_or(len).max(1);
        let v = self.prefill.config().vocab;
        // Admission rejects empty prompts, so the loop runs ≥ once and
        // `last` is always set on the Ok path.
        let mut last = Vec::new();
        let mut start = 0;
        while start < len {
            let end = (start + chunk).min(len);
            let chunk_tokens: Vec<Vec<usize>> =
                (0..pad).map(|_| prompt[start..end].to_vec()).collect();
            let logits = self.prefill.try_prefill(&chunk_tokens)?; // [pad, l, V]
            let l = end - start;
            last = logits.slice(1, l - 1, 1).data()[..v].to_vec();
            start = end;
        }
        Ok(last)
    }
}
