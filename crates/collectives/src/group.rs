//! Mailbox-and-barrier collective groups.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::{Duration, Instant};

use esti_tensor::{QuantizedMatrix, Tensor};

use crate::fault::{FaultKind, FaultState, InjectedCrash};
use crate::stats::{CollectiveOp, CommTimes, TrafficStats, ACT_BYTES};
use crate::sync::{Barrier, BarrierFate, Mutex, PoisonError};

/// What one mailbox slot carries: a dense activation tensor, or a quantized
/// weight shard moved in its wire format (int8 values + per-column f32
/// scales). Keeping the quantized form first-class in the mailbox is what
/// lets weight-gathered layouts move int8 bytes instead of the dequantized
/// f32 view — the ledger then charges the true quantized volume.
#[derive(Clone)]
enum Payload {
    Dense(Tensor),
    Quant(QuantizedMatrix),
}

impl Payload {
    fn into_dense(self) -> Tensor {
        match self {
            Payload::Dense(t) => t,
            Payload::Quant(_) => panic!("expected dense payload in mailbox slot"),
        }
    }

    fn into_quant(self) -> QuantizedMatrix {
        match self {
            Payload::Dense(_) => panic!("expected quantized payload in mailbox slot"),
            Payload::Quant(q) => q,
        }
    }
}

/// What one member claims to be doing, deposited before each collective in
/// debug builds so divergent members fail an assertion instead of
/// deadlocking at the barrier or corrupting each other's mailboxes.
#[cfg(all(debug_assertions, not(loom)))]
#[derive(Clone, PartialEq, Debug)]
struct CallMeta {
    /// Index of this call in the member's collective sequence.
    seq: u64,
    op: CollectiveOp,
    shape: Vec<usize>,
    /// Operative dimensions plus chunk count: `[dim, dim, chunks]` for
    /// gather/scatter/reduce, `[split_dim, concat_dim, chunks]` for
    /// all-to-all. Monolithic calls use `chunks == 1`; a chunked call whose
    /// peers disagree on the chunk count would desynchronize the mailbox
    /// protocol, so the count is part of the agreement check.
    dims: [usize; 3],
    /// Whether the payload moves in the quantized wire format. A member
    /// posting a dense tensor while a peer posts int8 values would corrupt
    /// the exchange, so the payload form is part of the agreement check.
    quant: bool,
}

struct Shared {
    slots: Vec<Mutex<Option<Payload>>>,
    barrier: Barrier,
    stats: Option<Arc<TrafficStats>>,
    #[cfg(all(debug_assertions, not(loom)))]
    meta: Vec<Mutex<Option<CallMeta>>>,
}

/// One member's handle to a collective group of simulated chips.
///
/// All members of a group must call the *same* collective with compatible
/// shapes, in the same order — exactly the SPMD discipline of the real
/// system. A group of size 1 degenerates to identity operations.
///
/// # Examples
///
/// ```
/// use esti_collectives::CommGroup;
/// use esti_tensor::Tensor;
///
/// // A group of one: collectives are identities.
/// let mut solo = CommGroup::create(1);
/// let g = solo.remove(0);
/// let t = Tensor::ones(vec![2, 2]);
/// assert_eq!(g.all_reduce(&t), t);
/// assert_eq!(g.all_gather(&t, 0), t);
/// ```
pub struct CommGroup {
    shared: Arc<Shared>,
    rank: usize,
    /// Per-member wall-clock nanoseconds blocked in each collective kind.
    times: [Cell<u64>; 4],
    /// Per-member nanoseconds spent *launching* chunked sub-transfers (the
    /// non-blocking `post` deposits) — the per-chunk overhead the execution
    /// planner's cost model charges per pipeline slot.
    post_nanos: Cell<u64>,
    /// Per-member nanoseconds the overlap loops spend folding collected
    /// partials (reported by the runtime via
    /// [`note_fold_nanos`](CommGroup::note_fold_nanos)).
    fold_nanos: Cell<u64>,
    /// Deadline applied to every barrier wait this member performs. `None`
    /// (the default for raw groups) blocks forever like the pre-fault
    /// protocol; the engine arms a finite deadline so a stalled peer
    /// surfaces a structured [`CollectiveError`](crate::CollectiveError)
    /// instead of a hang.
    deadline: Cell<Option<Duration>>,
    /// Armed fault plan, shared (with per-chip call counters) by all of
    /// this chip's group handles. `chip` is the *global* chip id, which may
    /// differ from `rank` inside a sub-communicator.
    fault: RefCell<Option<FaultArm>>,
    /// Number of collectives this member has issued (debug-build SPMD check).
    #[cfg(all(debug_assertions, not(loom)))]
    calls: Cell<u64>,
}

struct FaultArm {
    state: Arc<FaultState>,
    chip: usize,
}

impl std::fmt::Debug for CommGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommGroup")
            .field("rank", &self.rank)
            .field("size", &self.size())
            .finish()
    }
}

impl CommGroup {
    /// Creates a group of `size` members. The returned handles are in rank
    /// order; hand one to each chip thread.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn create(size: usize) -> Vec<CommGroup> {
        CommGroup::create_impl(size, None)
    }

    /// Like [`CommGroup::create`], recording every collective call in
    /// `stats`.
    #[must_use]
    pub fn create_with_stats(size: usize, stats: Arc<TrafficStats>) -> Vec<CommGroup> {
        CommGroup::create_impl(size, Some(stats))
    }

    fn create_impl(size: usize, stats: Option<Arc<TrafficStats>>) -> Vec<CommGroup> {
        assert!(size > 0, "group size must be positive");
        let shared = Arc::new(Shared {
            slots: (0..size).map(|_| Mutex::new(None)).collect(),
            barrier: Barrier::new(size),
            stats,
            #[cfg(all(debug_assertions, not(loom)))]
            meta: (0..size).map(|_| Mutex::new(None)).collect(),
        });
        (0..size)
            .map(|rank| CommGroup {
                shared: Arc::clone(&shared),
                rank,
                times: Default::default(),
                post_nanos: Cell::new(0),
                fold_nanos: Cell::new(0),
                deadline: Cell::new(None),
                fault: RefCell::new(None),
                #[cfg(all(debug_assertions, not(loom)))]
                calls: Cell::new(0),
            })
            .collect()
    }

    /// This member's rank within the group.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of members in the group.
    #[must_use]
    pub fn size(&self) -> usize {
        self.shared.slots.len()
    }

    /// Sets the deadline applied to every barrier wait this member
    /// performs. `None` restores the pre-fault block-forever behaviour.
    pub fn set_deadline(&self, deadline: Option<Duration>) {
        self.deadline.set(deadline);
    }

    /// This member's barrier-wait deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline.get()
    }

    /// Arms `state`'s fault plan on this handle. `chip` is the global chip
    /// id owning the handle (its trigger key and the rank reported to peers
    /// on a crash); all of one chip's handles share one `state` so its
    /// collective calls are counted across groups.
    pub fn arm_faults(&self, state: Arc<FaultState>, chip: usize) {
        *self.fault.borrow_mut() = Some(FaultArm { state, chip });
    }

    /// Disarms any fault plan on this handle.
    pub fn clear_faults(&self) {
        *self.fault.borrow_mut() = None;
    }

    /// Marks the group dead because global chip `chip` crashed and wakes
    /// every member blocked in a collective; they surface
    /// [`CollectiveError::PeerCrashed`](crate::CollectiveError::PeerCrashed).
    /// Idempotent; the first recorded cause wins.
    pub fn cancel(&self, chip: usize) {
        self.shared.barrier.cancel(chip);
    }

    /// Marks the group dead because a member's deadline expired; blocked
    /// members surface
    /// [`CollectiveError::Timeout`](crate::CollectiveError::Timeout).
    pub fn cancel_timeout(&self) {
        self.shared.barrier.cancel_timeout();
    }

    /// One barrier phase under this member's deadline. A structured failure
    /// (peer crash, timeout) propagates as a typed panic payload so the
    /// tensor-returning collective API stays unchanged; the engine's
    /// per-chip `catch_unwind` harvests it into an `EngineError`.
    fn barrier_wait(&self) {
        if let Err(err) = self.shared.barrier.wait_deadline(self.deadline.get()) {
            std::panic::panic_any(err);
        }
    }

    /// Fault-injection hook at the top of every collective entry point:
    /// counts this chip's call and fires its armed trigger, if any.
    fn fault_point(&self) {
        let Some((state, chip)) = self
            .fault
            .borrow()
            .as_ref()
            .map(|arm| (Arc::clone(&arm.state), arm.chip))
        else {
            return;
        };
        match state.on_call(chip) {
            None => {}
            Some(FaultKind::Crash) => {
                // Die before touching the mailbox: peers observe the
                // cancellation (here for this group; the engine cancels the
                // chip's other groups when the unwind reaches it).
                self.shared.barrier.cancel(chip);
                std::panic::panic_any(InjectedCrash { chip });
            }
            Some(FaultKind::Stall(dur)) => {
                // Freeze in small slices, abandoning the stall early once a
                // peer has cancelled the group (its deadline expired) — the
                // engine then tears down in ~the deadline, not the full
                // stall duration.
                let slice = Duration::from_millis(2);
                let mut left = dur;
                while left > Duration::ZERO {
                    if self.shared.barrier.fate() != BarrierFate::Alive {
                        break;
                    }
                    let nap = slice.min(left);
                    std::thread::sleep(nap);
                    left -= nap;
                }
            }
            Some(FaultKind::Delay(dur)) => std::thread::sleep(dur),
        }
    }

    /// Core exchange: every member deposits a tensor and receives clones of
    /// everyone's deposits, in rank order. Two barrier phases ensure no
    /// member races ahead and overwrites a slot that others still read.
    fn exchange(&self, t: Tensor) -> Vec<Tensor> {
        self.exchange_payload(Payload::Dense(t))
            .into_iter()
            .map(Payload::into_dense)
            .collect()
    }

    /// [`exchange`](Self::exchange) for quantized weight shards: every
    /// member deposits int8 values + scales and receives everyone's, in
    /// rank order.
    fn exchange_quant(&self, q: QuantizedMatrix) -> Vec<QuantizedMatrix> {
        self.exchange_payload(Payload::Quant(q))
            .into_iter()
            .map(Payload::into_quant)
            .collect()
    }

    // Vetted: "peer deposited" is a two-phase-barrier protocol invariant
    // (every member deposits before any reads); its violation is a bug in
    // this file, not a runtime fault. Faults surface via barrier_wait.
    #[allow(clippy::expect_used)]
    fn exchange_payload(&self, p: Payload) -> Vec<Payload> {
        if self.size() == 1 {
            return vec![p];
        }
        *self.shared.slots[self.rank].lock().unwrap_or_else(PoisonError::into_inner) = Some(p);
        self.barrier_wait();
        let all: Vec<Payload> = self
            .shared
            .slots
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
                    .expect("peer deposited")
            })
            .collect();
        self.barrier_wait();
        all
    }

    /// Debug-build SPMD conformance check: every member deposits what it is
    /// about to do; after a barrier, each asserts all deposits agree. A
    /// member that diverged (wrong op, wrong shape, out-of-order call) fails
    /// fast with a message naming both sides, instead of deadlocking at the
    /// exchange barrier or silently mixing shards. Every member performs the
    /// identical comparison, so on disagreement *all* members panic and no
    /// thread is left waiting on a barrier that will never fill.
    ///
    /// Disabled under `--cfg loom` to keep the model-checked state space at
    /// the size of the production protocol.
    #[cfg(all(debug_assertions, not(loom)))]
    // Vetted: "peer deposited" is a two-phase-barrier protocol invariant
    // (every member deposits before any reads); its violation is a bug in
    // this file, not a runtime fault. Faults surface via barrier_wait.
    #[allow(clippy::expect_used)]
    fn debug_check_agreement(&self, op: CollectiveOp, shape: &[usize], dims: [usize; 3], quant: bool) {
        if self.size() == 1 {
            return;
        }
        let seq = self.calls.get();
        self.calls.set(seq + 1);
        let mine = CallMeta { seq, op, shape: shape.to_vec(), dims, quant };
        *self.shared.meta[self.rank].lock().unwrap_or_else(PoisonError::into_inner) =
            Some(mine.clone());
        self.barrier_wait();
        for (peer, slot) in self.shared.meta.iter().enumerate() {
            let theirs = slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
                .expect("peer deposited call metadata");
            assert!(
                mine == theirs,
                "SPMD violation: rank {} issued {mine:?} but rank {peer} issued {theirs:?} — \
                 all members of a group must execute the same collective sequence",
                self.rank,
            );
        }
        self.barrier_wait();
    }

    #[cfg(not(all(debug_assertions, not(loom))))]
    fn debug_check_agreement(
        &self,
        _op: CollectiveOp,
        _shape: &[usize],
        _dims: [usize; 3],
        _quant: bool,
    ) {
    }

    fn record(&self, op: CollectiveOp, elems: usize) {
        self.record_raw(op, elems as u64 * ACT_BYTES);
    }

    /// Records an exact byte count — the quantized collectives charge their
    /// true wire volume (int8 values + f32 scales) instead of
    /// `elements × ACT_BYTES`.
    fn record_raw(&self, op: CollectiveOp, bytes: u64) {
        if self.rank == 0 {
            if let Some(stats) = &self.shared.stats {
                stats.record(op, bytes);
            }
        }
    }

    /// Accumulates wall-clock time blocked in a collective: always into this
    /// member's [`times`](CommGroup::times), and on rank 0 into the shared
    /// [`TrafficStats`] ledger.
    fn note_time(&self, op: CollectiveOp, start: Instant) {
        let d = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let cell = &self.times[op.slot()];
        cell.set(cell.get().wrapping_add(d));
        if self.rank == 0 {
            if let Some(stats) = &self.shared.stats {
                stats.record_nanos(op, d);
            }
        }
    }

    /// This member's accumulated wall-clock time blocked per collective
    /// kind. For chunked collectives only the blocking `collect` phase
    /// counts — compute slotted between `post` and `collect` is excluded —
    /// so comparing this against a monolithic run shows how much
    /// communication the overlap actually hid.
    #[must_use]
    pub fn times(&self) -> CommTimes {
        CommTimes::from_nanos([
            self.times[0].get(),
            self.times[1].get(),
            self.times[2].get(),
            self.times[3].get(),
        ])
    }

    /// Clears this member's accumulated collective times (including the
    /// per-chunk launch and fold overhead counters).
    pub fn reset_times(&self) {
        for t in &self.times {
            t.set(0);
        }
        self.post_nanos.set(0);
        self.fold_nanos.set(0);
    }

    /// Nanoseconds this member has spent in the non-blocking `post` phase
    /// of chunked collectives — per-chunk launch overhead (slot locking and
    /// payload deposit) that monolithic execution pays only once per
    /// collective. One of the two overhead terms the execution planner's
    /// calibrated cost model charges per pipeline slot.
    #[must_use]
    pub fn post_nanos(&self) -> u64 {
        self.post_nanos.get()
    }

    /// Nanoseconds the overlap loops reported spending in per-chunk partial
    /// folds on this member (see [`note_fold_nanos`](Self::note_fold_nanos)).
    #[must_use]
    pub fn fold_nanos(&self) -> u64 {
        self.fold_nanos.get()
    }

    /// Adds `nanos` of per-chunk fold time (accumulating collected partials
    /// into the preallocated output). Called by the runtime's overlap loops
    /// so chunk-granularity bookkeeping lives next to the transport it
    /// belongs to.
    pub fn note_fold_nanos(&self, nanos: u64) {
        self.fold_nanos.set(self.fold_nanos.get().wrapping_add(nanos));
    }

    /// Accumulates `start.elapsed()` into the chunk-launch counter and, on
    /// rank 0, records one posted chunk of `op` in the shared ledger.
    fn note_post(&self, op: CollectiveOp, start: Instant) {
        let d = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.post_nanos.set(self.post_nanos.get().wrapping_add(d));
        if self.rank == 0 {
            if let Some(stats) = &self.shared.stats {
                stats.record_chunk_post(op);
            }
        }
    }

    /// all-gather(`dim`): concatenates every member's `shard` along `dim`
    /// in rank order, replicating the result on all members.
    ///
    /// Traffic ledger: per-chip *output* bytes (Appendix A.1).
    ///
    /// # Panics
    ///
    /// Panics if members pass incompatible shapes.
    #[must_use]
    pub fn all_gather(&self, shard: &Tensor, dim: usize) -> Tensor {
        let t0 = Instant::now();
        self.fault_point();
        self.debug_check_agreement(CollectiveOp::AllGather, shard.shape(), [dim, dim, 1], false);
        let parts = self.exchange(shard.clone());
        let refs: Vec<&Tensor> = parts.iter().collect();
        let out = Tensor::concat(&refs, dim);
        self.record(CollectiveOp::AllGather, out.numel());
        self.note_time(CollectiveOp::AllGather, t0);
        out
    }

    /// reduce-scatter(`dim`): sums every member's `input` element-wise, then
    /// returns to each member its rank's slice of the sum along `dim`.
    ///
    /// Traffic ledger: per-chip *input* bytes (Appendix A.1).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by the group size or shapes differ.
    #[must_use]
    pub fn reduce_scatter(&self, input: &Tensor, dim: usize) -> Tensor {
        let t0 = Instant::now();
        self.fault_point();
        self.debug_check_agreement(CollectiveOp::ReduceScatter, input.shape(), [dim, dim, 1], false);
        self.record(CollectiveOp::ReduceScatter, input.numel());
        if self.size() == 1 {
            return input.clone();
        }
        let parts = self.exchange(input.clone());
        let mut sum = parts[0].clone();
        for p in &parts[1..] {
            sum = &sum + p;
        }
        let k = self.size();
        assert!(
            sum.dim(dim).is_multiple_of(k),
            "reduce-scatter dim {dim} of size {} not divisible by group size {k}",
            sum.dim(dim)
        );
        let part = sum.dim(dim) / k;
        let out = sum.slice(dim, self.rank * part, part);
        self.note_time(CollectiveOp::ReduceScatter, t0);
        out
    }

    /// all-reduce: sums every member's `input` element-wise, replicating the
    /// result. Equivalent to reduce-scatter followed by all-gather
    /// (Section 3.1) and charged as both in the traffic ledger.
    #[must_use]
    pub fn all_reduce(&self, input: &Tensor) -> Tensor {
        let t0 = Instant::now();
        self.fault_point();
        self.debug_check_agreement(CollectiveOp::AllReduce, input.shape(), [0, 0, 1], false);
        self.record(CollectiveOp::AllReduce, input.numel() * 2);
        if self.size() == 1 {
            return input.clone();
        }
        let parts = self.exchange(input.clone());
        let mut sum = parts[0].clone();
        for p in &parts[1..] {
            sum = &sum + p;
        }
        self.note_time(CollectiveOp::AllReduce, t0);
        sum
    }

    /// all-to-all: splits every member's `input` into `size()` slices along
    /// `split_dim`; member `r` receives slice `r` from everyone,
    /// concatenated along `concat_dim` in rank order. This is the resharding
    /// primitive that moves multiquery attention from head-sharded to
    /// batch-sharded layout (Section 3.3, Figure 5b).
    ///
    /// Traffic ledger: per-chip payload bytes (the full input; the `1/K`
    /// that stays local is excluded by the analytic model, not the ledger).
    ///
    /// # Panics
    ///
    /// Panics if `split_dim` is not divisible by the group size.
    #[must_use]
    pub fn all_to_all(&self, input: &Tensor, split_dim: usize, concat_dim: usize) -> Tensor {
        let t0 = Instant::now();
        self.fault_point();
        self.debug_check_agreement(CollectiveOp::AllToAll, input.shape(), [split_dim, concat_dim, 1], false);
        self.record(CollectiveOp::AllToAll, input.numel());
        if self.size() == 1 {
            return input.clone();
        }
        let k = self.size();
        assert!(
            input.dim(split_dim).is_multiple_of(k),
            "all-to-all split dim {split_dim} of size {} not divisible by group size {k}",
            input.dim(split_dim)
        );
        let parts = self.exchange(input.clone());
        let part = input.dim(split_dim) / k;
        let mine: Vec<Tensor> = parts
            .iter()
            .map(|p| p.slice(split_dim, self.rank * part, part))
            .collect();
        let refs: Vec<&Tensor> = mine.iter().collect();
        let out = Tensor::concat(&refs, concat_dim);
        self.note_time(CollectiveOp::AllToAll, t0);
        out
    }

    /// Quantized all-gather: every member deposits its int8 weight shard in
    /// wire format (values + per-column scales) and receives every rank's
    /// shard, in rank order. The caller reassembles (or streams) them —
    /// returning the parts rather than a concatenation keeps each shard's
    /// scales attached to its values.
    ///
    /// `dim` is the logical concatenation dimension of the gather (0 = row
    /// shards sharing no scales, 1 = column shards partitioning the scale
    /// vector); it only participates in the SPMD agreement check here.
    ///
    /// Traffic ledger: per-chip *output* bytes like the dense
    /// [`all_gather`](Self::all_gather), but at the true quantized volume —
    /// `size() × shard.storage_bytes()` (1 byte per value + 4 per scale)
    /// instead of `elements × 2`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if members disagree on op, shape or dims.
    #[must_use]
    pub fn all_gather_quant(&self, shard: &QuantizedMatrix, dim: usize) -> Vec<QuantizedMatrix> {
        let t0 = Instant::now();
        self.fault_point();
        let shape = [shard.rows(), shard.cols()];
        self.debug_check_agreement(CollectiveOp::AllGather, &shape, [dim, dim, 1], true);
        self.record_raw(
            CollectiveOp::AllGather,
            crate::stats::quant_wire_bytes(self.size(), shard.rows(), shard.cols()) as u64,
        );
        let parts = self.exchange_quant(shard.clone());
        self.note_time(CollectiveOp::AllGather, t0);
        parts
    }

    /// Chunked quantized all-gather: identical result to
    /// [`all_gather_quant`](Self::all_gather_quant), moved as `chunks`
    /// slices of the shard along `dim` (row slices for `dim == 0`, column
    /// slices for `dim == 1`). Like the dense chunked wrappers this does no
    /// compute; the overlap loops use [`begin_chunked_quant`] directly.
    ///
    /// [`begin_chunked_quant`]: Self::begin_chunked_quant
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not 0 or 1, or the shard extent along `dim` is
    /// not divisible by `chunks`.
    #[must_use]
    pub fn all_gather_quant_chunked(
        &self,
        shard: &QuantizedMatrix,
        dim: usize,
        chunks: usize,
    ) -> Vec<QuantizedMatrix> {
        if chunks == 1 {
            return self.all_gather_quant(shard, dim);
        }
        assert!(dim < 2, "quantized shards are rank-2; dim must be 0 or 1");
        let extent = if dim == 0 { shard.rows() } else { shard.cols() };
        assert!(
            extent.is_multiple_of(chunks),
            "quantized all-gather dim {dim} of size {extent} not divisible by {chunks} chunks"
        );
        let step = extent / chunks;
        let shape = [shard.rows(), shard.cols()];
        let wire = crate::stats::quant_wire_bytes(self.size(), shard.rows(), shard.cols());
        let mut ex = self.begin_chunked_quant(
            CollectiveOp::AllGather,
            &shape,
            [dim, dim],
            chunks,
            wire,
        );
        let slice = |c: usize| -> QuantizedMatrix {
            if dim == 0 {
                shard.slice_rows(c * step, step)
            } else {
                shard.slice_cols(c * step, step)
            }
        };
        let mut per_chunk: Vec<Vec<QuantizedMatrix>> = Vec::with_capacity(chunks);
        ex.post(slice(0));
        for c in 1..chunks {
            per_chunk.push(ex.collect());
            ex.post(slice(c));
        }
        per_chunk.push(ex.collect());
        // Reassemble each rank's shard from its chunks in ascending order:
        // values and scales land exactly where the monolithic gather put
        // them (row chunks share one scale vector; column chunks partition
        // it).
        (0..self.size())
            .map(|r| {
                let parts: Vec<&QuantizedMatrix> = per_chunk.iter().map(|c| &c[r]).collect();
                if dim == 0 {
                    QuantizedMatrix::concat_rows(&parts)
                } else {
                    QuantizedMatrix::concat_cols(&parts)
                }
            })
            .collect()
    }

    /// Opens a chunked collective over quantized payloads — the quantized
    /// twin of [`begin_chunked`](Self::begin_chunked), used by the
    /// weight-gathered overlap loops to stream int8 shard slices while the
    /// previous slice's fused dequant-einsum runs.
    ///
    /// `wire_bytes` is the exact byte volume the monolithic quantized
    /// collective would charge (values + scales), recorded once regardless
    /// of chunking. Row-chunked streams resend the full scale vector with
    /// every chunk; that duplication is a simulation artifact (a real
    /// implementation ships the scales once) and is deliberately not
    /// charged.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is zero, or (debug builds) if members disagree.
    #[must_use]
    pub fn begin_chunked_quant(
        &self,
        op: CollectiveOp,
        shape: &[usize],
        dims: [usize; 2],
        chunks: usize,
        wire_bytes: usize,
    ) -> ChunkedQuantExchange<'_> {
        self.fault_point();
        assert!(chunks > 0, "chunked collective requires at least one chunk");
        self.debug_check_agreement(op, shape, [dims[0], dims[1], chunks], true);
        self.record_raw(op, wire_bytes as u64);
        ChunkedQuantExchange { group: self, op, chunks, posted: 0, collected: 0, solo: None }
    }

    /// Opens a chunked collective: the member will [`post`] `chunks` chunks
    /// and [`collect`] each one, interleaving its own compute between the
    /// two — the Looped CollectiveEinsum step API (Section 3.5). All
    /// members must open the same op with the same shape, dims and chunk
    /// count (checked in debug builds like any other collective).
    ///
    /// `shape`/`dims` describe the *whole* logical collective (as the
    /// monolithic call would), and `elems` is the volume the monolithic
    /// call would record, so the traffic ledger sees one call of identical
    /// byte volume regardless of chunking.
    ///
    /// [`post`]: ChunkedExchange::post
    /// [`collect`]: ChunkedExchange::collect
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is zero, or (debug builds) if members disagree.
    #[must_use]
    pub fn begin_chunked(
        &self,
        op: CollectiveOp,
        shape: &[usize],
        dims: [usize; 2],
        chunks: usize,
        elems: usize,
    ) -> ChunkedExchange<'_> {
        self.fault_point();
        assert!(chunks > 0, "chunked collective requires at least one chunk");
        self.debug_check_agreement(op, shape, [dims[0], dims[1], chunks], false);
        self.record(op, elems);
        ChunkedExchange { group: self, op, chunks, posted: 0, collected: 0, solo: None }
    }

    /// Chunked all-gather: identical result to [`all_gather`], moved as
    /// `chunks` slices of `shard` along `dim` so a caller using
    /// [`begin_chunked`] directly can compute on chunk `i-1` while chunk `i`
    /// is in flight. This convenience wrapper does no compute; it exists for
    /// conformance tests and as the reassembly reference.
    ///
    /// [`all_gather`]: CommGroup::all_gather
    /// [`begin_chunked`]: CommGroup::begin_chunked
    ///
    /// # Panics
    ///
    /// Panics if `shard.dim(dim)` is not divisible by `chunks`.
    #[must_use]
    pub fn all_gather_chunked(&self, shard: &Tensor, dim: usize, chunks: usize) -> Tensor {
        if chunks == 1 {
            return self.all_gather(shard, dim);
        }
        let extent = shard.dim(dim);
        assert!(
            extent.is_multiple_of(chunks),
            "all-gather dim {dim} of size {extent} not divisible by {chunks} chunks"
        );
        let step = extent / chunks;
        let out_elems = shard.numel() * self.size();
        let mut ex =
            self.begin_chunked(CollectiveOp::AllGather, shard.shape(), [dim, dim], chunks, out_elems);
        let mut per_chunk: Vec<Vec<Tensor>> = Vec::with_capacity(chunks);
        ex.post(shard.slice(dim, 0, step));
        for c in 1..chunks {
            per_chunk.push(ex.collect());
            ex.post(shard.slice(dim, c * step, step));
        }
        per_chunk.push(ex.collect());
        // Reassemble rank-major, chunk-inner: rank r's full shard is its
        // chunks in ascending order, exactly as the monolithic concat sees it.
        let mut pieces: Vec<&Tensor> = Vec::with_capacity(self.size() * chunks);
        for r in 0..self.size() {
            for chunk in &per_chunk {
                pieces.push(&chunk[r]);
            }
        }
        Tensor::concat(&pieces, dim)
    }

    /// Chunked reduce-scatter: identical result to [`reduce_scatter`],
    /// exchanged as `chunks` pieces. Chunk `c` carries slice `c` of every
    /// destination's scatter part (not a contiguous run of `dim`), so each
    /// collected chunk is immediately reducible to a piece of this member's
    /// output.
    ///
    /// [`reduce_scatter`]: CommGroup::reduce_scatter
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `size() * chunks`.
    #[must_use]
    pub fn reduce_scatter_chunked(&self, input: &Tensor, dim: usize, chunks: usize) -> Tensor {
        if chunks == 1 {
            return self.reduce_scatter(input, dim);
        }
        let k = self.size();
        let extent = input.dim(dim);
        assert!(
            extent.is_multiple_of(k),
            "reduce-scatter dim {dim} of size {extent} not divisible by group size {k}"
        );
        let part = extent / k;
        assert!(
            part.is_multiple_of(chunks),
            "reduce-scatter part of size {part} not divisible by {chunks} chunks"
        );
        let step = part / chunks;
        let mut ex = self.begin_chunked(
            CollectiveOp::ReduceScatter,
            input.shape(),
            [dim, dim],
            chunks,
            input.numel(),
        );
        let post_chunk = |c: usize| -> Tensor {
            let slices: Vec<Tensor> =
                (0..k).map(|j| input.slice(dim, j * part + c * step, step)).collect();
            let refs: Vec<&Tensor> = slices.iter().collect();
            Tensor::concat(&refs, dim)
        };
        // Summing rank-ascending keeps the per-element accumulation chain
        // identical to the monolithic reduce, hence bit-identical results.
        let reduce_mine = |parts: Vec<Tensor>| -> Tensor {
            let mut sum = parts[0].slice(dim, self.rank * step, step);
            for p in &parts[1..] {
                sum = &sum + &p.slice(dim, self.rank * step, step);
            }
            sum
        };
        let mut mine: Vec<Tensor> = Vec::with_capacity(chunks);
        ex.post(post_chunk(0));
        for c in 1..chunks {
            mine.push(reduce_mine(ex.collect()));
            ex.post(post_chunk(c));
        }
        mine.push(reduce_mine(ex.collect()));
        let refs: Vec<&Tensor> = mine.iter().collect();
        Tensor::concat(&refs, dim)
    }

    /// Chunked all-reduce: identical result to [`all_reduce`], exchanged as
    /// `chunks` contiguous slices along `chunk_dim`.
    ///
    /// [`all_reduce`]: CommGroup::all_reduce
    ///
    /// # Panics
    ///
    /// Panics if `chunk_dim` is not divisible by `chunks`.
    #[must_use]
    pub fn all_reduce_chunked(&self, input: &Tensor, chunk_dim: usize, chunks: usize) -> Tensor {
        if chunks == 1 {
            return self.all_reduce(input);
        }
        let extent = input.dim(chunk_dim);
        assert!(
            extent.is_multiple_of(chunks),
            "all-reduce chunk dim {chunk_dim} of size {extent} not divisible by {chunks} chunks"
        );
        let step = extent / chunks;
        let mut ex = self.begin_chunked(
            CollectiveOp::AllReduce,
            input.shape(),
            [chunk_dim, chunk_dim],
            chunks,
            input.numel() * 2,
        );
        let reduce = |parts: Vec<Tensor>| -> Tensor {
            let mut sum = parts[0].clone();
            for p in &parts[1..] {
                sum = &sum + p;
            }
            sum
        };
        let mut out: Vec<Tensor> = Vec::with_capacity(chunks);
        ex.post(input.slice(chunk_dim, 0, step));
        for c in 1..chunks {
            out.push(reduce(ex.collect()));
            ex.post(input.slice(chunk_dim, c * step, step));
        }
        out.push(reduce(ex.collect()));
        let refs: Vec<&Tensor> = out.iter().collect();
        Tensor::concat(&refs, chunk_dim)
    }

    /// Chunked all-to-all: identical result to [`all_to_all`], exchanged as
    /// `chunks` slices along `concat_dim` (which must differ from
    /// `split_dim`, as it does in the multiquery-attention reshard this
    /// primitive exists for).
    ///
    /// [`all_to_all`]: CommGroup::all_to_all
    ///
    /// # Panics
    ///
    /// Panics if the dims coincide or either divisibility fails.
    #[must_use]
    pub fn all_to_all_chunked(
        &self,
        input: &Tensor,
        split_dim: usize,
        concat_dim: usize,
        chunks: usize,
    ) -> Tensor {
        if chunks == 1 {
            return self.all_to_all(input, split_dim, concat_dim);
        }
        assert_ne!(split_dim, concat_dim, "chunked all-to-all needs distinct dims");
        let k = self.size();
        assert!(
            input.dim(split_dim).is_multiple_of(k),
            "all-to-all split dim {split_dim} of size {} not divisible by group size {k}",
            input.dim(split_dim)
        );
        let extent = input.dim(concat_dim);
        assert!(
            extent.is_multiple_of(chunks),
            "all-to-all concat dim {concat_dim} of size {extent} not divisible by {chunks} chunks"
        );
        let step = extent / chunks;
        let part = input.dim(split_dim) / k;
        let mut ex = self.begin_chunked(
            CollectiveOp::AllToAll,
            input.shape(),
            [split_dim, concat_dim],
            chunks,
            input.numel(),
        );
        let mut per_chunk: Vec<Vec<Tensor>> = Vec::with_capacity(chunks);
        let slice_mine = |parts: Vec<Tensor>| -> Vec<Tensor> {
            parts.iter().map(|p| p.slice(split_dim, self.rank * part, part)).collect()
        };
        ex.post(input.slice(concat_dim, 0, step));
        for c in 1..chunks {
            per_chunk.push(slice_mine(ex.collect()));
            ex.post(input.slice(concat_dim, c * step, step));
        }
        per_chunk.push(slice_mine(ex.collect()));
        // Rank-major, chunk-inner: rank r's full contribution is its chunks
        // in ascending order, matching the monolithic rank-order concat.
        let mut pieces: Vec<&Tensor> = Vec::with_capacity(k * chunks);
        for r in 0..k {
            for chunk in &per_chunk {
                pieces.push(&chunk[r]);
            }
        }
        Tensor::concat(&pieces, concat_dim)
    }
}

/// An in-flight chunked collective opened by [`CommGroup::begin_chunked`]:
/// the async step API of the Looped CollectiveEinsum. The caller alternates
/// [`post`](ChunkedExchange::post) (non-blocking deposit of chunk `i`) with
/// its own compute on chunk `i-1`, then [`collect`](ChunkedExchange::collect)
/// (blocking receipt) — hiding communication behind the einsum it feeds:
///
/// ```text
/// post(0); for c in 1..C { compute(c-1); collect(c-1) -> post(c) } ...
/// ```
///
/// Slot discipline: the mailbox holds one chunk per member, so every chunk
/// must be collected before the next is posted (asserted). The two-phase
/// barrier inside `collect` guarantees no member can race ahead and
/// overwrite a slot a peer is still reading.
///
/// # Examples
///
/// ```
/// use esti_collectives::{CollectiveOp, CommGroup};
/// use esti_tensor::Tensor;
///
/// let mut solo = CommGroup::create(1);
/// let g = solo.remove(0);
/// let t = Tensor::ones(vec![2]);
/// let mut ex = g.begin_chunked(CollectiveOp::AllGather, t.shape(), [0, 0], 2, 4);
/// ex.post(t.slice(0, 0, 1));
/// // ... compute on the previous chunk here ...
/// let first = ex.collect();
/// assert_eq!(first[0].data(), &[1.0]);
/// ex.post(t.slice(0, 1, 1));
/// let _ = ex.collect();
/// ```
pub struct ChunkedExchange<'g> {
    group: &'g CommGroup,
    op: CollectiveOp,
    chunks: usize,
    posted: usize,
    collected: usize,
    /// Size-1 groups have no peers to exchange with; the posted chunk
    /// parks here until collected.
    solo: Option<Tensor>,
}

impl ChunkedExchange<'_> {
    /// Deposits the next chunk without blocking.
    ///
    /// # Panics
    ///
    /// Panics if all chunks were already posted or the previous chunk has
    /// not been collected yet.
    pub fn post(&mut self, chunk: Tensor) {
        assert!(self.posted < self.chunks, "all {} chunks already posted", self.chunks);
        assert_eq!(
            self.posted, self.collected,
            "collect the in-flight chunk before posting the next (one mailbox slot per member)"
        );
        let t0 = Instant::now();
        if self.group.size() == 1 {
            self.solo = Some(chunk);
        } else {
            *self.group.shared.slots[self.group.rank]
                .lock()
                .unwrap_or_else(PoisonError::into_inner) =
                Some(Payload::Dense(chunk));
        }
        self.group.note_post(self.op, t0);
        self.posted += 1;
    }

    /// Blocks until every member has posted its current chunk and returns
    /// the deposits in rank order. The blocking time is what the collective
    /// time ledger charges — compute done between `post` and `collect` is
    /// exactly the hidden communication.
    ///
    /// # Panics
    ///
    /// Panics if no chunk is in flight.
    // Vetted: "posted chunk present"/"peer deposited" are slot-discipline
    // invariants of the post/collect protocol, asserted above; violation is
    // a caller bug, not a runtime fault. Faults surface via barrier_wait.
    #[allow(clippy::expect_used)]
    pub fn collect(&mut self) -> Vec<Tensor> {
        assert_eq!(self.posted, self.collected + 1, "no posted chunk to collect");
        self.collected += 1;
        let t0 = Instant::now();
        let parts = if self.group.size() == 1 {
            vec![self.solo.take().expect("posted chunk present")]
        } else {
            self.group.barrier_wait();
            let all: Vec<Tensor> = self
                .group
                .shared
                .slots
                .iter()
                .map(|s| {
                    s.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .clone()
                        .expect("peer deposited")
                        .into_dense()
                })
                .collect();
            self.group.barrier_wait();
            all
        };
        self.group.note_time(self.op, t0);
        parts
    }

    /// Total number of chunks in this collective.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Chunks not yet collected.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.chunks - self.collected
    }
}

/// An in-flight chunked collective over quantized payloads, opened by
/// [`CommGroup::begin_chunked_quant`]: identical post/collect protocol and
/// slot discipline to [`ChunkedExchange`], but each chunk is an int8 shard
/// slice in wire format (values + scales) rather than a dense tensor —
/// the transport the weight-gathered overlap loops stream while running
/// the fused scale-on-arrival einsum on the previous slice.
pub struct ChunkedQuantExchange<'g> {
    group: &'g CommGroup,
    op: CollectiveOp,
    chunks: usize,
    posted: usize,
    collected: usize,
    /// Size-1 groups have no peers to exchange with; the posted chunk
    /// parks here until collected.
    solo: Option<QuantizedMatrix>,
}

impl ChunkedQuantExchange<'_> {
    /// Deposits the next quantized chunk without blocking.
    ///
    /// # Panics
    ///
    /// Panics if all chunks were already posted or the previous chunk has
    /// not been collected yet.
    pub fn post(&mut self, chunk: QuantizedMatrix) {
        assert!(self.posted < self.chunks, "all {} chunks already posted", self.chunks);
        assert_eq!(
            self.posted, self.collected,
            "collect the in-flight chunk before posting the next (one mailbox slot per member)"
        );
        let t0 = Instant::now();
        if self.group.size() == 1 {
            self.solo = Some(chunk);
        } else {
            *self.group.shared.slots[self.group.rank]
                .lock()
                .unwrap_or_else(PoisonError::into_inner) =
                Some(Payload::Quant(chunk));
        }
        self.group.note_post(self.op, t0);
        self.posted += 1;
    }

    /// Blocks until every member has posted its current chunk and returns
    /// the deposits in rank order.
    ///
    /// # Panics
    ///
    /// Panics if no chunk is in flight.
    // Vetted: "posted chunk present"/"peer deposited" are slot-discipline
    // invariants of the post/collect protocol, asserted above; violation is
    // a caller bug, not a runtime fault. Faults surface via barrier_wait.
    #[allow(clippy::expect_used)]
    pub fn collect(&mut self) -> Vec<QuantizedMatrix> {
        assert_eq!(self.posted, self.collected + 1, "no posted chunk to collect");
        self.collected += 1;
        let t0 = Instant::now();
        let parts = if self.group.size() == 1 {
            vec![self.solo.take().expect("posted chunk present")]
        } else {
            self.group.barrier_wait();
            let all: Vec<QuantizedMatrix> = self
                .group
                .shared
                .slots
                .iter()
                .map(|s| {
                    s.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .clone()
                        .expect("peer deposited")
                        .into_quant()
                })
                .collect();
            self.group.barrier_wait();
            all
        };
        self.group.note_time(self.op, t0);
        parts
    }

    /// Total number of chunks in this collective.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Chunks not yet collected.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.chunks - self.collected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f(rank, group)` on one thread per group member and collects
    /// results in rank order.
    fn run_group<T: Send>(
        size: usize,
        f: impl Fn(usize, &CommGroup) -> T + Sync,
    ) -> Vec<T> {
        let members = CommGroup::create(size);
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = members
                .into_iter()
                .enumerate()
                .map(|(r, m)| s.spawn(move || f(r, &m)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("member panicked")).collect()
        })
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let outs = run_group(4, |r, g| {
            let shard = Tensor::full(vec![1, 3], r as f32);
            g.all_gather(&shard, 0)
        });
        for out in outs {
            assert_eq!(out.shape(), &[4, 3]);
            for r in 0..4 {
                assert_eq!(out.at(&[r, 0]), r as f32);
            }
        }
    }

    #[test]
    fn all_gather_along_inner_dim() {
        let outs = run_group(2, |r, g| {
            let shard = Tensor::full(vec![2, 2], r as f32);
            g.all_gather(&shard, 1)
        });
        assert_eq!(outs[0].shape(), &[2, 4]);
        assert_eq!(outs[0].data(), &[0., 0., 1., 1., 0., 0., 1., 1.]);
    }

    #[test]
    fn reduce_scatter_sums_and_shards() {
        let outs = run_group(2, |r, g| {
            // member r holds [r, r, r, r] over dim of size 4
            let input = Tensor::full(vec![4], r as f32 + 1.0);
            g.reduce_scatter(&input, 0)
        });
        // sum = [3,3,3,3]; rank 0 gets first half, rank 1 second
        assert_eq!(outs[0].shape(), &[2]);
        assert_eq!(outs[0].data(), &[3.0, 3.0]);
        assert_eq!(outs[1].data(), &[3.0, 3.0]);
    }

    #[test]
    fn all_reduce_replicates_sum() {
        let outs = run_group(3, |r, g| {
            let input = Tensor::from_vec(vec![2], vec![r as f32, 1.0]);
            g.all_reduce(&input)
        });
        for out in outs {
            assert_eq!(out.data(), &[3.0, 3.0]);
        }
    }

    #[test]
    fn all_reduce_equals_reduce_scatter_then_all_gather() {
        let inputs: Vec<Tensor> = (0..4)
            .map(|r| Tensor::from_vec(vec![8], (0..8).map(|i| (r * 8 + i) as f32).collect()))
            .collect();
        let via_ar = {
            let inputs = inputs.clone();
            run_group(4, move |r, g| g.all_reduce(&inputs[r]))
        };
        let via_rs_ag = run_group(4, move |r, g| {
            let rs = g.reduce_scatter(&inputs[r], 0);
            g.all_gather(&rs, 0)
        });
        for (a, b) in via_ar.iter().zip(&via_rs_ag) {
            assert!(a.approx_eq(b, 1e-6));
        }
    }

    #[test]
    fn all_to_all_transposes_sharding() {
        // Member r holds a [2, K] tensor with value 10*r + column.
        let outs = run_group(2, |r, g| {
            let input = Tensor::from_vec(
                vec![2, 2],
                vec![10.0 * r as f32, 10.0 * r as f32 + 1.0, 10.0 * r as f32, 10.0 * r as f32 + 1.0],
            );
            g.all_to_all(&input, 1, 0)
        });
        // Rank 0 receives column 0 from both peers, stacked along dim 0.
        assert_eq!(outs[0].shape(), &[4, 1]);
        assert_eq!(outs[0].data(), &[0.0, 0.0, 10.0, 10.0]);
        assert_eq!(outs[1].data(), &[1.0, 1.0, 11.0, 11.0]);
    }

    #[test]
    fn all_to_all_roundtrip_restores_layout() {
        // B-shard -> H-shard -> B-shard returns the original tensor.
        let outs = run_group(2, |r, g| {
            let original = Tensor::from_vec(
                vec![2, 4],
                (0..8).map(|i| (r * 8 + i) as f32).collect(),
            );
            let resharded = g.all_to_all(&original, 1, 0); // [4, 2]
            let back = g.all_to_all(&resharded, 0, 1); // [2, 4]
            (original, back)
        });
        for (original, back) in outs {
            assert!(original.approx_eq(&back, 0.0));
        }
    }

    #[test]
    fn repeated_collectives_do_not_deadlock_or_leak_state() {
        let outs = run_group(3, |r, g| {
            let mut acc = Tensor::full(vec![3], r as f32);
            for _ in 0..50 {
                acc = g.all_reduce(&acc.scale(0.5));
            }
            acc
        });
        for (a, b) in outs.iter().zip(&outs[1..]) {
            assert!(a.approx_eq(b, 1e-4));
        }
    }

    #[test]
    fn traffic_stats_recorded_once_per_call() {
        let stats = TrafficStats::new();
        let members = CommGroup::create_with_stats(2, Arc::clone(&stats));
        std::thread::scope(|s| {
            for m in members {
                s.spawn(move || {
                    let t = Tensor::ones(vec![4]);
                    let _ = m.all_gather(&t, 0);
                    let _ = m.reduce_scatter(&Tensor::ones(vec![8]), 0);
                });
            }
        });
        // all-gather output = 8 elements * 2 bytes; reduce-scatter input = 8 * 2.
        assert_eq!(stats.bytes(CollectiveOp::AllGather), 16);
        assert_eq!(stats.bytes(CollectiveOp::ReduceScatter), 16);
        assert_eq!(stats.calls(CollectiveOp::AllGather), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SPMD violation")]
    fn mismatched_collective_ops_fail_fast() {
        // One member all-gathers while the other all-reduces: a schedule
        // divergence that would deadlock or mis-shard in release. The debug
        // agreement check makes every member panic instead.
        let mut g = CommGroup::create(2);
        let g1 = g.remove(1);
        let g0 = g.remove(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                let _ = g1.all_gather(&Tensor::ones(vec![2]), 0);
            });
            let _ = g0.all_reduce(&Tensor::ones(vec![2]));
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SPMD violation")]
    fn mismatched_shapes_fail_fast() {
        let mut g = CommGroup::create(2);
        let g1 = g.remove(1);
        let g0 = g.remove(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                let _ = g1.all_reduce(&Tensor::ones(vec![3]));
            });
            let _ = g0.all_reduce(&Tensor::ones(vec![2]));
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SPMD violation")]
    fn mismatched_dims_fail_fast() {
        // Same op and shape but different gather dimension.
        let mut g = CommGroup::create(2);
        let g1 = g.remove(1);
        let g0 = g.remove(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                let _ = g1.all_gather(&Tensor::ones(vec![2, 2]), 1);
            });
            let _ = g0.all_gather(&Tensor::ones(vec![2, 2]), 0);
        });
    }

    #[test]
    fn chunked_collectives_match_monolithic() {
        for size in [1usize, 2, 4] {
            for chunks in [1usize, 2, 4] {
                let outs = run_group(size, |r, g| {
                    let input = Tensor::from_vec(
                        vec![4, 16],
                        (0..64).map(|i| (r * 100 + i) as f32 * 0.25).collect(),
                    );
                    let ag = g.all_gather_chunked(&input, 0, chunks);
                    let ag_ref = g.all_gather(&input, 0);
                    let rs = g.reduce_scatter_chunked(&input, 1, chunks);
                    let rs_ref = g.reduce_scatter(&input, 1);
                    let ar = g.all_reduce_chunked(&input, 1, chunks);
                    let ar_ref = g.all_reduce(&input);
                    let a2a = g.all_to_all_chunked(&input, 0, 1, chunks);
                    let a2a_ref = g.all_to_all(&input, 0, 1);
                    [(ag, ag_ref), (rs, rs_ref), (ar, ar_ref), (a2a, a2a_ref)]
                });
                for pairs in outs {
                    for (chunked, monolithic) in pairs {
                        assert_eq!(
                            chunked.max_abs_diff(&monolithic),
                            0.0,
                            "size {size} chunks {chunks}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chunked_exchange_pipelines_compute_between_post_and_collect() {
        // The step API: post chunk c, compute on chunk c-1, collect chunk
        // c-1 — an all-gather-fed accumulation done chunk by chunk.
        let chunks = 4;
        let outs = run_group(3, |r, g| {
            let shard = Tensor::from_vec(vec![8], (0..8).map(|i| (r * 8 + i) as f32).collect());
            let reference = g.all_gather(&shard, 0);
            let mut ex =
                g.begin_chunked(CollectiveOp::AllGather, shard.shape(), [0, 0], chunks, 24);
            let mut acc = 0.0f32;
            let mut gathered: Vec<Vec<Tensor>> = Vec::new();
            ex.post(shard.slice(0, 0, 2));
            for c in 1..chunks {
                // "compute" on the previous chunk while this one is in flight
                if let Some(prev) = gathered.last() {
                    acc += prev.iter().map(|t| t.data().iter().sum::<f32>()).sum::<f32>();
                }
                gathered.push(ex.collect());
                ex.post(shard.slice(0, c * 2, 2));
            }
            acc += gathered.last().expect("chunk").iter()
                .map(|t| t.data().iter().sum::<f32>()).sum::<f32>();
            gathered.push(ex.collect());
            assert_eq!(ex.remaining(), 0);
            (reference, gathered, acc)
        });
        for (reference, gathered, _) in outs {
            let mut pieces = Vec::new();
            for r in 0..3 {
                for chunk in &gathered {
                    pieces.push(chunk[r].clone());
                }
            }
            let refs: Vec<&Tensor> = pieces.iter().collect();
            assert_eq!(Tensor::concat(&refs, 0).max_abs_diff(&reference), 0.0);
        }
    }

    #[test]
    fn collective_times_accumulate_blocking_time() {
        let stats = TrafficStats::new();
        let mut members = CommGroup::create_with_stats(2, Arc::clone(&stats)).into_iter();
        let m0 = members.next().expect("rank 0");
        let m1 = members.next().expect("rank 1");
        // Rank 1 announces that it is entering the barrier; rank 0 waits
        // for that before its own delay, so rank 1 is the one that blocks
        // however late the scheduler starts either thread.
        let (entering, announced) = std::sync::mpsc::channel::<()>();
        let times = std::thread::scope(|s| {
            let r1 = s.spawn(move || {
                entering.send(()).expect("rank 0 listens");
                let _ = m1.all_reduce(&Tensor::ones(vec![4]));
                m1.times()
            });
            let r0 = s.spawn(move || {
                announced.recv().expect("rank 1 announces itself");
                std::thread::sleep(std::time::Duration::from_millis(2));
                let _ = m0.all_reduce(&Tensor::ones(vec![4]));
                m0.times()
            });
            [r0.join().expect("member"), r1.join().expect("member")]
        });
        assert!(
            times[1].nanos(CollectiveOp::AllReduce) >= 1_000_000,
            "rank 1 blocked {} ns, expected >= 1ms",
            times[1].nanos(CollectiveOp::AllReduce)
        );
        assert_eq!(times[1].nanos(CollectiveOp::AllGather), 0);
        assert!(stats.nanos(CollectiveOp::AllReduce) > 0);
        assert_eq!(times[1].total_nanos(), times[1].nanos(CollectiveOp::AllReduce));
        let mut merged = times[0];
        merged.merge(&times[1]);
        assert_eq!(
            merged.total_nanos(),
            times[0].total_nanos() + times[1].total_nanos()
        );
    }

    #[test]
    fn chunked_traffic_recorded_once_with_monolithic_volume() {
        let stats = TrafficStats::new();
        let members = CommGroup::create_with_stats(2, Arc::clone(&stats));
        std::thread::scope(|s| {
            for m in members {
                s.spawn(move || {
                    let t = Tensor::ones(vec![4]);
                    let _ = m.all_gather_chunked(&t, 0, 2);
                    let _ = m.reduce_scatter_chunked(&Tensor::ones(vec![8]), 0, 4);
                });
            }
        });
        // Identical to the monolithic ledger: AG output 8 elems * 2 bytes,
        // RS input 8 elems * 2 bytes, one call each.
        assert_eq!(stats.bytes(CollectiveOp::AllGather), 16);
        assert_eq!(stats.bytes(CollectiveOp::ReduceScatter), 16);
        assert_eq!(stats.calls(CollectiveOp::AllGather), 1);
        assert_eq!(stats.calls(CollectiveOp::ReduceScatter), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SPMD violation")]
    fn mismatched_chunk_counts_fail_fast() {
        // Same op, shape and dims but different chunk counts: the mailbox
        // protocols would desynchronize, so the agreement check must fire.
        let mut g = CommGroup::create(2);
        let g1 = g.remove(1);
        let g0 = g.remove(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                let _ = g1.all_reduce_chunked(&Tensor::ones(vec![4]), 0, 4);
            });
            let _ = g0.all_reduce_chunked(&Tensor::ones(vec![4]), 0, 2);
        });
    }

    #[test]
    fn chunk_posts_and_overhead_counters_tracked() {
        let stats = TrafficStats::new();
        let members = CommGroup::create_with_stats(2, Arc::clone(&stats));
        let groups: Vec<_> = run_group_members(members, |_, g| {
            let t = Tensor::ones(vec![8]);
            let _ = g.all_reduce_chunked(&t, 0, 4);
            g
        });
        // One 4-chunk call: four posts in the shared ledger (rank 0 only),
        // and every member accumulated nonzero launch time.
        assert_eq!(stats.calls(CollectiveOp::AllReduce), 1);
        assert_eq!(stats.chunk_posts(CollectiveOp::AllReduce), 4);
        for g in &groups {
            assert!(g.post_nanos() > 0, "post overhead accounted");
            g.note_fold_nanos(7);
            assert_eq!(g.fold_nanos(), 7);
            g.reset_times();
            assert_eq!(g.post_nanos(), 0);
            assert_eq!(g.fold_nanos(), 0);
        }
    }

    /// Like `run_group` but takes ownership of pre-built members (so tests
    /// can share a stats ledger) and returns them in rank order.
    fn run_group_members<T: Send>(
        members: Vec<CommGroup>,
        f: impl Fn(usize, CommGroup) -> T + Sync,
    ) -> Vec<T> {
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = members
                .into_iter()
                .enumerate()
                .map(|(r, m)| s.spawn(move || f(r, m)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("member thread"))
                .collect()
        })
    }

    #[test]
    #[should_panic(expected = "collect the in-flight chunk")]
    fn chunked_exchange_enforces_slot_discipline() {
        let mut solo = CommGroup::create(1);
        let g = solo.remove(0);
        let t = Tensor::ones(vec![4]);
        let mut ex = g.begin_chunked(CollectiveOp::AllGather, t.shape(), [0, 0], 2, 8);
        ex.post(t.slice(0, 0, 2));
        ex.post(t.slice(0, 2, 2)); // must collect first
    }

    #[test]
    fn crash_fault_cancels_group_with_peer_crashed() {
        use crate::fault::{CollectiveError, FaultPlan, FaultState, InjectedCrash};
        let members = CommGroup::create(3);
        let state = Arc::new(FaultState::new(FaultPlan::new().crash(1, 0), 3));
        for (chip, m) in members.iter().enumerate() {
            m.arm_faults(Arc::clone(&state), chip);
        }
        let results: Vec<std::thread::Result<Tensor>> = std::thread::scope(|s| {
            let handles: Vec<_> = members
                .into_iter()
                .map(|m| s.spawn(move || m.all_reduce(&Tensor::ones(vec![2]))))
                .collect();
            handles.into_iter().map(std::thread::ScopedJoinHandle::join).collect()
        });
        let crash = results[1].as_ref().expect_err("chip 1 was crashed");
        assert_eq!(crash.downcast_ref::<InjectedCrash>(), Some(&InjectedCrash { chip: 1 }));
        for r in [0, 2] {
            let err = results[r].as_ref().expect_err("peers observe the crash");
            assert_eq!(
                err.downcast_ref::<CollectiveError>(),
                Some(&CollectiveError::PeerCrashed { rank: 1 }),
                "rank {r}"
            );
        }
    }

    #[test]
    fn stalled_peer_surfaces_timeout_within_deadline() {
        use crate::fault::CollectiveError;
        let members = CommGroup::create(2);
        for m in &members {
            m.set_deadline(Some(Duration::from_millis(40)));
        }
        let t0 = Instant::now();
        let results: Vec<std::thread::Result<Tensor>> = std::thread::scope(|s| {
            let handles: Vec<_> = members
                .into_iter()
                .enumerate()
                .map(|(r, m)| {
                    s.spawn(move || {
                        if r == 1 {
                            // Stalled chip: shows up long after the peer's
                            // deadline. It must then observe the timeout
                            // fate instead of waiting its own full deadline.
                            std::thread::sleep(Duration::from_millis(120));
                        }
                        m.all_reduce(&Tensor::ones(vec![2]))
                    })
                })
                .collect();
            handles.into_iter().map(std::thread::ScopedJoinHandle::join).collect()
        });
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "structured timeout must not degenerate into a long wait"
        );
        for (r, res) in results.iter().enumerate() {
            let err = res.as_ref().expect_err("both sides surface the timeout");
            assert!(
                matches!(err.downcast_ref::<CollectiveError>(), Some(CollectiveError::Timeout { .. })),
                "rank {r}"
            );
        }
    }

    #[test]
    fn delay_fault_is_transparent_to_results() {
        use crate::fault::{FaultPlan, FaultState};
        let members = CommGroup::create(2);
        let plan = FaultPlan::new().delay(0, 0, Duration::from_millis(5));
        let state = Arc::new(FaultState::new(plan, 2));
        for (chip, m) in members.iter().enumerate() {
            m.arm_faults(Arc::clone(&state), chip);
            m.set_deadline(Some(Duration::from_secs(5)));
        }
        let outs: Vec<Tensor> = std::thread::scope(|s| {
            let handles: Vec<_> = members
                .into_iter()
                .enumerate()
                .map(|(r, m)| {
                    s.spawn(move || m.all_reduce(&Tensor::full(vec![2], r as f32 + 1.0)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("delay is not an error")).collect()
        });
        for out in outs {
            assert_eq!(out.data(), &[3.0, 3.0]);
        }
    }

    #[test]
    fn deadline_barrier_matches_blocking_barrier_results() {
        let blocking = run_group(4, |r, g| {
            g.set_deadline(None);
            g.all_gather(&Tensor::full(vec![1, 2], r as f32), 0)
        });
        let deadlined = run_group(4, |r, g| {
            g.set_deadline(Some(Duration::from_secs(30)));
            g.all_gather(&Tensor::full(vec![1, 2], r as f32), 0)
        });
        for (a, b) in blocking.iter().zip(&deadlined) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn reduce_scatter_requires_divisibility() {
        let mut g = CommGroup::create(2);
        let g1 = g.remove(1);
        let g0 = g.remove(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                let _ = g1.reduce_scatter(&Tensor::ones(vec![3]), 0);
            });
            let _ = g0.reduce_scatter(&Tensor::ones(vec![3]), 0);
        });
    }
}
