//! Conformance tests for the paged KV cache (copy-on-write prefix
//! sharing): served through shared, copy-on-write pages, every request's
//! token stream must equal its isolated `generate` run — across every
//! decode layout, under randomized ragged shared-prefix workloads, and
//! through mid-decode faults — while page admission fits strictly more
//! concurrent requests into a KV position budget than reserving each
//! request's worst case would.

use esti_core::layout::{AttnSharding, FfnLayout, GatherExtent, Layout, MeshFactors};
use esti_core::serving::Priority;
use esti_model::{ModelConfig, ReferenceModel};
use esti_runtime::{
    ContinuousBatcher, GenerateOptions, KvBackend, PartitionedEngine, ServeError, ServingOptions,
    ServingOutcome, ServingRequest, WeightFormat,
};
use esti_tensor::sample::Sampling;
use proptest::prelude::*;

/// Every decode layout shape the runtime implements, on four chips.
fn decode_layouts(attn: AttnSharding) -> Vec<Layout> {
    vec![
        Layout { ffn: FfnLayout::WeightStationary1D, attn, mesh: MeshFactors::new(1, 4, 1) },
        Layout { ffn: FfnLayout::WeightStationary2D, attn, mesh: MeshFactors::new(2, 2, 1) },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xyz),
            attn,
            mesh: MeshFactors::new(4, 1, 1),
        },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::X),
            attn,
            mesh: MeshFactors::new(2, 2, 1),
        },
        Layout {
            ffn: FfnLayout::WeightGathered(GatherExtent::Xy),
            attn,
            mesh: MeshFactors::new(2, 2, 1),
        },
    ]
}

/// A shared-prefix fleet: every prompt opens with the same `shared`-token
/// prefix (a system prompt) followed by a per-request unique tail.
fn shared_prefix_workload(
    n_req: usize,
    vocab: usize,
    shared: usize,
    unique: usize,
    max_new: usize,
) -> Vec<ServingRequest> {
    let prefix: Vec<usize> = (0..shared).map(|t| (11 + 13 * t) % vocab).collect();
    (0..n_req)
        .map(|i| {
            let mut prompt = prefix.clone();
            prompt.extend((0..unique).map(|t| (3 + 5 * i + 7 * t) % vocab));
            ServingRequest { prompt, max_new_tokens: max_new, seed: 900 + i as u64, arrival: 0.0, priority: Priority::Normal }
        })
        .collect()
}

/// Serve `requests` at an explicit KV page size (and optional position
/// budget) pinned into the scheduler.
fn serve_with(
    model: &ReferenceModel,
    layout: Layout,
    page_size: usize,
    budget: Option<usize>,
    cap: usize,
    requests: &[ServingRequest],
) -> ServingOutcome {
    let opts = ServingOptions {
        max_decode_batch: cap,
        sampling: Sampling::Greedy,
        kv_backend: Some(KvBackend::Paged { page_size }),
        kv_position_budget: budget,
        ..ServingOptions::default()
    };
    let mut batcher = ContinuousBatcher::new(model, layout, WeightFormat::Exact, opts);
    batcher.serve(requests)
}

/// Each request's stream when it runs alone through `generate` (padded to
/// the layout's minimum batch by replication, which leaves row 0 bitwise
/// unchanged). One page holds the whole row, so the oracle never crosses
/// a page boundary, shares a page, or copies one out.
fn isolated_streams(
    model: &ReferenceModel,
    layout: Layout,
    requests: &[ServingRequest],
) -> Vec<Vec<usize>> {
    let mut engine = PartitionedEngine::new(model, layout, WeightFormat::Exact);
    engine.set_kv_backend(KvBackend::Paged { page_size: model.config().max_seq });
    let pad = engine.min_batch();
    requests
        .iter()
        .map(|req| {
            let opts = GenerateOptions {
                max_new_tokens: req.max_new_tokens,
                seed: req.seed,
                ..GenerateOptions::default()
            };
            engine.generate(&vec![req.prompt.clone(); pad], &opts).swap_remove(0)
        })
        .collect()
}

/// The bit-identity check: the workload served through shared pages (at
/// an awkward page size) must reproduce every isolated stream.
fn check_paged_matches_isolated(model: &ReferenceModel, layout: Layout, page_size: usize) {
    let requests = shared_prefix_workload(6, model.config().vocab, 9, 3, 5);
    let probe = PartitionedEngine::new(model, layout, WeightFormat::Exact);
    let cap = probe.min_batch().max(2);
    let paged = serve_with(model, layout, page_size, None, cap, &requests);
    assert_eq!(
        paged.outputs,
        isolated_streams(model, layout, &requests),
        "{} page_size={page_size}: paged streams diverged from isolated generate",
        layout.describe()
    );
    // Sharing happens at page granularity, between rows of one chip's
    // pool: only prefixes spanning at least one full page can be mapped
    // into more than one block table, and only where a chip holds two or
    // more slots. Head-sharded weight-stationary layouts keep every slot
    // on every chip; the others split the cache by batch, and at this cap
    // each chip holds a single slot.
    let every_chip_holds_every_slot = layout.attn == AttnSharding::Head
        && matches!(layout.ffn, FfnLayout::WeightStationary1D | FfnLayout::WeightStationary2D);
    if page_size <= 9 && every_chip_holds_every_slot {
        assert!(
            paged.report.kv_pages_shared >= 1,
            "{}: shared prefixes must map shared pages",
            layout.describe()
        );
    }
}

#[test]
fn paged_matches_isolated_on_all_layouts_multiquery() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 21);
    for attn in [AttnSharding::Head, AttnSharding::Batch] {
        for layout in decode_layouts(attn) {
            check_paged_matches_isolated(&model, layout, 4);
        }
    }
}

#[test]
fn paged_matches_isolated_on_all_layouts_multihead() {
    // Batch-sharded attention requires multiquery; multihead covers the
    // head-sharded half of the matrix.
    let model = ReferenceModel::init_random(ModelConfig::tiny_multihead(), 22);
    for layout in decode_layouts(AttnSharding::Head) {
        check_paged_matches_isolated(&model, layout, 4);
    }
}

#[test]
fn page_size_never_changes_streams() {
    // Page-boundary stress: sizes that divide, straddle, and dwarf every
    // prompt in the workload, all bit-identical to the isolated runs.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 23);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    for page_size in [1, 2, 3, 8, 64] {
        check_paged_matches_isolated(&model, layout, page_size);
    }
}

#[test]
fn mid_decode_fault_replays_paged_state() {
    // A decode-tier crash mid-stream: the rebuilt engine re-admits every
    // live request through the shared-prefix path (block tables and
    // copy-on-write state rebuilt from scratch) and must still recover
    // bit-identical streams.
    use esti_collectives::FaultPlan;
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 24);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let requests = shared_prefix_workload(6, model.config().vocab, 9, 3, 5);
    let opts = ServingOptions {
        max_decode_batch: 4,
        sampling: Sampling::Greedy,
        kv_backend: Some(KvBackend::Paged { page_size: 4 }),
        kv_position_budget: Some(80),
        ..ServingOptions::default()
    };
    let baseline = {
        let mut b = ContinuousBatcher::new(&model, layout, WeightFormat::Exact, opts);
        b.serve(&requests)
    };
    assert_eq!(baseline.report.recovery.faults, 0);
    let mut chaotic = ContinuousBatcher::new(&model, layout, WeightFormat::Exact, opts);
    chaotic.schedule_decode_fault(2, FaultPlan::new().crash(1, 0));
    let outcome = chaotic.serve(&requests);
    assert_eq!(
        outcome.outputs, baseline.outputs,
        "recovered paged streams diverged from the fault-free run"
    );
    assert_eq!(outcome.report.recovery.faults, 1);
    assert!(outcome.report.recovery.requests_replayed >= 1);
    assert!(outcome.report.kv_pages_shared >= 1, "replay must re-share prefix pages");
}

#[test]
fn paged_fits_over_twice_the_concurrency_at_equal_kv_budget() {
    // The headline capacity claim, in miniature. 16 requests share a
    // 48-token prefix (6 eight-token pages) with 8 unique prompt tokens
    // and 8 generated; each needs 64 positions at worst case. Budget: 256
    // positions. Reserving the worst case per slot (a dense cache) fits
    // 256 / 64 = 4 concurrent. Paged admission charges the shared pages
    // once -> first request 8 pages, each subsequent 2, so 13 fit in the
    // same 32-page budget.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 25);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let requests = shared_prefix_workload(16, model.config().vocab, 48, 8, 8);
    let budget = 256;
    let dense_slots = budget / (48 + 8 + 8);
    let paged = serve_with(&model, layout, 8, Some(budget), 13, &requests);
    assert_eq!(
        paged.outputs,
        isolated_streams(&model, layout, &requests),
        "budgeted runs must still stream identically"
    );
    assert_eq!(paged.report.peak_decode_batch, 13, "paged fits the whole admissible fleet");
    assert!(
        paged.report.peak_decode_batch >= 2 * dense_slots,
        "capacity gate: paged {} vs dense {dense_slots}",
        paged.report.peak_decode_batch,
    );
    assert_eq!(paged.report.kv_pages_shared, 6, "the six shared prefix pages");
    assert_eq!(paged.report.kv_pages_free, 0, "the fleet fills the budget exactly");
}

#[test]
fn oversized_request_is_rejected_not_livelocked() {
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 26);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let requests = vec![ServingRequest::immediate((0..40).collect(), 8)];
    let opts = ServingOptions {
        max_decode_batch: 2,
        kv_backend: Some(KvBackend::Paged { page_size: 8 }),
        kv_position_budget: Some(16),
        ..ServingOptions::default()
    };
    let mut batcher = ContinuousBatcher::new(&model, layout, WeightFormat::Exact, opts);
    match batcher.try_serve(&requests) {
        Err(ServeError::KvBudgetExceeded { index: 0, needed, budget }) => {
            assert!(needed > budget, "{needed} must exceed {budget}");
        }
        other => panic!("expected KvBudgetExceeded, got {other:?}"),
    }
}

#[test]
fn shared_partial_pages_reserve_their_copy_outs() {
    // Four identical prompts of 6 tokens on 4-position pages share one
    // full page and one partial page. Each row's first decode write into
    // the shared partial page copies it out, except the last writer's; each
    // row then grows 1 page (9 cached positions = 3 pages). With k rows
    // live the pool owes 1 + 1 + (k − 1) + k pages; an 8-page budget with
    // one dummy page per idle slot admits 3 rows, and the pool peaks at
    // exactly 8 pages. Forgetting the owed copy-outs would admit all 4 and
    // overflow the pool at 9.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 29);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Head,
        mesh: MeshFactors::new(1, 4, 1),
    };
    let requests: Vec<ServingRequest> = (0..4)
        .map(|i| ServingRequest {
            seed: 70 + i,
            ..ServingRequest::immediate(vec![5, 9, 2, 7, 3, 1], 4)
        })
        .collect();
    let paged = serve_with(&model, layout, 4, Some(32), 4, &requests);
    assert_eq!(paged.outputs, isolated_streams(&model, layout, &requests));
    assert_eq!(paged.report.peak_decode_batch, 3);
    assert_eq!(paged.report.kv_pages_free, 0);
    assert_eq!(paged.report.kv_pages_shared, 2, "the full and the partial prompt page");
}

#[test]
fn batch_sharded_budget_charges_only_the_chip_holding_the_slot() {
    // Batch-sharded attention on 2 chips with 2 slots: slot 0's row lives
    // on chip 0, slot 1's on chip 1, so two requests with the same prefix
    // share no page. Each request (16 shared + 4 unique prompt tokens, 6
    // generated, 8-position pages) holds 3 prompt pages and may grow 1
    // more: 4 pages against a 5-page pool per chip. Charging one pool for
    // both chips would defer the second request (4 committed + 1 unshared
    // prompt page + 1 growth page > 5); per-chip pools admit both.
    let model = ReferenceModel::init_random(ModelConfig::tiny(), 28);
    let layout = Layout {
        ffn: FfnLayout::WeightStationary1D,
        attn: AttnSharding::Batch,
        mesh: MeshFactors::new(1, 2, 1),
    };
    let requests = shared_prefix_workload(4, model.config().vocab, 16, 4, 6);
    let paged = serve_with(&model, layout, 8, Some(40), 2, &requests);
    assert_eq!(paged.outputs, isolated_streams(&model, layout, &requests));
    assert_eq!(paged.report.peak_decode_batch, 2, "each chip's pool takes its own slot");
    assert_eq!(paged.report.kv_pages_shared, 0, "rows on different chips share no page");
    // The busiest chip peaks at 3 prompt pages + 1 growth page (the
    // unshared partial page is written in place): 1 of 5 pages stays free.
    assert_eq!(paged.report.kv_pages_free, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized ragged shared-prefix workloads: arbitrary page size,
    /// shared-prefix length (page-aligned or not), ragged unique tails and
    /// generation lengths — paged streams always match isolated
    /// `generate`, with copy-on-write exercised whenever the prefix
    /// straddles a page.
    #[test]
    fn cow_streams_match_isolated_under_random_ragged_workloads(
        page_size in 1usize..10,
        shared in 0usize..13,
        seed in 0u64..200,
        // Each code packs a (unique-tail length, max_new) pair.
        tail_codes in proptest::collection::vec(0usize..30, 3..7),
    ) {
        let model = ReferenceModel::init_random(ModelConfig::tiny(), 27);
        let layout = Layout {
            ffn: FfnLayout::WeightStationary1D,
            attn: AttnSharding::Head,
            mesh: MeshFactors::new(1, 4, 1),
        };
        let vocab = model.config().vocab;
        let prefix: Vec<usize> = (0..shared).map(|t| (5 + 3 * t) % vocab).collect();
        let requests: Vec<ServingRequest> = tail_codes
            .iter()
            .enumerate()
            .map(|(i, &code)| {
                let (unique, max_new) = (1 + code % 6, 2 + code / 6);
                let mut prompt = prefix.clone();
                prompt.extend((0..unique).map(|t| (seed as usize + 2 + 9 * i + t) % vocab));
                ServingRequest {
                    prompt,
                    max_new_tokens: max_new,
                    seed: seed + i as u64,
                    arrival: 0.0,
                    priority: Priority::Normal,
                }
            })
            .collect();
        let paged = serve_with(&model, layout, page_size, None, 3, &requests);
        prop_assert_eq!(
            paged.outputs,
            isolated_streams(&model, layout, &requests),
            "page_size {} shared {} diverged",
            page_size,
            shared
        );
    }
}
