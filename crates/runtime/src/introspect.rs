//! Machine-readable descriptions of the runtime's execution conventions,
//! exported for the static analyzer.
//!
//! `esti-verify`'s quant-dataflow pass checks schedules against what the
//! overlapped executor *actually does* with quantized weight streams — which
//! matrices gather along which dimension, and where each stream applies its
//! per-column scales. Encoding those conventions here, next to the code
//! that implements them (the overlap module's `looped_wg_cols` /
//! `looped_wg_rows` and the engine's monolithic `gather_layer`), keeps the
//! analyzer and the runtime from drifting apart silently: a new weight
//! stream must be added to this table to be verified, and the quant pass
//! rejects schedules whose streams it cannot find.

use esti_core::perf::Phase;
use esti_core::schedule::WireFormat;
use esti_hal::DType;

use crate::engine::{ExecMode, PartitionedEngine};
use crate::planner::ExecPlan;
use crate::shard::WeightFormat;

/// Where a quantized stream applies its per-column scales.
///
/// Section 3.6 keeps weights quantized on the wire; the f32 scales must be
/// applied exactly once per output column. The two safe disciplines differ
/// by gather dimension:
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleDiscipline {
    /// Column-gathered streams (`dim == 1`): every arriving slice owns its
    /// output columns outright, so its scales are applied on arrival
    /// (`matmul_into_cols`), once per column — chunk count does not matter.
    PerSlice,
    /// Row-gathered streams (`dim == 0`): slices contribute *partial sums*
    /// to every output column, so per-slice scaling would apply a column's
    /// scale once per chunk. The runtime accumulates unscaled integer
    /// partials and applies each rank's scales exactly once after the fold
    /// (`apply_scales` before `sum_ranks`).
    AfterFold,
}

/// One weight all-gather stream of the weight-gathered dataflow.
#[derive(Clone, Copy, Debug)]
pub struct WgStream {
    /// Schedule step label (`esti-core`'s weight all-gather labels).
    pub label: &'static str,
    /// Gather dimension of the stored shard (0 = rows, 1 = columns).
    pub dim: usize,
    /// Scale discipline the executor uses for this stream when quantized.
    pub discipline: ScaleDiscipline,
}

/// The weight streams the weight-gathered executor moves per layer, with
/// the gather dimension and scale discipline each uses.
///
/// Must stay in lockstep with `looped_wg_cols`/`looped_wg_rows` (chunked)
/// and `gather_layer` (monolithic): `wq`/`wk`/`wv`/`w_in`/`w_gate` are
/// column-sharded and gather along dim 1; `wo`/`w_out` are row-sharded and
/// gather along dim 0.
#[must_use]
pub fn wg_stream_plan() -> [WgStream; 7] {
    use ScaleDiscipline::{AfterFold, PerSlice};
    [
        WgStream { label: "wq weight all-gather", dim: 1, discipline: PerSlice },
        WgStream { label: "wk weight all-gather", dim: 1, discipline: PerSlice },
        WgStream { label: "wv weight all-gather", dim: 1, discipline: PerSlice },
        WgStream { label: "wo weight all-gather", dim: 0, discipline: AfterFold },
        WgStream { label: "w_in weight all-gather", dim: 1, discipline: PerSlice },
        WgStream { label: "w_gate weight all-gather", dim: 1, discipline: PerSlice },
        WgStream { label: "w_out weight all-gather", dim: 0, discipline: AfterFold },
    ]
}

/// The wire format the engine's weight gathers use for a storage format:
/// int8 weights move quantized (values + per-column scales); every other
/// format gathers dense tensors.
#[must_use]
pub fn weight_wire_format(fmt: WeightFormat) -> WireFormat {
    match fmt {
        WeightFormat::Int8 => WireFormat::Int8,
        WeightFormat::Exact | WeightFormat::Bf16 => WireFormat::Dense,
    }
}

/// Renders an engine's planner decision ledger as JSON, one object per
/// planned forward shape with every candidate's predicted cost — the
/// auditable record of *why* the engine runs the mode it runs. Stable
/// machine-readable keys; append-only like the other conventions here.
///
/// # Examples
///
/// ```
/// use esti_core::planner::decode_layout;
/// use esti_core::Machine;
/// use esti_model::{ModelConfig, ReferenceModel};
/// use esti_runtime::{plan_ledger_json, PartitionedEngine, WeightFormat};
///
/// let model = ReferenceModel::init_random(ModelConfig::tiny(), 0);
/// let machine = Machine::tpu_v4_slice(4).unwrap();
/// let layout = decode_layout(model.config(), &machine);
/// let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
/// let _ = engine.prefill(&[vec![1, 2], vec![3, 4], vec![5, 6], vec![7, 8]]);
/// let json = plan_ledger_json(engine.exec_plan());
/// assert!(json.contains("\"phase\": \"prefill\""));
/// ```
#[must_use]
pub fn plan_ledger_json(plan: &ExecPlan) -> String {
    let mut out = String::from("[\n");
    for (i, d) in plan.decisions.iter().enumerate() {
        let phase = match d.phase {
            Phase::Prefill => "prefill",
            Phase::Decode => "decode",
        };
        let (mode, chunks) = match d.chosen {
            ExecMode::Monolithic => ("monolithic", 1),
            ExecMode::Overlapped { chunks } => ("overlapped", chunks),
        };
        let dtype = match d.dtype {
            DType::F32 => "f32",
            DType::Bf16 => "bf16",
            DType::Int8 => "int8",
        };
        out.push_str(&format!(
            "  {{\"phase\": \"{phase}\", \"batch\": {}, \"tokens\": {}, \
             \"dtype\": \"{dtype}\", \
             \"chosen\": {{\"mode\": \"{mode}\", \"chunks\": {chunks}}}, \"candidates\": [",
            d.batch, d.tokens
        ));
        for (j, c) in d.candidates.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"chunks\": {}, \"predicted_us\": {:.3}, \"blocked_us\": {:.3}, \
                 \"hidden_fraction\": {:.4}}}",
                c.chunks, c.predicted_us, c.blocked_us, c.hidden_fraction
            ));
        }
        out.push_str("]}");
        if i + 1 < plan.decisions.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// One JSON object describing the busiest chip shard's KV page pool:
/// page size, allocation high-water mark, live/free split, and how many
/// live pages are mapped by more than one slot (copy-on-write prompt
/// sharing).
///
/// # Examples
///
/// ```
/// use esti_core::planner::decode_layout;
/// use esti_core::Machine;
/// use esti_model::{ModelConfig, ReferenceModel};
/// use esti_runtime::{kv_cache_json, KvBackend, PartitionedEngine, WeightFormat};
///
/// let model = ReferenceModel::init_random(ModelConfig::tiny(), 0);
/// let machine = Machine::tpu_v4_slice(4).unwrap();
/// let layout = decode_layout(model.config(), &machine);
/// let mut engine = PartitionedEngine::new(&model, layout, WeightFormat::Exact);
/// engine.set_kv_backend(KvBackend::Paged { page_size: 8 });
/// assert!(kv_cache_json(&engine).contains("\"backend\": \"paged\""));
/// ```
#[must_use]
pub fn kv_cache_json(engine: &PartitionedEngine) -> String {
    let s = engine.kv_page_stats().unwrap_or_default();
    format!(
        "{{\"backend\": \"paged\", \"page_size\": {}, \"pages_allocated\": {}, \
         \"pages_live\": {}, \"pages_free\": {}, \"pages_shared\": {}}}",
        s.page_size, s.pages_allocated, s.pages_live, s.pages_free, s.pages_shared
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wg_plan_covers_each_stream_once_with_consistent_discipline() {
        let plan = wg_stream_plan();
        let mut seen = std::collections::HashSet::new();
        for s in plan {
            assert!(seen.insert(s.label), "duplicate stream {}", s.label);
            assert!(s.label.ends_with("weight all-gather"), "{}", s.label);
            // The discipline is forced by the gather dimension (see the
            // ScaleDiscipline docs): columns scale per slice, rows after
            // the fold.
            match s.dim {
                1 => assert_eq!(s.discipline, ScaleDiscipline::PerSlice, "{}", s.label),
                0 => assert_eq!(s.discipline, ScaleDiscipline::AfterFold, "{}", s.label),
                d => panic!("{}: quantized shards are rank-2, got dim {d}", s.label),
            }
        }
    }

    #[test]
    fn plan_ledger_renders_every_decision_and_candidate() {
        use crate::planner::{CandidateCost, PlanDecision};
        let plan = ExecPlan {
            decisions: vec![PlanDecision {
                phase: Phase::Decode,
                batch: 64,
                tokens: 1,
                dtype: DType::Int8,
                chosen: ExecMode::Overlapped { chunks: 4 },
                candidates: vec![
                    CandidateCost {
                        chunks: 1,
                        predicted_us: 100.0,
                        blocked_us: 80.0,
                        hidden_fraction: 0.0,
                    },
                    CandidateCost {
                        chunks: 4,
                        predicted_us: 60.0,
                        blocked_us: 30.0,
                        hidden_fraction: 0.625,
                    },
                ],
            }],
        };
        let json = plan_ledger_json(&plan);
        assert!(json.contains("\"phase\": \"decode\""), "{json}");
        assert!(json.contains("\"dtype\": \"int8\""), "{json}");
        assert!(json.contains("\"mode\": \"overlapped\", \"chunks\": 4"), "{json}");
        assert!(json.contains("\"hidden_fraction\": 0.6250"), "{json}");
        // Two candidate rows rendered.
        assert_eq!(json.matches("\"predicted_us\"").count(), 2, "{json}");
    }

    #[test]
    fn only_int8_is_quantized_on_the_wire() {
        assert_eq!(weight_wire_format(WeightFormat::Int8), WireFormat::Int8);
        assert_eq!(weight_wire_format(WeightFormat::Exact), WireFormat::Dense);
        assert_eq!(weight_wire_format(WeightFormat::Bf16), WireFormat::Dense);
    }
}
