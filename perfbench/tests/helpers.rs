//! Tests of the benchmark's own helpers: percentiles, SLO accounting,
//! request generation, span self time, deferral inference and run records.

use esti_core::serving::Priority;
use perfbench::host::{knobs_set, Records};
use perfbench::spans::{self_time, self_times_by_name, Span, Tracer};
use perfbench::stats::{
    inferred_deferrals, median, percentile, slo_summary, stream_hash, Served, Slo, Timeline,
};
use perfbench::workload::{
    offline_batches, requests, Workload, BURST_S, PAIR_EVERY, PAIR_GAP, PREFIXES, PREFIX_LEN,
};

#[test]
fn nearest_rank_percentile() {
    let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&v, 10.0), Some(1.0));
    assert_eq!(percentile(&v, 11.0), Some(2.0));
    assert_eq!(percentile(&v, 50.0), Some(5.0));
    assert_eq!(percentile(&v, 90.0), Some(9.0));
    assert_eq!(percentile(&v, 99.0), Some(10.0));
    assert_eq!(percentile(&v, 100.0), Some(10.0));
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[2.0, 1.0]), Some(1.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
#[should_panic(expected = "out of range")]
fn percentile_rejects_out_of_range() {
    let _ = percentile(&[1.0], 101.0);
}

#[test]
fn slo_counts_sheds_as_misses_and_goodput_only_met_requests() {
    let slo = Slo {
        ttft_s: 1.0,
        tpot_s: 0.1,
    };
    let reqs = [
        Served::Done {
            ttft: 0.5,
            tpot: Some(0.05),
            tokens: 10,
        }, // meets both
        Served::Done {
            ttft: 1.5,
            tpot: Some(0.05),
            tokens: 20,
        }, // late first token
        Served::Done {
            ttft: 0.5,
            tpot: Some(0.2),
            tokens: 40,
        }, // slow stream
        Served::Done {
            ttft: 1.0,
            tpot: None,
            tokens: 1,
        }, // one token, at the limit
        Served::Shed,
    ];
    let s = slo_summary(&reqs, slo, 2.0);
    assert!((s.attainment - 2.0 / 5.0).abs() < 1e-12);
    assert!((s.goodput_tok_s - 11.0 / 2.0).abs() < 1e-12);
    assert!(!Served::Shed.meets(Slo {
        ttft_s: f64::INFINITY,
        tpot_s: f64::INFINITY
    }));
    let all_shed = slo_summary(&[Served::Shed, Served::Shed], slo, 1.0);
    assert_eq!((all_shed.attainment, all_shed.goodput_tok_s), (0.0, 0.0));
}

#[test]
fn stream_hash_separates_streams() {
    assert_eq!(stream_hash(&[1, 2, 3]), stream_hash(&[1, 2, 3]));
    assert_ne!(stream_hash(&[1, 2, 3]), stream_hash(&[1, 2]));
    assert_ne!(stream_hash(&[1, 2]), stream_hash(&[2, 1]));
}

fn key(w: Workload, seed: u64) -> Vec<(Vec<usize>, usize, u64, Priority)> {
    requests(w, seed, 6.0)
        .into_iter()
        .map(|r| (r.prompt, r.max_new_tokens, r.arrival.to_bits(), r.priority))
        .collect()
}

#[test]
fn request_generation_is_deterministic_per_seed() {
    for w in [Workload::Chat, Workload::LongPrefix, Workload::Overload] {
        assert_eq!(key(w, 5), key(w, 5), "{}", w.name());
        assert_ne!(key(w, 5), key(w, 6), "{}", w.name());
        let reqs = requests(w, 5, 6.0);
        assert!(reqs.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        assert!(reqs.iter().all(|r| (0.0..6.0).contains(&r.arrival)));
        assert!(reqs
            .iter()
            .all(|r| !r.prompt.is_empty() && r.max_new_tokens >= 1));
        assert!(reqs
            .iter()
            .all(|r| r.prompt.len() + r.max_new_tokens <= 1024));
    }
    assert_eq!(offline_batches(5, 2), offline_batches(5, 2));
    assert_ne!(offline_batches(5, 1), offline_batches(6, 1));
}

#[test]
fn workloads_have_their_shapes() {
    let chat = requests(Workload::Chat, 9, 10.0);
    assert_eq!(chat.len(), 80, "fixed count: rate x seconds");
    assert!(chat.iter().all(|r| r.priority == Priority::Normal));

    let lp = requests(Workload::LongPrefix, 9, 10.0);
    let mut prefixes: Vec<&[usize]> = lp.iter().map(|r| &r.prompt[..PREFIX_LEN]).collect();
    prefixes.sort();
    prefixes.dedup();
    assert!(prefixes.len() <= PREFIXES && prefixes.len() > 1);
    assert!(lp
        .iter()
        .all(|r| (PREFIX_LEN + 8..=PREFIX_LEN + 32).contains(&r.prompt.len())));
    // Evenly spaced, except that every PAIR_EVERY-th request follows its
    // predecessor closely.
    for (i, pair) in lp.windows(2).enumerate() {
        let gap = pair[1].arrival - pair[0].arrival;
        if (i + 2) % PAIR_EVERY == 0 {
            assert!(
                (gap - PAIR_GAP).abs() < 1e-9,
                "request {}: gap {gap}",
                i + 1
            );
        } else {
            assert!(gap > 2.0 * PAIR_GAP, "request {}: gap {gap}", i + 1);
        }
    }

    let ov = requests(Workload::Overload, 9, 12.0);
    let high = ov.iter().filter(|r| r.priority == Priority::High).count() as f64;
    let low = ov.iter().filter(|r| r.priority == Priority::Low).count() as f64;
    let n = ov.len() as f64;
    assert!((0.04..0.2).contains(&(high / n)), "{high} of {n} high");
    assert!((0.15..0.45).contains(&(low / n)), "{low} of {n} low");
    // The run opens with a burst, followed by a calm period.
    let burst = ov.iter().filter(|r| r.arrival < BURST_S).count();
    let calm = ov
        .iter()
        .filter(|r| (BURST_S..2.0 * BURST_S).contains(&r.arrival))
        .count();
    assert!(burst > 3 * calm, "burst {burst} calm {calm}");
}

fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
    Span {
        name: name.to_owned(),
        start,
        end,
        parent,
        request: None,
        counts: Vec::new(),
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = vec![
        span("serve", 0.0, 10.0, None),
        span("req", 1.0, 3.0, Some(0)),
        span("req", 2.0, 5.0, Some(0)), // overlaps the first child
        span("req", 7.0, 8.0, Some(0)),
        span("step", 7.2, 7.4, Some(3)), // grandchild: not subtracted from serve
        span("req", 9.5, 12.0, Some(0)), // clipped to the parent's end
    ];
    assert!((self_time(&spans, 0) - (10.0 - 4.0 - 1.0 - 0.5)).abs() < 1e-12);
    assert!((self_time(&spans, 3) - 0.8).abs() < 1e-12);
    assert!((self_time(&spans, 4) - 0.2).abs() < 1e-12);
    let by_name = self_times_by_name(&spans);
    assert_eq!(
        by_name
            .iter()
            .map(|(n, _, c)| (n.as_str(), *c))
            .collect::<Vec<_>>(),
        [("req", 4), ("serve", 1), ("step", 1)]
    );
}

#[test]
fn tracer_nests_spans_and_costs_nothing_when_off() {
    let mut tr = Tracer::new(true);
    let outer = tr.begin("outer", None);
    let ((), _) = tr.time("inner", Some(7), || ());
    tr.end(outer, &[("n", 2.0)]);
    let s = tr.spans();
    assert_eq!(s.len(), 2);
    assert_eq!((s[1].parent, s[1].request), (Some(0), Some(7)));
    assert_eq!(s[0].counts, vec![("n".to_owned(), 2.0)]);
    assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    assert!(tr.to_json().contains("\"name\": \"inner\""));

    let mut off = Tracer::new(false);
    let id = off.begin("outer", None);
    let (v, secs) = off.time("inner", None, || 3);
    off.end(id, &[]);
    assert_eq!(v, 3);
    assert!(secs >= 0.0);
    assert!(off.spans().is_empty());
}

#[test]
fn knob_hygiene_names_every_set_knob() {
    let env = |k: &str| (k != "ESTI_KV_PAGE_SIZE").then(|| "1".to_owned());
    assert_eq!(knobs_set(env), ["ESTI_CHIP_THREADS", "ESTI_DISABLE_SIMD"]);
    assert!(knobs_set(|_| None).is_empty());
}

fn tl(arrival: f64, prefilled: f64, finished: f64) -> Timeline {
    Timeline {
        arrival,
        prefilled,
        finished,
    }
}

#[test]
fn deferral_is_inferred_from_a_wait_across_a_finish() {
    let step = 0.01;
    // Request 1 arrives while 0 decodes and is admitted only after 0
    // finishes a second later: deferred with 7 of 8 slots free.
    let held = [tl(0.0, 0.1, 1.0), tl(0.2, 1.1, 1.5)];
    assert_eq!(inferred_deferrals(&held, step, 8), 1);
    // The finish lands inside the step in flight at arrival: not deferred.
    let in_flight = [tl(0.0, 0.1, 0.205), tl(0.2, 0.3, 0.6)];
    assert_eq!(inferred_deferrals(&in_flight, step, 8), 0);
    // Waiting behind another request's prefill is not a deferral.
    let behind = [tl(0.0, 0.1, 0.5), tl(0.15, 0.3, 0.9), tl(0.2, 0.6, 1.0)];
    assert_eq!(inferred_deferrals(&behind, step, 8), 0);
    // Every slot full: a slot wait, not a page-budget deferral.
    assert_eq!(inferred_deferrals(&held, step, 1), 0);
}

#[test]
fn records_are_kept_per_commit() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("records");
    let _ = std::fs::remove_dir_all(&dir);
    let a = Records::new(&dir, "aaa");
    let b = Records::new(&dir, "bbb");
    assert_eq!(a.remember("r", "k", "1").unwrap(), None);
    assert_eq!(a.remember("r", "k", "2").unwrap(), Some("1".to_owned()));
    assert_eq!(b.remember("r", "k", "3").unwrap(), None, "another commit");
    a.store("e", "k", "x").unwrap();
    a.store("e", "k", "y").unwrap();
    b.store("e", "k", "z").unwrap();
    assert_eq!(a.recall("e", "k").as_deref(), Some("y"), "latest wins");
    assert_eq!(b.recall("e", "k").as_deref(), Some("z"));
    std::fs::remove_dir_all(&dir).unwrap();
}
