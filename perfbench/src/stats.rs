//! Order statistics, SLO accounting and output digests.

/// Nearest-rank percentile: the smallest sample `v` such that at least
/// `p`% of the samples are `<= v`, i.e. the sorted sample at 1-based rank
/// `ceil(p/100 * n)` (`p = 0` gives the minimum). `None` on no samples.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or a sample is NaN.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// Nearest-rank median (see [`percentile`]).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Latency limits a request must meet to count toward SLO attainment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Time-to-first-token limit in seconds.
    pub ttft_s: f64,
    /// Time-per-output-token limit in seconds.
    pub tpot_s: f64,
}

/// What happened to one sent request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Served {
    /// Refused by admission control: a miss for every latency limit.
    Shed,
    /// Served to completion.
    Done {
        /// Seconds from its due time to its first token.
        ttft: f64,
        /// Mean seconds per output token after the first; `None` for a
        /// single-token response, which has no inter-token gap to limit.
        tpot: Option<f64>,
        /// Tokens generated.
        tokens: usize,
    },
}

impl Served {
    /// TTFT of a served request.
    #[must_use]
    pub fn ttft(&self) -> Option<f64> {
        match *self {
            Served::Shed => None,
            Served::Done { ttft, .. } => Some(ttft),
        }
    }

    /// TPOT of a served request with at least two tokens.
    #[must_use]
    pub fn tpot(&self) -> Option<f64> {
        match *self {
            Served::Shed => None,
            Served::Done { tpot, .. } => tpot,
        }
    }

    /// Whether the request met both limits of `slo`. A shed request never
    /// does.
    #[must_use]
    pub fn meets(&self, slo: Slo) -> bool {
        match *self {
            Served::Shed => false,
            Served::Done { ttft, tpot, .. } => {
                ttft <= slo.ttft_s && tpot.is_none_or(|t| t <= slo.tpot_s)
            }
        }
    }
}

/// SLO outcome of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSummary {
    /// Share of sent requests that met both limits (sheds count as misses).
    pub attainment: f64,
    /// Tokens per second generated by requests that met both limits.
    pub goodput_tok_s: f64,
}

/// SLO attainment and goodput over `requests`, with goodput measured over
/// a window of `window_s` seconds.
///
/// # Panics
///
/// Panics if `requests` is empty or `window_s` is not positive.
#[must_use]
pub fn slo_summary(requests: &[Served], slo: Slo, window_s: f64) -> SloSummary {
    assert!(!requests.is_empty(), "no requests sent");
    assert!(window_s > 0.0, "measurement window must be positive");
    let (met, good_tokens) =
        requests
            .iter()
            .filter(|r| r.meets(slo))
            .fold((0usize, 0usize), |(n, t), r| match r {
                Served::Done { tokens, .. } => (n + 1, t + tokens),
                Served::Shed => (n, t),
            });
    SloSummary {
        attainment: met as f64 / requests.len() as f64,
        goodput_tok_s: good_tokens as f64 / window_s,
    }
}

/// Times of one served request on the serving clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timeline {
    /// Due time.
    pub arrival: f64,
    /// End of its prefill (its first token).
    pub prefilled: f64,
    /// Its last token.
    pub finished: f64,
}

/// Requests the scheduler deferred with free slots, inferred from their
/// timelines: request `i` counts when some request finished while `i` was
/// still waiting, at the end of a decode step that began after `i` arrived
/// (`finished > arrival + step_max`), with fewer than `slots` requests live
/// and no other prefill between `i`'s arrival and that finish. Decode steps
/// run only between admission passes, so such a step means an admission
/// pass declined `i` although a slot was free: the KV page budget held it
/// back.
#[must_use]
pub fn inferred_deferrals(reqs: &[Timeline], step_max: f64, slots: usize) -> usize {
    let live_before = |t: f64| {
        reqs.iter()
            .filter(|r| r.prefilled < t && t <= r.finished)
            .count()
    };
    (0..reqs.len())
        .filter(|&i| {
            let me = reqs[i];
            reqs.iter().enumerate().any(|(j, other)| {
                let t = other.finished;
                j != i
                    && t > me.arrival + step_max
                    && t < me.prefilled
                    && live_before(t) < slots
                    && !reqs
                        .iter()
                        .enumerate()
                        .any(|(k, r)| k != i && r.prefilled > me.arrival && r.prefilled < t)
            })
        })
        .count()
}

/// FNV-1a 64-bit hash of one token stream, length-prefixed so that
/// concatenations of different streams cannot collide trivially.
#[must_use]
pub fn stream_hash(tokens: &[usize]) -> u64 {
    let mut h = Fnv::new();
    h.word(tokens.len() as u64);
    for &t in tokens {
        h.word(t as u64);
    }
    h.0
}

/// Order-sensitive digest of many stream hashes.
#[must_use]
pub fn digest(hashes: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for &x in hashes {
        h.word(x);
    }
    h.0
}

/// FNV-1a over 64-bit words.
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes the 8 little-endian bytes of `w`.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Mixes `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}
