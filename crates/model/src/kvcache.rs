//! The attention key/value cache.
//!
//! The KV cache is the second-largest tensor group in generative inference
//! (Section 2, "Memory costs"): keys and values of every layer must persist
//! for the whole decode. Two storage backends live behind one API:
//!
//! * **Slab** ([`KvCache::new`]): preallocated `[B, capacity, Hkv·d_head]`
//!   slabs per layer with a valid length per batch row, so decode steps
//!   write in place (amortized O(1) per token instead of rebuilding the
//!   whole cache via concat). It is the cache of the single-chip
//!   [`ReferenceModel`](crate::ReferenceModel) only — the independent
//!   oracle the partitioned runtime is checked against.
//! * **Paged** ([`KvCache::paged`]): the runtime's one KV store. A global
//!   pool of fixed-size pages (`page_size` positions each, holding every
//!   layer's K and V for those positions) addressed through a per-row
//!   block table. Pages are refcounted: [`KvCache::insert_row_shared`]
//!   maps prompt-prefix pages already resident (keyed by the exact token
//!   prefix they cache) instead of rewriting them, and any in-place write
//!   to a page referenced by more than one row first copies it out
//!   (copy-on-write). Eviction is page-granular: a shared page returns to
//!   the free list only when its last reference drops.
//!
//! Determinism makes prefix sharing exact rather than approximate: causal
//! attention means K/V at position `p` depend only on tokens `0..=p`, and
//! every kernel in this workspace is bit-deterministic, so a page keyed by
//! a token prefix holds *bitwise* the same values any other request with
//! that prefix would have written. Skipping the write on a registry hit is
//! therefore invisible in the token streams (proven by the paged
//! conformance suite).

use std::collections::HashMap;

use esti_tensor::Tensor;

/// One layer's key/value slab: `k`/`v` are `[B, capacity, D]` buffers of
/// which row `r` holds `lens[r]` valid positions (the rest is scratch).
#[derive(Debug, Clone)]
struct Entry {
    k: Tensor,
    v: Tensor,
    lens: Vec<usize>,
}

impl Entry {
    fn capacity(&self) -> usize {
        self.k.dim(1)
    }

    fn width(&self) -> usize {
        self.k.dim(2)
    }

    fn batch(&self) -> usize {
        self.k.dim(0)
    }

    /// Grows both slabs to at least `need` positions per row, copying the
    /// valid prefixes. Doubles the current capacity so repeated one-token
    /// appends stay amortized O(1).
    fn ensure_capacity(&mut self, need: usize) {
        let cap = self.capacity();
        if need <= cap {
            return;
        }
        let new_cap = need.max(cap * 2);
        let (b, d) = (self.batch(), self.width());
        let mut k = Tensor::zeros(vec![b, new_cap, d]);
        let mut v = Tensor::zeros(vec![b, new_cap, d]);
        for (r, &len) in self.lens.iter().enumerate() {
            let src = r * cap * d;
            let dst = r * new_cap * d;
            k.data_mut()[dst..dst + len * d].copy_from_slice(&self.k.data()[src..src + len * d]);
            v.data_mut()[dst..dst + len * d].copy_from_slice(&self.v.data()[src..src + len * d]);
        }
        self.k = k;
        self.v = v;
    }

    /// Writes `l` positions into row `r` starting at offset `at`.
    /// `k_src`/`v_src` are contiguous `[l * D]` slices.
    fn write_row(&mut self, r: usize, at: usize, k_src: &[f32], v_src: &[f32]) {
        let (cap, d) = (self.capacity(), self.width());
        let off = (r * cap + at) * d;
        self.k.data_mut()[off..off + k_src.len()].copy_from_slice(k_src);
        self.v.data_mut()[off..off + v_src.len()].copy_from_slice(v_src);
    }
}

/// One pool page: `page_size` positions of K and V for *every* layer
/// (`k[layer]`/`v[layer]` are `page_size · width` scratch-initialized
/// buffers). Keeping all layers in one page means block tables, refcounts,
/// and prefix keys exist once per page rather than once per layer.
#[derive(Debug, Clone)]
struct Page {
    k: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Page {
    fn new(n_layers: usize, elems: usize) -> Self {
        Page { k: vec![vec![0.0; elems]; n_layers], v: vec![vec![0.0; elems]; n_layers] }
    }
}

/// Pool occupancy counters for the paged backend (see
/// [`KvCache::page_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageStats {
    /// Positions per page.
    pub page_size: usize,
    /// Pages ever allocated (live + free-listed).
    pub pages_allocated: usize,
    /// Pages currently referenced by at least one row.
    pub pages_live: usize,
    /// Pages on the free list, reusable without allocation.
    pub pages_free: usize,
    /// Live pages referenced by more than one row (shared prefixes).
    pub pages_shared: usize,
}

/// The paged backend: pool + refcounts + prefix registry + block tables.
#[derive(Debug, Clone)]
struct Paged {
    n_layers: usize,
    page_size: usize,
    /// Feature width `Hkv·d_head`, fixed by the first write.
    width: Option<usize>,
    /// Batch rows, fixed by the first write.
    batch: Option<usize>,
    pages: Vec<Page>,
    refs: Vec<usize>,
    /// The token prefix a page caches, when it was admitted via
    /// [`KvCache::insert_row_shared`] and is still bit-exact for that
    /// prefix (cleared on any in-place write).
    keys: Vec<Option<Vec<usize>>>,
    free: Vec<usize>,
    /// Exact token prefix → page id. A key of length `e` always maps the
    /// page covering positions `(⌈e/S⌉−1)·S .. e`, so keys double as page
    /// indices.
    registry: HashMap<Vec<usize>, usize>,
    /// Per-row block table: `tables[r][i]` is the page holding positions
    /// `i·S .. (i+1)·S` of row `r`.
    tables: Vec<Vec<usize>>,
    /// Valid positions per layer per row (`lens[layer][row]`); layers
    /// disagree transiently inside one forward pass, exactly like the
    /// slab's per-layer `lens`.
    lens: Vec<Vec<usize>>,
}

impl Paged {
    fn new(n_layers: usize, page_size: usize) -> Self {
        assert!(page_size > 0, "page_size must be positive");
        Paged {
            n_layers,
            page_size,
            width: None,
            batch: None,
            pages: Vec::new(),
            refs: Vec::new(),
            keys: Vec::new(),
            free: Vec::new(),
            registry: HashMap::new(),
            tables: Vec::new(),
            lens: vec![Vec::new(); n_layers],
        }
    }

    fn ensure_shape(&mut self, batch: usize, width: usize) {
        match self.batch {
            None => {
                self.batch = Some(batch);
                self.tables = vec![Vec::new(); batch];
                for l in &mut self.lens {
                    *l = vec![0; batch];
                }
            }
            Some(b) => assert_eq!(b, batch, "batch dim disagrees with cached contents"),
        }
        match self.width {
            None => self.width = Some(width),
            Some(w) => assert_eq!(w, width, "feature dim disagrees with cached contents"),
        }
    }

    /// Pops a free page or grows the pool; the page starts private
    /// (refcount 1, no key).
    fn alloc_page(&mut self) -> usize {
        // Vetted: width is set by every caller via ensure_shape before
        // any page can be allocated.
        #[allow(clippy::expect_used)]
        let elems = self.page_size * self.width.expect("width fixed before allocation");
        if let Some(id) = self.free.pop() {
            self.refs[id] = 1;
            self.keys[id] = None;
            id
        } else {
            self.pages.push(Page::new(self.n_layers, elems));
            self.refs.push(1);
            self.keys.push(None);
            self.pages.len() - 1
        }
    }

    /// Drops one reference; the last reference deregisters the page's
    /// prefix key and returns it to the free list.
    fn unref_page(&mut self, id: usize) {
        assert!(self.refs[id] > 0, "page {id} double-freed");
        self.refs[id] -= 1;
        if self.refs[id] == 0 {
            if let Some(key) = self.keys[id].take() {
                self.registry.remove(&key);
            }
            self.free.push(id);
        }
    }

    /// Grows row `r`'s block table until it covers `need` positions.
    fn ensure_pages(&mut self, r: usize, need: usize) {
        while self.tables[r].len() * self.page_size < need {
            let id = self.alloc_page();
            self.tables[r].push(id);
        }
    }

    /// Makes page index `pi` of row `r` safely writable and returns its
    /// page id: a page shared with other rows is copied out first
    /// (copy-on-write; the original keeps its key and remaining refs), and
    /// a private page's prefix key is deregistered because the write is
    /// about to invalidate it.
    fn prepare_write(&mut self, r: usize, pi: usize) -> usize {
        let pid = self.tables[r][pi];
        if self.refs[pid] > 1 {
            let nid = self.alloc_page();
            self.pages[nid] = self.pages[pid].clone();
            self.refs[pid] -= 1;
            self.tables[r][pi] = nid;
            nid
        } else {
            if let Some(key) = self.keys[pid].take() {
                self.registry.remove(&key);
            }
            pid
        }
    }

    /// Writes `len·d` contiguous values per tensor into row `r` starting at
    /// position `at`, allocating / copying-out pages as needed.
    fn write_span(&mut self, layer: usize, r: usize, at: usize, k_src: &[f32], v_src: &[f32]) {
        // Vetted: callers fix the width before any span write.
        #[allow(clippy::expect_used)]
        let d = self.width.expect("width fixed before write");
        let s = self.page_size;
        let len = k_src.len() / d;
        self.ensure_pages(r, at + len);
        let mut p = 0; // positions written so far
        while p < len {
            let pos = at + p;
            let (pi, off) = (pos / s, pos % s);
            let run = (s - off).min(len - p);
            let pid = self.prepare_write(r, pi);
            let dst = off * d..(off + run) * d;
            let src = p * d..(p + run) * d;
            self.pages[pid].k[layer][dst.clone()].copy_from_slice(&k_src[src.clone()]);
            self.pages[pid].v[layer][dst].copy_from_slice(&v_src[src]);
            p += run;
        }
    }

    fn max_len(&self, layer: usize) -> usize {
        self.lens[layer].iter().copied().max().unwrap_or(0)
    }
}

/// Per-layer key/value storage for a batch of sequences (slab or paged
/// backend; see the module docs).
///
/// # Examples
///
/// ```
/// use esti_model::KvCache;
/// use esti_tensor::Tensor;
///
/// let mut cache = KvCache::new(1);
/// cache.append(0, &Tensor::zeros(vec![2, 3, 8]), &Tensor::zeros(vec![2, 3, 8]));
/// assert_eq!(cache.len(), 3);
/// cache.append(0, &Tensor::zeros(vec![2, 1, 8]), &Tensor::zeros(vec![2, 1, 8]));
/// assert_eq!(cache.len(), 4);
/// ```
#[derive(Debug, Clone)]
enum Backend {
    Slab(Vec<Option<Entry>>),
    // Boxed: the paged bookkeeping is much larger than a slab's Vec header
    // and would otherwise bloat every slab-backed cache.
    Paged(Box<Paged>),
}

/// See the module documentation; constructed via [`KvCache::new`] (slab)
/// or [`KvCache::paged`].
#[derive(Debug, Clone)]
pub struct KvCache {
    backend: Backend,
    n_layers: usize,
    /// Minimum per-row capacity for new or growing slabs, set by
    /// [`KvCache::reserve`] so a known decode horizon allocates once.
    /// Advisory for the paged backend (pages allocate on demand).
    reserve_hint: usize,
}

impl Default for KvCache {
    fn default() -> Self {
        KvCache::new(0)
    }
}

impl KvCache {
    /// Creates an empty slab-backed cache for a model with `n_layers`
    /// layers.
    #[must_use]
    pub fn new(n_layers: usize) -> Self {
        KvCache { backend: Backend::Slab(vec![None; n_layers]), n_layers, reserve_hint: 0 }
    }

    /// Creates an empty page-pool-backed cache (`page_size` positions per
    /// page) for a model with `n_layers` layers.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    #[must_use]
    pub fn paged(n_layers: usize, page_size: usize) -> Self {
        KvCache {
            backend: Backend::Paged(Box::new(Paged::new(n_layers, page_size))),
            n_layers,
            reserve_hint: 0,
        }
    }

    /// Positions per page, or `None` for the slab backend.
    #[must_use]
    pub fn page_size(&self) -> Option<usize> {
        match &self.backend {
            Backend::Slab(_) => None,
            Backend::Paged(p) => Some(p.page_size),
        }
    }

    /// Pages inserting `tokens` through [`KvCache::insert_row_shared`]
    /// commits the pool to right now: the page-aligned prefixes the prefix
    /// registry misses (allocated at once), plus one copy-out when the
    /// partial last page maps a page another row holds (the first write
    /// into a shared page copies it out). `0` on the slab backend, which
    /// has no pages.
    #[must_use]
    pub fn insert_pages(&self, tokens: &[usize]) -> usize {
        let Backend::Paged(p) = &self.backend else { return 0 };
        let (s, l) = (p.page_size, tokens.len());
        let missing = (0..l.div_ceil(s))
            .filter(|pi| !p.registry.contains_key(&tokens[..((pi + 1) * s).min(l)]))
            .count();
        let copy_out = !l.is_multiple_of(s) && p.registry.contains_key(tokens);
        missing + usize::from(copy_out)
    }

    /// Copy-outs the pool still owes: a registered partial page (a
    /// prompt's last page, not yet written past the prompt) mapped by `k`
    /// rows is copied out by the first `k − 1` of them to write into it;
    /// the last writes in place. Full prompt pages are never written, so
    /// they owe nothing. `0` on the slab backend.
    #[must_use]
    pub fn copy_outs_owed(&self) -> usize {
        let Backend::Paged(p) = &self.backend else { return 0 };
        p.registry
            .iter()
            .filter(|(key, _)| !key.len().is_multiple_of(p.page_size))
            .map(|(_, &pid)| p.refs[pid] - 1)
            .sum()
    }

    /// Pool occupancy counters, or `None` for the slab backend.
    #[must_use]
    pub fn page_stats(&self) -> Option<PageStats> {
        match &self.backend {
            Backend::Slab(_) => None,
            Backend::Paged(p) => Some(PageStats {
                page_size: p.page_size,
                pages_allocated: p.pages.len(),
                pages_live: p.pages.len() - p.free.len(),
                pages_free: p.free.len(),
                pages_shared: p.refs.iter().filter(|&&r| r > 1).count(),
            }),
        }
    }

    /// Pre-sizes the cache: every slab layer (current and future) will hold
    /// at least `positions` per row before any further reallocation. The
    /// paged backend records the hint but allocates pages on demand.
    pub fn reserve(&mut self, positions: usize) {
        self.reserve_hint = self.reserve_hint.max(positions);
        if let Backend::Slab(layers) = &mut self.backend {
            for entry in layers.iter_mut().flatten() {
                entry.ensure_capacity(positions);
            }
        }
    }

    /// Number of layers.
    #[must_use]
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Number of cached token positions (0 if nothing appended yet) — for
    /// ragged batches, the longest row. All layers hold the same lengths
    /// between forward passes.
    #[must_use]
    pub fn len(&self) -> usize {
        if self.n_layers == 0 {
            return 0;
        }
        self.len_of(0)
    }

    /// Whether the cache holds no tokens.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cached positions for one specific layer (longest row). During a
    /// forward pass, layers before the current one have already appended
    /// the new chunk, so per-layer lengths are what positional encodings
    /// must use.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn len_of(&self, layer: usize) -> usize {
        match &self.backend {
            Backend::Slab(layers) => {
                layers[layer].as_ref().map_or(0, |e| e.lens.iter().copied().max().unwrap_or(0))
            }
            Backend::Paged(p) => p.max_len(layer),
        }
    }

    /// Valid positions per batch row for `layer` (empty if nothing cached).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn row_lens(&self, layer: usize) -> &[usize] {
        match &self.backend {
            Backend::Slab(layers) => layers[layer].as_ref().map_or(&[], |e| &e.lens),
            Backend::Paged(p) => &p.lens[layer],
        }
    }

    /// Appends new key/value tensors (`[B, L_new, Hkv·dh]`) for `layer`,
    /// writing in place at each row's current length. On the paged backend
    /// a write into a shared page copies it out first (copy-on-write), so
    /// appending never perturbs other rows mapping the same prefix.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range or batch/feature dims disagree
    /// with existing contents.
    pub fn append(&mut self, layer: usize, k: &Tensor, v: &Tensor) {
        assert_eq!(k.shape(), v.shape(), "K and V must have matching shapes");
        assert_eq!(k.rank(), 3, "KV tensors must be [B, L, Hkv*dh]");
        let (b, l, d) = (k.dim(0), k.dim(1), k.dim(2));
        let hint = self.reserve_hint;
        match &mut self.backend {
            Backend::Slab(layers) => {
                let entry = layers[layer].get_or_insert_with(|| Entry {
                    k: Tensor::zeros(vec![b, l.max(hint), d]),
                    v: Tensor::zeros(vec![b, l.max(hint), d]),
                    lens: vec![0; b],
                });
                assert_eq!(entry.batch(), b, "batch dim disagrees with cached contents");
                assert_eq!(entry.width(), d, "feature dim disagrees with cached contents");
                let need = entry.lens.iter().copied().max().unwrap_or(0) + l;
                entry.ensure_capacity(need.max(hint));
                for r in 0..b {
                    let at = entry.lens[r];
                    let src = r * l * d;
                    entry.write_row(r, at, &k.data()[src..src + l * d], &v.data()[src..src + l * d]);
                    entry.lens[r] = at + l;
                }
            }
            Backend::Paged(p) => {
                p.ensure_shape(b, d);
                for r in 0..b {
                    let at = p.lens[layer][r];
                    let src = r * l * d;
                    p.write_span(layer, r, at, &k.data()[src..src + l * d], &v.data()[src..src + l * d]);
                    p.lens[layer][r] = at + l;
                }
            }
        }
    }

    /// Overwrites one batch row of `layer` with a single sequence
    /// (`[l, Hkv·dh]`), creating storage for `batch` rows if none exists
    /// yet — the insertion half of slot management.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or `row >= batch`.
    pub fn write_slot(&mut self, layer: usize, row: usize, batch: usize, k: &Tensor, v: &Tensor) {
        assert_eq!(k.shape(), v.shape(), "K and V must have matching shapes");
        assert_eq!(k.rank(), 2, "slot KV tensors must be [l, Hkv*dh]");
        assert!(row < batch, "row {row} out of range for batch {batch}");
        let (l, d) = (k.dim(0), k.dim(1));
        let hint = self.reserve_hint;
        match &mut self.backend {
            Backend::Slab(layers) => {
                let entry = layers[layer].get_or_insert_with(|| Entry {
                    k: Tensor::zeros(vec![batch, l.max(hint), d]),
                    v: Tensor::zeros(vec![batch, l.max(hint), d]),
                    lens: vec![0; batch],
                });
                assert_eq!(entry.batch(), batch, "batch dim disagrees with cached contents");
                assert_eq!(entry.width(), d, "feature dim disagrees with cached contents");
                entry.ensure_capacity(l.max(hint));
                entry.write_row(row, 0, k.data(), v.data());
                entry.lens[row] = l;
            }
            Backend::Paged(p) => {
                p.ensure_shape(batch, d);
                p.write_span(layer, row, 0, k.data(), v.data());
                p.lens[layer][row] = l;
            }
        }
    }

    /// Inserts a full request (every layer's `[l, Hkv·dh]` K/V, plus the
    /// `l` prompt tokens that produced it) into one row, sharing
    /// prompt-prefix pages with already-resident requests.
    ///
    /// On the paged backend each page-aligned token prefix is looked up in
    /// the pool's registry: a hit maps the existing page (refcount bump, no
    /// write — bit-exact because K/V at a position are a deterministic
    /// function of the token prefix and the position), a miss allocates,
    /// writes, and registers the page for future requests. On the slab
    /// backend this degrades to a per-layer [`KvCache::write_slot`]
    /// (no sharing).
    ///
    /// # Panics
    ///
    /// Panics if `layers` does not cover every layer, shapes disagree, or
    /// `tokens.len()` differs from the K/V length.
    pub fn insert_row_shared(
        &mut self,
        row: usize,
        batch: usize,
        layers: &[(Tensor, Tensor)],
        tokens: &[usize],
    ) {
        assert_eq!(layers.len(), self.n_layers, "one (K, V) pair per layer");
        assert!(row < batch, "row {row} out of range for batch {batch}");
        for (k, v) in layers {
            assert_eq!(k.shape(), v.shape(), "K and V must have matching shapes");
            assert_eq!(k.rank(), 2, "slot KV tensors must be [l, Hkv*dh]");
            assert_eq!(k.dim(0), tokens.len(), "one token per cached position");
        }
        match &mut self.backend {
            Backend::Slab(_) => {
                for (li, (k, v)) in layers.iter().enumerate() {
                    self.write_slot(li, row, batch, k, v);
                }
            }
            Backend::Paged(p) => {
                let l = tokens.len();
                let d = layers.first().map_or(0, |(k, _)| k.dim(1));
                p.ensure_shape(batch, d);
                // Release whatever the row held before (slots are inserted
                // into evicted rows; this keeps reuse safe regardless).
                let old: Vec<usize> = p.tables[row].drain(..).collect();
                for pid in old {
                    p.unref_page(pid);
                }
                let s = p.page_size;
                for pi in 0..l.div_ceil(s) {
                    let end = ((pi + 1) * s).min(l);
                    let key = tokens[..end].to_vec();
                    if let Some(&pid) = p.registry.get(&key) {
                        p.refs[pid] += 1;
                        p.tables[row].push(pid);
                    } else {
                        let pid = p.alloc_page();
                        let (lo, span) = (pi * s, end - pi * s);
                        for (li, (k, v)) in layers.iter().enumerate() {
                            let src = lo * d..(lo + span) * d;
                            p.pages[pid].k[li][..span * d].copy_from_slice(&k.data()[src.clone()]);
                            p.pages[pid].v[li][..span * d].copy_from_slice(&v.data()[src]);
                        }
                        p.keys[pid] = Some(key.clone());
                        p.registry.insert(key, pid);
                        p.tables[row].push(pid);
                    }
                }
                for lens in &mut p.lens {
                    lens[row] = l;
                }
            }
        }
    }

    /// Reads one batch row of `layer` back as `([l, D], [l, D])` tensors —
    /// the extraction half of slot management. Both backends materialize
    /// exactly the row's valid positions in order, so the bytes are
    /// identical regardless of backing layout.
    ///
    /// # Panics
    ///
    /// Panics if `layer` has no contents or `row` is out of range.
    #[must_use]
    pub fn read_slot(&self, layer: usize, row: usize) -> (Tensor, Tensor) {
        match &self.backend {
            Backend::Slab(layers) => {
                // Vetted: the documented usage-contract panic (read before any
                // append) — an assert with a message, not a swallowed runtime fault.
                #[allow(clippy::expect_used)]
                let entry = layers[layer].as_ref().expect("layer has no cached contents");
                let (cap, d) = (entry.capacity(), entry.width());
                let len = entry.lens[row];
                let off = row * cap * d;
                let k = Tensor::from_vec(vec![len, d], entry.k.data()[off..off + len * d].to_vec());
                let v = Tensor::from_vec(vec![len, d], entry.v.data()[off..off + len * d].to_vec());
                (k, v)
            }
            Backend::Paged(p) => {
                // Vetted: same usage contract as the slab arm.
                #[allow(clippy::expect_used)]
                let d = p.width.expect("layer has no cached contents");
                let len = p.lens[layer][row];
                let s = p.page_size;
                let mut kd = Vec::with_capacity(len * d);
                let mut vd = Vec::with_capacity(len * d);
                let mut pos = 0;
                while pos < len {
                    let (pi, off) = (pos / s, pos % s);
                    let run = (s - off).min(len - pos);
                    let pid = p.tables[row][pi];
                    kd.extend_from_slice(&p.pages[pid].k[layer][off * d..(off + run) * d]);
                    vd.extend_from_slice(&p.pages[pid].v[layer][off * d..(off + run) * d]);
                    pos += run;
                }
                (Tensor::from_vec(vec![len, d], kd), Tensor::from_vec(vec![len, d], vd))
            }
        }
    }

    /// Marks one batch row empty in every layer (eviction). The slab keeps
    /// its capacity; the paged backend drops one reference per mapped page,
    /// returning pages whose last reference this was to the free pool.
    pub fn clear_slot(&mut self, row: usize) {
        match &mut self.backend {
            Backend::Slab(layers) => {
                for entry in layers.iter_mut().flatten() {
                    entry.lens[row] = 0;
                }
            }
            Backend::Paged(p) => {
                if p.batch.is_none() {
                    return;
                }
                let held: Vec<usize> = p.tables[row].drain(..).collect();
                for pid in held {
                    p.unref_page(pid);
                }
                for lens in &mut p.lens {
                    lens[row] = 0;
                }
            }
        }
    }

    /// The raw cached `(K, V)` slabs for `layer` (`[B, capacity, Hkv·dh]`),
    /// if any rows exist — slab backend only (the paged backend has no
    /// dense per-layer view; read rows via [`KvCache::read_slot`] or a
    /// trimmed copy via [`KvCache::contents`]).
    #[must_use]
    pub fn get(&self, layer: usize) -> Option<(&Tensor, &Tensor)> {
        match &self.backend {
            Backend::Slab(layers) => layers[layer].as_ref().map(|e| (&e.k, &e.v)),
            Backend::Paged(_) => None,
        }
    }

    /// The cached `(K, V)` pair for `layer` trimmed to the valid length —
    /// the dense `[B, L, Hkv·dh]` view the old concat-based cache exposed.
    /// Works on both backends (the paged backend gathers through the block
    /// tables).
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths (use [`KvCache::read_slot`]
    /// for ragged contents).
    #[must_use]
    pub fn contents(&self, layer: usize) -> Option<(Tensor, Tensor)> {
        let lens = self.row_lens(layer);
        if lens.is_empty() {
            return None;
        }
        let len = lens[0];
        assert!(
            lens.iter().all(|&l| l == len),
            "contents() requires uniform row lengths; got {lens:?}"
        );
        let b = lens.len();
        let mut ks = Vec::with_capacity(b);
        let mut vs = Vec::with_capacity(b);
        for r in 0..b {
            let (k, v) = self.read_slot(layer, r);
            ks.push(k.into_reshape(vec![1, len, k_width(&self.backend)]));
            vs.push(v.into_reshape(vec![1, len, k_width(&self.backend)]));
        }
        let kr: Vec<&Tensor> = ks.iter().collect();
        let vr: Vec<&Tensor> = vs.iter().collect();
        Some((Tensor::concat(&kr, 0), Tensor::concat(&vr, 0)))
    }

    /// Total *valid* elements held (keys + values across all layers), the
    /// quantity the memory model charges per decode step. Reserved-but-
    /// unwritten capacity is not counted, and a page shared by several rows
    /// is charged **once** (its widest referencing row), so occupancy
    /// reflects physical memory rather than the sum of logical sequence
    /// lengths.
    #[must_use]
    pub fn total_elements(&self) -> usize {
        match &self.backend {
            Backend::Slab(layers) => layers
                .iter()
                .flatten()
                .map(|e| 2 * e.width() * e.lens.iter().sum::<usize>())
                .sum(),
            Backend::Paged(p) => {
                let Some(d) = p.width else { return 0 };
                let s = p.page_size;
                // valid[page][layer] = widest valid span any referencing row
                // holds in that page.
                let mut valid = vec![0usize; p.pages.len() * p.n_layers];
                for (r, table) in p.tables.iter().enumerate() {
                    for (pi, &pid) in table.iter().enumerate() {
                        for (li, lens) in p.lens.iter().enumerate() {
                            let span = lens[r].saturating_sub(pi * s).min(s);
                            let cell = &mut valid[pid * p.n_layers + li];
                            *cell = (*cell).max(span);
                        }
                    }
                }
                2 * d * valid.iter().sum::<usize>()
            }
        }
    }

    /// Replicates every cached sequence `k` times along the batch
    /// dimension (`[s0, s1] → [s0, s0, s1, s1]` for `k = 2`) — the
    /// mechanism behind the paper's low-latency recipe of combining a
    /// batch-1 prefill with a batch-64 decode by "generating multiple
    /// samples from the same input text" (Section 4.4). The paged backend
    /// shares the originals' pages (copy-on-write on later divergence)
    /// instead of duplicating them.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn repeat_batch(&mut self, k: usize) {
        assert!(k > 0, "repeat factor must be positive");
        match &mut self.backend {
            Backend::Slab(layers) => {
                for entry in layers.iter_mut().flatten() {
                    entry.k = entry.k.repeat_interleave(0, k);
                    entry.v = entry.v.repeat_interleave(0, k);
                    entry.lens =
                        entry.lens.iter().flat_map(|&l| std::iter::repeat_n(l, k)).collect();
                }
            }
            Backend::Paged(p) => {
                if let Some(b) = p.batch {
                    let mut tables = Vec::with_capacity(b * k);
                    for table in &p.tables {
                        for copy in 0..k {
                            if copy > 0 {
                                for &pid in table {
                                    p.refs[pid] += 1;
                                }
                            }
                            tables.push(table.clone());
                        }
                    }
                    p.tables = tables;
                    for lens in &mut p.lens {
                        *lens = lens.iter().flat_map(|&l| std::iter::repeat_n(l, k)).collect();
                    }
                    p.batch = Some(b * k);
                }
            }
        }
    }

    /// Drops all cached tokens, keeping the layer count and backend. The
    /// paged backend releases its whole pool and registry.
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Slab(layers) => {
                for l in layers {
                    *l = None;
                }
            }
            Backend::Paged(p) => {
                **p = Paged::new(p.n_layers, p.page_size);
            }
        }
    }
}

fn k_width(backend: &Backend) -> usize {
    match backend {
        Backend::Slab(layers) => {
            layers.iter().flatten().next().map_or(0, Entry::width)
        }
        Backend::Paged(p) => p.width.unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache() {
        let c = KvCache::new(3);
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        assert_eq!(c.n_layers(), 3);
        assert!(c.get(0).is_none());
        assert_eq!(c.total_elements(), 0);
    }

    #[test]
    fn append_grows_sequence_dim() {
        let mut c = KvCache::new(1);
        let k1 = Tensor::full(vec![2, 2, 4], 1.0);
        c.append(0, &k1, &k1);
        let k2 = Tensor::full(vec![2, 1, 4], 2.0);
        c.append(0, &k2, &k2);
        assert_eq!(c.len(), 3);
        let (k, _) = c.contents(0).unwrap();
        assert_eq!(k.shape(), &[2, 3, 4]);
        assert_eq!(k.at(&[0, 0, 0]), 1.0);
        assert_eq!(k.at(&[0, 2, 0]), 2.0);
    }

    #[test]
    fn append_is_in_place_after_reserve() {
        // The O(L^2)-copy bugfix, pinned: with capacity reserved up front,
        // appending must not reallocate the slab, and contents/len() must
        // behave exactly as the concat-based cache did.
        let mut c = KvCache::new(1);
        c.reserve(64);
        let step = |v: f32| Tensor::full(vec![1, 1, 2], v);
        c.append(0, &step(0.0), &step(0.0));
        let ptr = c.get(0).unwrap().0.data().as_ptr();
        for i in 1..64 {
            c.append(0, &step(i as f32), &step(-(i as f32)));
        }
        assert_eq!(c.len(), 64);
        assert_eq!(c.get(0).unwrap().0.data().as_ptr(), ptr, "append must write in place");
        let (k, v) = c.contents(0).unwrap();
        assert_eq!(k.shape(), &[1, 64, 2]);
        for i in 0..64 {
            assert_eq!(k.at(&[0, i, 0]), i as f32);
            assert_eq!(v.at(&[0, i, 1]), -(i as f32));
        }
    }

    #[test]
    fn unreserved_append_grows_amortized() {
        let mut c = KvCache::new(1);
        let step = Tensor::full(vec![1, 1, 2], 1.0);
        for _ in 0..100 {
            c.append(0, &step, &step);
        }
        assert_eq!(c.len(), 100);
        let cap = c.get(0).unwrap().0.dim(1);
        assert!((100..=256).contains(&cap), "capacity {cap} should double geometrically");
        assert_eq!(c.total_elements(), 2 * 100 * 2, "only valid elements are counted");
    }

    #[test]
    fn total_elements_counts_k_and_v() {
        let mut c = KvCache::new(2);
        let t = Tensor::zeros(vec![1, 4, 8]);
        c.append(0, &t, &t);
        c.append(1, &t, &t);
        assert_eq!(c.total_elements(), 4 * (4 * 8));
    }

    #[test]
    fn repeat_batch_replicates_sequences() {
        let mut c = KvCache::new(1);
        let k = Tensor::from_vec(vec![2, 1, 2], vec![1.0, 2.0, 3.0, 4.0]);
        c.append(0, &k, &k);
        c.repeat_batch(3);
        let (kk, _) = c.contents(0).unwrap();
        assert_eq!(kk.shape(), &[6, 1, 2]);
        assert_eq!(kk.at(&[0, 0, 0]), 1.0);
        assert_eq!(kk.at(&[2, 0, 0]), 1.0);
        assert_eq!(kk.at(&[3, 0, 0]), 3.0);
        assert_eq!(c.len(), 1); // sequence length unchanged
    }

    #[test]
    fn slots_insert_read_and_evict() {
        let mut c = KvCache::new(2);
        let ka = Tensor::from_vec(vec![3, 2], (0..6).map(|i| i as f32).collect());
        let va = ka.scale(10.0);
        for layer in 0..2 {
            c.write_slot(layer, 1, 4, &ka, &va);
        }
        assert_eq!(c.row_lens(0), &[0, 3, 0, 0]);
        let (k, v) = c.read_slot(0, 1);
        assert_eq!(k.data(), ka.data());
        assert_eq!(v.data(), va.data());
        assert_eq!(c.read_slot(1, 0).0.dim(0), 0, "untouched rows are empty");
        // Overwrite with a shorter sequence, then evict.
        let kb = Tensor::from_vec(vec![1, 2], vec![7.0, 8.0]);
        c.write_slot(0, 1, 4, &kb, &kb);
        assert_eq!(c.row_lens(0), &[0, 1, 0, 0]);
        assert_eq!(c.read_slot(0, 1).0.data(), &[7.0, 8.0]);
        c.clear_slot(1);
        assert_eq!(c.row_lens(0), &[0, 0, 0, 0]);
        assert_eq!(c.row_lens(1), &[0, 0, 0, 0]);
    }

    #[test]
    fn ragged_rows_append_independently() {
        let mut c = KvCache::new(1);
        let ka = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        c.write_slot(0, 0, 2, &ka, &ka);
        let step = Tensor::full(vec![2, 1, 2], 9.0);
        c.append(0, &step, &step);
        assert_eq!(c.row_lens(0), &[3, 1]);
        assert_eq!(c.read_slot(0, 0).0.data(), &[1.0, 2.0, 3.0, 4.0, 9.0, 9.0]);
        assert_eq!(c.read_slot(0, 1).0.data(), &[9.0, 9.0]);
    }

    #[test]
    fn clear_resets() {
        let mut c = KvCache::new(1);
        let t = Tensor::zeros(vec![1, 1, 2]);
        c.append(0, &t, &t);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.n_layers(), 1);
    }

    #[test]
    #[should_panic(expected = "matching shapes")]
    fn mismatched_kv_rejected() {
        let mut c = KvCache::new(1);
        c.append(0, &Tensor::zeros(vec![1, 1, 2]), &Tensor::zeros(vec![1, 1, 3]));
    }

    // ---- paged backend ----

    /// `[l, d]` tensor whose position `p`, feature `f` value is
    /// `tag + p + f/10` — distinguishable per position and per tensor.
    fn seq(tag: f32, l: usize, d: usize) -> Tensor {
        let data = (0..l * d).map(|i| tag + (i / d) as f32 + (i % d) as f32 / 10.0).collect();
        Tensor::from_vec(vec![l, d], data)
    }

    /// Shared-insert helper: one (K, V) pair per layer from `seq`.
    fn layer_kv(n_layers: usize, tag: f32, l: usize, d: usize) -> Vec<(Tensor, Tensor)> {
        (0..n_layers)
            .map(|li| {
                let t = seq(tag + 100.0 * li as f32, l, d);
                (t.clone(), t.scale(-1.0))
            })
            .collect()
    }

    #[test]
    fn paged_matches_slab_on_slot_roundtrip() {
        for page_size in [1, 3, 4, 16] {
            let mut slab = KvCache::new(2);
            let mut paged = KvCache::paged(2, page_size);
            let k = seq(1.0, 7, 4);
            let v = seq(2.0, 7, 4);
            for c in [&mut slab, &mut paged] {
                c.write_slot(0, 1, 3, &k, &v);
                c.write_slot(1, 1, 3, &v, &k);
                let step = Tensor::full(vec![3, 1, 4], 9.0);
                c.append(0, &step, &step);
                c.append(1, &step, &step);
            }
            for layer in 0..2 {
                for row in 0..3 {
                    let (ks, vs) = slab.read_slot(layer, row);
                    let (kp, vp) = paged.read_slot(layer, row);
                    assert_eq!(ks.data(), kp.data(), "S={page_size} layer={layer} row={row}");
                    assert_eq!(vs.data(), vp.data(), "S={page_size} layer={layer} row={row}");
                }
                assert_eq!(slab.row_lens(layer), paged.row_lens(layer));
            }
        }
    }

    #[test]
    fn shared_prefix_pages_are_mapped_not_copied() {
        let (s, d, l) = (4, 2, 10); // 10 positions = 2 full pages + 1 partial
        let mut c = KvCache::paged(2, s);
        let tokens: Vec<usize> = (0..l).collect();
        let kv = layer_kv(2, 1.0, l, d);
        assert_eq!(c.insert_pages(&tokens), 3, "an empty pool misses every page");
        c.insert_row_shared(0, 3, &kv, &tokens);
        let base = c.page_stats().unwrap();
        assert_eq!(base.pages_live, 3);
        assert_eq!(base.pages_shared, 0);
        assert_eq!(c.copy_outs_owed(), 0, "an unshared partial page is written in place");
        // Same prompt again: all three pages map, nothing new allocates,
        // but the shared partial page now owes one copy-out.
        assert_eq!(c.insert_pages(&tokens), 1);
        c.insert_row_shared(1, 3, &kv, &tokens);
        assert_eq!(c.copy_outs_owed(), 1);
        let st = c.page_stats().unwrap();
        assert_eq!(st.pages_live, 3, "identical prompt allocates nothing");
        assert_eq!(st.pages_shared, 3);
        // Same 8-token prefix, different tail: shares the 2 full pages.
        let mut tokens2 = tokens.clone();
        tokens2[9] = 99;
        let mut kv2 = layer_kv(2, 1.0, l, d);
        kv2[1].0.data_mut()[19] = -5.0; // the divergent tail position
        assert_eq!(c.insert_pages(&tokens2), 1, "only the divergent partial page misses");
        c.insert_row_shared(2, 3, &kv2, &tokens2);
        let st = c.page_stats().unwrap();
        assert_eq!(st.pages_live, 4, "only the divergent partial page allocates");
        // Contents still correct per row.
        assert_eq!(c.read_slot(0, 0).0.data(), kv[0].0.data());
        assert_eq!(c.read_slot(1, 2).0.data(), kv2[1].0.data());
        assert_eq!(c.read_slot(1, 1).0.data(), kv[1].0.data());
    }

    #[test]
    fn append_to_shared_page_copies_on_write() {
        let (s, d, l) = (4, 2, 6); // final page holds positions 4..6, partial
        let mut c = KvCache::paged(1, s);
        let tokens: Vec<usize> = (0..l).collect();
        let kv = layer_kv(1, 1.0, l, d);
        c.insert_row_shared(0, 2, &kv, &tokens);
        c.insert_row_shared(1, 2, &kv, &tokens);
        assert_eq!(c.page_stats().unwrap().pages_shared, 2);
        // Row 0 is rewritten with one extra token: every page it touches is
        // shared, so both must copy out, leaving row 1's view untouched.
        let mut ext_k = kv[0].0.data().to_vec();
        ext_k.extend_from_slice(&vec![7.0; d]);
        let ext_kt = Tensor::from_vec(vec![l + 1, d], ext_k);
        c.write_slot(0, 0, 2, &ext_kt, &ext_kt);
        let st = c.page_stats().unwrap();
        assert_eq!(st.pages_live, 4, "COW copies the two written pages");
        let (k1, v1) = c.read_slot(0, 1);
        assert_eq!(k1.data(), kv[0].0.data(), "sharer's bytes unchanged by COW");
        assert_eq!(v1.data(), kv[0].1.data());
        assert_eq!(c.read_slot(0, 0).0.data(), ext_kt.data());
    }

    #[test]
    fn eviction_frees_shared_pages_at_last_reference() {
        let (s, d, l) = (4, 2, 8);
        let mut c = KvCache::paged(1, s);
        let tokens: Vec<usize> = (0..l).collect();
        let kv = layer_kv(1, 3.0, l, d);
        c.insert_row_shared(0, 2, &kv, &tokens);
        c.insert_row_shared(1, 2, &kv, &tokens);
        c.clear_slot(0);
        let st = c.page_stats().unwrap();
        assert_eq!(st.pages_live, 2, "sharer keeps the pages alive");
        assert_eq!(st.pages_free, 0);
        assert_eq!(c.read_slot(0, 1).0.data(), kv[0].0.data());
        c.clear_slot(1);
        let st = c.page_stats().unwrap();
        assert_eq!(st.pages_live, 0);
        assert_eq!(st.pages_free, 2, "last reference returns pages to the pool");
        // Freed pages are deregistered: a re-insert re-allocates from the
        // free list rather than aliasing stale registry entries.
        c.insert_row_shared(0, 2, &kv, &tokens);
        let st = c.page_stats().unwrap();
        assert_eq!(st.pages_live, 2);
        assert_eq!(st.pages_allocated, 2, "free-listed pages are reused");
    }

    #[test]
    fn total_elements_charges_shared_pages_once() {
        let (s, d, l) = (4, 2, 8);
        let mut c = KvCache::paged(1, s);
        let tokens: Vec<usize> = (0..l).collect();
        let kv = layer_kv(1, 0.0, l, d);
        c.insert_row_shared(0, 3, &kv, &tokens);
        let solo = c.total_elements();
        assert_eq!(solo, 2 * l * d);
        c.insert_row_shared(1, 3, &kv, &tokens);
        assert_eq!(c.total_elements(), solo, "a fully shared duplicate is free");
        let mut tokens2 = tokens.clone();
        tokens2[7] = 42;
        c.insert_row_shared(2, 3, &layer_kv(1, 0.5, l, d), &tokens2);
        assert_eq!(c.total_elements(), solo + 2 * s * d, "one divergent page charged");
    }

    #[test]
    fn paged_repeat_batch_shares_pages() {
        let (s, d, l) = (2, 2, 4);
        let mut c = KvCache::paged(1, s);
        let k = seq(1.0, l, d).into_reshape(vec![1, l, d]);
        c.append(0, &k, &k);
        let before = c.page_stats().unwrap().pages_live;
        c.repeat_batch(3);
        let st = c.page_stats().unwrap();
        assert_eq!(st.pages_live, before, "replicas map the original pages");
        assert_eq!(st.pages_shared, before);
        for r in 0..3 {
            assert_eq!(c.read_slot(0, r).0.data(), k.data());
        }
        assert_eq!(c.len(), l);
    }

    #[test]
    fn stale_prefix_keys_never_alias() {
        // A row that decodes into its registered partial page must drop the
        // key: a later request with the same prompt would otherwise map a
        // page that now contains generated tokens.
        let (s, d, l) = (4, 2, 6);
        let mut c = KvCache::paged(1, s);
        let tokens: Vec<usize> = (0..l).collect();
        let kv = layer_kv(1, 2.0, l, d);
        c.insert_row_shared(0, 2, &kv, &tokens);
        // Row 0 generates one token in place (refcount 1 → no COW, key must drop).
        let step = Tensor::full(vec![1, 1, d], 5.0);
        let mut batch_step = Tensor::zeros(vec![2, 1, d]);
        batch_step.data_mut()[..d].copy_from_slice(step.data());
        // Only row 0 has content; appending a [2,1,d] batch would also extend
        // row 1 from 0, which is fine for this check.
        c.append(0, &batch_step, &batch_step);
        // Same original prompt arrives: the partial page must NOT map.
        c.insert_row_shared(1, 2, &kv, &tokens);
        let (k1, _) = c.read_slot(0, 1);
        assert_eq!(k1.data(), kv[0].0.data(), "fresh insert sees prompt bytes, not generated ones");
    }

    #[test]
    #[should_panic(expected = "one token per cached position")]
    fn shared_insert_token_length_mismatch_rejected() {
        let mut c = KvCache::paged(1, 4);
        let kv = layer_kv(1, 0.0, 4, 2);
        c.insert_row_shared(0, 1, &kv, &[1, 2, 3]);
    }

    #[test]
    fn slab_shared_insert_degrades_to_write_slot() {
        let mut c = KvCache::new(2);
        let kv = layer_kv(2, 1.0, 5, 3);
        c.insert_row_shared(1, 4, &kv, &[9, 8, 7, 6, 5]);
        assert!(c.page_stats().is_none());
        for (li, (k, v)) in kv.iter().enumerate() {
            assert_eq!(c.read_slot(li, 1).0.data(), k.data());
            assert_eq!(c.read_slot(li, 1).1.data(), v.data());
        }
    }
}
