//! Prepared-query decomposed divergence kernels.
//!
//! Every decomposable Bregman divergence factors as
//!
//! ```text
//! D_φ(x, q) = Σ_i φ(x_i) − φ(q_i) − φ'(q_i)(x_i − q_i)
//!           = Φ(x) + c_q − ⟨∇φ(q), x⟩
//! ```
//!
//! with `Φ(x) = Σ_i φ(x_i)`, `∇φ(q)_i = φ'(q_i)` and the scalar
//! `c_q = Σ_i φ'(q_i)·q_i − φ(q_i)`. Everything on the query side — the
//! gradient and the offset, the only places `φ`/`φ'` (ln/exp
//! transcendentals) appear — can be computed **once per query**; everything
//! on the data side (`Φ(x)`) can be computed **once per point at index-build
//! time**. A candidate refinement then collapses to one fused
//! multiply-accumulate dot product with zero transcendentals, which is the
//! dominant cost of the filter/refine pipelines in this repository.
//!
//! [`PreparedQuery`] holds the hoisted query-side state: the gradient and
//! the offset. Build one with [`DecomposableBregman::prepare_query`] or
//! [`PreparedQuery::decompose`]. Both are finite only for a query inside
//! the divergence's domain, which the indexes check first
//! ([`DecomposableBregman::check_domain`]): under the exponential distance
//! `c_q` overflows from `q_i ≈ 703` on, which is why its domain ends at
//! `|t| < 700`.
//!
//! [`phi_table`] builds the per-point `Φ(x)` column the indexes persist in
//! their sealed envelopes, and [`KernelScratch`] bundles the reusable
//! buffers a serving thread carries across a batch of queries.

use crate::divergence::DecomposableBregman;
use crate::vector::DenseDataset;

/// One fused multiply-add step — a hardware `vfmadd` when the build target
/// guarantees FMA, a plain multiply-add otherwise. Gating on the *compile
/// target* matters: without the target feature, `f64::mul_add` lowers to a
/// correctly-rounded libm call that is an order of magnitude slower than
/// the two-instruction fallback.
#[inline(always)]
fn fma(a: f64, b: f64, acc: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}

/// The portable 8-lane dot body: eight scalar accumulator lanes, one
/// [`fma`] step per element, pairwise lane reduction. This is the exact
/// summation-order contract the AVX2 variant below replicates with packed
/// registers.
#[inline(always)]
fn dot8_body(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    let mut lanes = [0.0f64; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for l in 0..8 {
            lanes[l] = fma(x[l], y[l], lanes[l]);
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail = fma(*x, *y, tail);
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        + tail
}

/// [`dot8_body`]'s summation order in explicit AVX2 intrinsics: the eight
/// accumulator lanes live in two `ymm` registers (lanes 0–3 and 4–7) and
/// every step is one packed `vfmadd231pd`. Intrinsics rather than relying
/// on autovectorization because LLVM keeps the eight lanes as scalar
/// `vfmadd231sd` chains, which measures ~1.6× slower than packed on the
/// same machine. Lane `l` accumulates exactly the elements `i ≡ l (mod 8)`
/// in the same order as the portable body, and the tail plus pairwise
/// reduction are the identical scalar code — within a machine the
/// association never changes, only the instruction encoding does.
///
/// # Safety
/// Caller must have verified `avx2` and `fma` are available (see
/// [`fast_kernels_available`]).
#[allow(unsafe_code)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot8_avx2(a: &[f64], b: &[f64]) -> f64 {
    use core::arch::x86_64::{
        _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_setzero_pd, _mm256_storeu_pd,
    };
    debug_assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    let n = a.len().min(b.len());
    let chunks = n / 8;
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut lo = _mm256_setzero_pd();
    let mut hi = _mm256_setzero_pd();
    for c in 0..chunks {
        // SAFETY: `c * 8 + 7 < n`, so both 4-wide loads stay in bounds.
        let base = c * 8;
        unsafe {
            lo = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(base)), _mm256_loadu_pd(pb.add(base)), lo);
            hi = _mm256_fmadd_pd(
                _mm256_loadu_pd(pa.add(base + 4)),
                _mm256_loadu_pd(pb.add(base + 4)),
                hi,
            );
        }
    }
    let mut lanes = [0.0f64; 8];
    // SAFETY: `lanes` has room for both 4-wide stores.
    unsafe {
        _mm256_storeu_pd(lanes.as_mut_ptr(), lo);
        _mm256_storeu_pd(lanes.as_mut_ptr().add(4), hi);
    }
    let mut tail = 0.0;
    for i in chunks * 8..n {
        // `mul_add` is a single hardware `vfmadd` under this
        // `#[target_feature]`, matching the packed steps above.
        tail = a[i].mul_add(b[i], tail);
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        + tail
}

/// [`dot8_body`]'s summation order in AVX-512 intrinsics: the eight
/// accumulator lanes are exactly one `zmm` register (lane `l` in element
/// `l`), each step one 8-wide load pair plus one `vfmadd231pd` — half the
/// load traffic of the two-`ymm` AVX2 variant. All steps are fused, so
/// results are bit-identical to [`dot8_avx2`] as well as to the block
/// kernels' per-candidate chains.
///
/// # Safety
/// Caller must have verified `avx512f` is available (see
/// [`avx512_available`]).
#[allow(unsafe_code)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dot8_avx512(a: &[f64], b: &[f64]) -> f64 {
    use core::arch::x86_64::{
        _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_setzero_pd, _mm512_storeu_pd,
    };
    debug_assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    let n = a.len().min(b.len());
    let chunks = n / 8;
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc = _mm512_setzero_pd();
    for c in 0..chunks {
        // SAFETY: `c * 8 + 7 < n`, so both 8-wide loads stay in bounds.
        let base = c * 8;
        unsafe {
            acc =
                _mm512_fmadd_pd(_mm512_loadu_pd(pa.add(base)), _mm512_loadu_pd(pb.add(base)), acc);
        }
    }
    let mut lanes = [0.0f64; 8];
    // SAFETY: `lanes` has room for the 8-wide store.
    unsafe {
        _mm512_storeu_pd(lanes.as_mut_ptr(), acc);
    }
    let mut tail = 0.0;
    for i in chunks * 8..n {
        tail = a[i].mul_add(b[i], tail);
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        + tail
}

/// Whether the AVX-512 kernel tier is in use on this machine (the fused
/// steps produce the same bits as the AVX2 tier; the wider registers only
/// change instruction count). Detection is cached by the standard library.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Whether runtime-dispatched explicit-SIMD kernel variants (AVX2 + FMA,
/// upgraded to AVX-512 where detected) are in use on this machine. The
/// detection result is cached by the standard library, so the check is one
/// relaxed atomic load per call.
#[inline]
pub fn fast_kernels_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Explicitly 8-wide dot product: eight independent accumulator lanes, one
/// multiply-add step per element, pairwise lane reduction. The summation
/// order differs from a sequential loop (the reference the equivalence
/// suite checks against) in the last few ulps.
///
/// On `x86_64` machines with AVX2 and FMA the same body is dispatched to a
/// `#[target_feature]` variant whose steps are single fused `vfmadd`
/// instructions. Fusing skips the intermediate rounding, so results can
/// differ from the portable variant in the last ulp — but the dispatch is
/// uniform across *every* kernel entry point ([`dot8`] and
/// [`PreparedQuery::distance_block`] alike), so per-point and batched
/// refine paths stay bit-identical to each other on any one machine.
#[inline]
pub fn dot8(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_available() {
            // SAFETY: `avx512_available` just verified avx512f.
            #[allow(unsafe_code)]
            return unsafe { dot8_avx512(a, b) };
        }
        if fast_kernels_available() {
            // SAFETY: `fast_kernels_available` just verified avx2 + fma.
            #[allow(unsafe_code)]
            return unsafe { dot8_avx2(a, b) };
        }
    }
    dot8_body(a, b)
}

/// The per-point generator sums `Φ(x) = Σ_i φ(x_i)` for a whole dataset —
/// the column an index precomputes at build time and persists alongside its
/// other artifacts so that query-time refinement never evaluates `φ` over
/// data coordinates.
pub fn phi_table<B: DecomposableBregman>(divergence: &B, dataset: &DenseDataset) -> Vec<f64> {
    (0..dataset.len()).map(|i| divergence.f(dataset.row(i))).collect()
}

/// Query-side state of the decomposed divergence, built once per query and
/// reused across every candidate the refine phase examines.
///
/// [`PreparedQuery::distance`] evaluates `D_φ(x, q) = Φ(x) + c_q − ⟨∇φ(q), x⟩`
/// — one chunked dot product, no transcendentals — where `Φ(x)` comes from
/// the index's precomputed [`phi_table`] column. The result agrees with
/// [`DecomposableBregman::divergence`] up to floating-point reassociation
/// (last-ulp differences; the equivalence suite pins them to `1e-10`).
///
/// ```
/// use bregman::kernel::PreparedQuery;
/// use bregman::{DecomposableBregman, ItakuraSaito};
///
/// let q = [1.0, 2.0, 4.0];
/// let x = [2.0, 2.0, 3.0];
/// let prepared = ItakuraSaito.prepare_query(&q);
/// let fast = prepared.distance(ItakuraSaito.f(&x), &x);
/// let naive = ItakuraSaito.divergence(&x, &q);
/// assert!((fast - naive).abs() < 1e-10);
/// ```
#[derive(Default)]
pub struct PreparedQuery {
    /// `∇φ(q)`: `grad[i] = φ'(q_i)`.
    grad: Vec<f64>,
    /// `c_q = Σ_i φ'(q_i)·q_i − φ(q_i)`.
    offset: f64,
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("dim", &self.grad.len())
            .field("offset", &self.offset)
            .finish()
    }
}

impl PreparedQuery {
    /// Prepare `query` under a decomposable divergence.
    pub fn decompose<B: DecomposableBregman>(divergence: &B, query: &[f64]) -> Self {
        let mut out = Self::default();
        out.decompose_into(divergence, query);
        out
    }

    /// Re-prepare in place, reusing the gradient buffer (the batch engine
    /// carries one `PreparedQuery` per worker thread across all the queries
    /// it serves, so steady-state serving performs no per-query allocation).
    pub fn decompose_into<B: DecomposableBregman>(&mut self, divergence: &B, query: &[f64]) {
        self.grad.clear();
        self.grad.reserve(query.len());
        let mut c = 0.0;
        for &qi in query {
            let g = divergence.phi_prime(qi);
            self.grad.push(g);
            c += g * qi - divergence.phi(qi);
        }
        self.offset = c;
    }

    /// Dimensionality the query was prepared for.
    pub fn dim(&self) -> usize {
        self.grad.len()
    }

    /// The cached gradient `∇φ(q)`.
    pub fn gradient(&self) -> &[f64] {
        &self.grad
    }

    /// The cached scalar `c_q`.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// The divergence from candidate `x` (with tabulated generator sum
    /// `phi_x = Φ(x)`) to the prepared query.
    #[inline]
    pub fn distance(&self, phi_x: f64, x: &[f64]) -> f64 {
        phi_x + self.offset - dot8(&self.grad, x)
    }

    /// Batched refine over a lane-major candidate block: `lanes[i·m + j]`
    /// is coordinate `i` of candidate `j` (`m = phis.len()` candidates,
    /// `phis[j] = Φ(x_j)`), exactly the shape
    /// `pagestore::Page::decode_slots_into` produces. After the call
    /// `out[j]` is the divergence from candidate `j` to the prepared query.
    ///
    /// This runs the dot products *across* rows with exactly [`dot8`]'s
    /// summation order: eight accumulator lanes per row filled
    /// dimension-chunk by dimension-chunk (each chunk a gradient broadcast
    /// against a contiguous coordinate lane, so the multiply-adds vectorize
    /// over the `m` rows), a sequential tail, and the same pairwise lane
    /// reduction. Per-row results are therefore **bit-identical** to
    /// [`PreparedQuery::distance`] — a candidate scores the same whether it
    /// is refined one point at a time or as part of a decoded block, which
    /// is what lets the engine mix both paths (per-point baselines,
    /// page-block refine, delta-overlay scans) without disturbing the
    /// exactness guarantees.
    pub fn distance_block(&self, phis: &[f64], lanes: &[f64], out: &mut Vec<f64>) {
        let (grad, offset) = (&self.grad, self.offset);
        debug_assert_eq!(lanes.len(), grad.len() * phis.len(), "lane block must be dim × m");
        out.clear();
        #[cfg(target_arch = "x86_64")]
        {
            if avx512_available() {
                // SAFETY: `avx512_available` verified avx512f.
                #[allow(unsafe_code)]
                unsafe {
                    decomposed_block_avx512(grad, offset, phis, lanes, out)
                };
                return;
            }
            if fast_kernels_available() {
                // SAFETY: `fast_kernels_available` verified avx2 + fma.
                #[allow(unsafe_code)]
                unsafe {
                    decomposed_block_avx2(grad, offset, phis, lanes, out)
                };
                return;
            }
        }
        decomposed_block_body(grad, offset, phis, lanes, out);
    }
}

/// The decomposed-path block-refine body: [`dot8_body`]'s summation order
/// run lane-major *across* rows. `out` doubles as the accumulator matrix —
/// eight dot-product lanes plus one sequential tail per row (9·m slots) —
/// before the finals compact into the first `m` slots. For each dimension
/// chunk, one gradient broadcast multiplies a contiguous coordinate lane,
/// so the multiply-adds vectorize over the `m` candidates while every
/// individual row reproduces [`dot8`] bit for bit. Steps use the
/// compile-target-gated [`fma`] helper, matching [`dot8_body`].
#[inline(always)]
fn decomposed_block_body(
    grad: &[f64],
    offset: f64,
    phis: &[f64],
    lanes: &[f64],
    out: &mut Vec<f64>,
) {
    let m = phis.len();
    let dim = grad.len();
    out.resize(9 * m, 0.0);
    let chunks = dim / 8;
    for c in 0..chunks {
        for r in 0..8 {
            let i = c * 8 + r;
            let g = grad[i];
            let lane = &lanes[i * m..(i + 1) * m];
            let acc = &mut out[r * m..(r + 1) * m];
            for (a, &x) in acc.iter_mut().zip(lane) {
                *a = fma(g, x, *a);
            }
        }
    }
    for i in chunks * 8..dim {
        let g = grad[i];
        let lane = &lanes[i * m..(i + 1) * m];
        let tail = &mut out[8 * m..9 * m];
        for (t, &x) in tail.iter_mut().zip(lane) {
            *t = fma(g, x, *t);
        }
    }
    for j in 0..m {
        let l = |r: usize| out[r * m + j];
        let dot = ((l(0) + l(1)) + (l(2) + l(3))) + ((l(4) + l(5)) + (l(6) + l(7))) + l(8);
        out[j] = phis[j] + offset - dot;
    }
    out.truncate(m);
}

/// [`decomposed_block_body`] in explicit AVX2 intrinsics, tiled four
/// candidates at a time: the eight dot lanes plus the tail lane for one
/// tile are nine `ymm` registers that never leave the register file, and
/// each step is one gradient broadcast (`vbroadcastsd`) fused into a
/// packed `vfmadd231pd` against a contiguous slice of the coordinate lane.
/// (A first cut kept the 9·m accumulator matrix in memory like the
/// portable body; the load–fma–store round trip per dimension made it no
/// faster than the per-point path.) When the row stride aliases too few
/// L1 line sets for a whole tile to stay cached, the dimension walk is
/// additionally segmented — see `resident` below. Candidates past the
/// last full tile run the same eight-lane accumulation scalarly.
///
/// Per (lane, candidate) accumulator the visiting order, the fused steps,
/// the pairwise reduction and the `Φ(x) + c_q − ⟨∇φ(q), x⟩` finalization
/// are exactly the portable body's — the packed adds/subs are four
/// independent scalar ops — so per-row results stay bit-identical to
/// [`dot8`], which dispatches to its own fused variant on the same
/// machines.
///
/// # Safety
/// Caller must have verified `avx2` and `fma` are available (see
/// [`fast_kernels_available`]).
#[allow(unsafe_code)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn decomposed_block_avx2(
    grad: &[f64],
    offset: f64,
    phis: &[f64],
    lanes: &[f64],
    out: &mut Vec<f64>,
) {
    use core::arch::x86_64::{
        _mm256_add_pd, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm256_sub_pd, _mm_prefetch, _MM_HINT_T0,
    };
    let m = phis.len();
    let dim = grad.len();
    debug_assert_eq!(lanes.len(), dim * m, "lane block must be dim × m");
    let full = (dim / 8) * 8;
    let offv = _mm256_set1_pd(offset);
    let (pl, pg) = (lanes.as_ptr(), grad.as_ptr());
    // Rows of the lane block are `m·8` bytes apart. When that stride is a
    // multiple of the 64-byte cache line, consecutive rows alias a subset
    // of L1's 64 line sets, and once a tile touches more rows than those
    // sets hold (8 ways assumed — conservative for current x86 cores) its
    // own traversal evicts them, so every tile re-misses the whole block
    // (for `m = 64` that cliff starts near 100 dimensions). `resident` is
    // how many rows a tile can keep cached at this stride.
    let resident = {
        let stride = m * 8;
        if stride.is_multiple_of(64) {
            (64 / gcd((stride / 64) % 64, 64)) * 8
        } else {
            usize::MAX
        }
    };
    if dim <= resident {
        out.resize(m, 0.0);
        for j in (0..m / 4 * 4).step_by(4) {
            // SAFETY: `j + 3 < m`, so every 4-wide load at `i * m + j`
            // stays inside the `dim × m` lane block, and the `phis`/`out`
            // accesses stay inside their `m`-length buffers.
            unsafe {
                // Within a tile the lane loads stride `m` doubles — a
                // pattern the hardware prefetcher gives up on — so tiles
                // starting a new 64-byte line prefetch the following line
                // of every row for the next tile pair.
                let prefetch = j % 8 == 0 && j + 8 < m;
                let mut acc = [_mm256_setzero_pd(); 8];
                let mut c = 0;
                while c < full {
                    for (r, lane) in acc.iter_mut().enumerate() {
                        let i = c + r;
                        if prefetch {
                            _mm_prefetch::<_MM_HINT_T0>(pl.add(i * m + j + 8).cast());
                        }
                        let gv = _mm256_set1_pd(*pg.add(i));
                        *lane = _mm256_fmadd_pd(gv, _mm256_loadu_pd(pl.add(i * m + j)), *lane);
                    }
                    c += 8;
                }
                let mut tail = _mm256_setzero_pd();
                for i in full..dim {
                    if prefetch {
                        _mm_prefetch::<_MM_HINT_T0>(pl.add(i * m + j + 8).cast());
                    }
                    let gv = _mm256_set1_pd(*pg.add(i));
                    tail = _mm256_fmadd_pd(gv, _mm256_loadu_pd(pl.add(i * m + j)), tail);
                }
                let x = _mm256_add_pd(_mm256_add_pd(acc[0], acc[1]), _mm256_add_pd(acc[2], acc[3]));
                let y = _mm256_add_pd(_mm256_add_pd(acc[4], acc[5]), _mm256_add_pd(acc[6], acc[7]));
                let dot = _mm256_add_pd(_mm256_add_pd(x, y), tail);
                let phi = _mm256_loadu_pd(phis.as_ptr().add(j));
                _mm256_storeu_pd(
                    out.as_mut_ptr().add(j),
                    _mm256_sub_pd(_mm256_add_pd(phi, offv), dot),
                );
            }
        }
    } else {
        // Aliased stride: walk the dimensions in L1-sized segments. `out`
        // doubles as the spill matrix (dot lanes at `out[r·m..]`, the tail
        // lane at `out[8·m..]`, finals compacted below) — spilling and
        // reloading a lane between segments does not change one bit of any
        // accumulator chain, it only re-orders *when* the same fused steps
        // run.
        let seg_rows = ((resident / 2).max(8) / 8) * 8;
        out.resize(9 * m, 0.0);
        let po = out.as_mut_ptr();
        let mut seg_start = 0;
        while seg_start < full {
            let seg_end = (seg_start + seg_rows).min(full);
            for j in (0..m / 4 * 4).step_by(4) {
                // SAFETY: as above, plus `8 * m + j + 3 < 9 * m` for every
                // spill-matrix access.
                unsafe {
                    let prefetch = j % 8 == 0 && j + 8 < m;
                    let mut acc = [_mm256_setzero_pd(); 8];
                    if seg_start > 0 {
                        for (r, lane) in acc.iter_mut().enumerate() {
                            *lane = _mm256_loadu_pd(po.add(r * m + j));
                        }
                    }
                    let mut c = seg_start;
                    while c < seg_end {
                        for (r, lane) in acc.iter_mut().enumerate() {
                            let i = c + r;
                            if prefetch {
                                _mm_prefetch::<_MM_HINT_T0>(pl.add(i * m + j + 8).cast());
                            }
                            let gv = _mm256_set1_pd(*pg.add(i));
                            *lane = _mm256_fmadd_pd(gv, _mm256_loadu_pd(pl.add(i * m + j)), *lane);
                        }
                        c += 8;
                    }
                    for (r, lane) in acc.iter().enumerate() {
                        _mm256_storeu_pd(po.add(r * m + j), *lane);
                    }
                }
            }
            seg_start = seg_end;
        }
        for j in (0..m / 4 * 4).step_by(4) {
            // SAFETY: same bounds as the spill loop above.
            unsafe {
                let mut tail = _mm256_setzero_pd();
                for i in full..dim {
                    let gv = _mm256_set1_pd(*pg.add(i));
                    tail = _mm256_fmadd_pd(gv, _mm256_loadu_pd(pl.add(i * m + j)), tail);
                }
                let mut lv = [_mm256_setzero_pd(); 8];
                for (r, v) in lv.iter_mut().enumerate() {
                    *v = _mm256_loadu_pd(po.add(r * m + j));
                }
                let x = _mm256_add_pd(_mm256_add_pd(lv[0], lv[1]), _mm256_add_pd(lv[2], lv[3]));
                let y = _mm256_add_pd(_mm256_add_pd(lv[4], lv[5]), _mm256_add_pd(lv[6], lv[7]));
                let dot = _mm256_add_pd(_mm256_add_pd(x, y), tail);
                let phi = _mm256_loadu_pd(phis.as_ptr().add(j));
                // Lane-0 slots of this tile were read into `lv` above, so
                // compacting the finals over them is safe.
                _mm256_storeu_pd(po.add(j), _mm256_sub_pd(_mm256_add_pd(phi, offv), dot));
            }
        }
    }
    for j in m / 4 * 4..m {
        let mut lanes8 = [0.0f64; 8];
        let mut c = 0;
        while c < full {
            for (r, lane) in lanes8.iter_mut().enumerate() {
                let i = c + r;
                *lane = grad[i].mul_add(lanes[i * m + j], *lane);
            }
            c += 8;
        }
        let mut tail = 0.0;
        for i in full..dim {
            tail = grad[i].mul_add(lanes[i * m + j], tail);
        }
        let dot = ((lanes8[0] + lanes8[1]) + (lanes8[2] + lanes8[3]))
            + ((lanes8[4] + lanes8[5]) + (lanes8[6] + lanes8[7]))
            + tail;
        out[j] = phis[j] + offset - dot;
    }
    out.truncate(m);
}

/// Greatest common divisor, for the L1 line-set arithmetic in
/// [`decomposed_block_avx2`] and [`decomposed_block_avx512`].
#[cfg(target_arch = "x86_64")]
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// [`decomposed_block_avx2`] widened to AVX-512: tiles of *eight*
/// candidates whose nine accumulator lanes are nine `zmm` registers, one
/// gradient broadcast fused into one `vfmadd231pd` per dimension — half
/// the load traffic per candidate of the AVX2 tile. The same L1 line-set
/// segmentation applies (each row load is one full cache line here).
/// Candidates past the last full tile run the eight-lane accumulation
/// scalarly. Association and fused steps are identical to every other
/// variant, so per-row results remain bit-identical to [`dot8`].
///
/// # Safety
/// Caller must have verified `avx512f` is available (see
/// [`avx512_available`]).
#[allow(unsafe_code)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn decomposed_block_avx512(
    grad: &[f64],
    offset: f64,
    phis: &[f64],
    lanes: &[f64],
    out: &mut Vec<f64>,
) {
    use core::arch::x86_64::{
        _mm512_add_pd, _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_setzero_pd,
        _mm512_storeu_pd, _mm512_sub_pd, _mm_prefetch, _MM_HINT_T0,
    };
    let m = phis.len();
    let dim = grad.len();
    debug_assert_eq!(lanes.len(), dim * m, "lane block must be dim × m");
    let full = (dim / 8) * 8;
    let tiles = m / 8 * 8;
    let offv = _mm512_set1_pd(offset);
    let (pl, pg) = (lanes.as_ptr(), grad.as_ptr());
    // Same line-set arithmetic as the AVX2 variant — see `resident` there.
    let resident = {
        let stride = m * 8;
        if stride.is_multiple_of(64) {
            (64 / gcd((stride / 64) % 64, 64)) * 8
        } else {
            usize::MAX
        }
    };
    if dim <= resident {
        out.resize(m, 0.0);
        for j in (0..tiles).step_by(8) {
            // SAFETY: `j + 7 < m`, so every 8-wide load at `i * m + j`
            // stays inside the `dim × m` lane block, and the `phis`/`out`
            // accesses stay inside their `m`-length buffers.
            unsafe {
                let prefetch = j + 8 < m;
                let mut acc = [_mm512_setzero_pd(); 8];
                let mut c = 0;
                while c < full {
                    for (r, lane) in acc.iter_mut().enumerate() {
                        let i = c + r;
                        if prefetch {
                            _mm_prefetch::<_MM_HINT_T0>(pl.add(i * m + j + 8).cast());
                        }
                        let gv = _mm512_set1_pd(*pg.add(i));
                        *lane = _mm512_fmadd_pd(gv, _mm512_loadu_pd(pl.add(i * m + j)), *lane);
                    }
                    c += 8;
                }
                let mut tail = _mm512_setzero_pd();
                for i in full..dim {
                    if prefetch {
                        _mm_prefetch::<_MM_HINT_T0>(pl.add(i * m + j + 8).cast());
                    }
                    let gv = _mm512_set1_pd(*pg.add(i));
                    tail = _mm512_fmadd_pd(gv, _mm512_loadu_pd(pl.add(i * m + j)), tail);
                }
                let x = _mm512_add_pd(_mm512_add_pd(acc[0], acc[1]), _mm512_add_pd(acc[2], acc[3]));
                let y = _mm512_add_pd(_mm512_add_pd(acc[4], acc[5]), _mm512_add_pd(acc[6], acc[7]));
                let dot = _mm512_add_pd(_mm512_add_pd(x, y), tail);
                let phi = _mm512_loadu_pd(phis.as_ptr().add(j));
                _mm512_storeu_pd(
                    out.as_mut_ptr().add(j),
                    _mm512_sub_pd(_mm512_add_pd(phi, offv), dot),
                );
            }
        }
    } else {
        // Aliased stride: dimension-segmented walk with the 9·m spill
        // matrix in `out`, exactly as in the AVX2 variant.
        let seg_rows = ((resident / 2).max(8) / 8) * 8;
        out.resize(9 * m, 0.0);
        let po = out.as_mut_ptr();
        let mut seg_start = 0;
        while seg_start < full {
            let seg_end = (seg_start + seg_rows).min(full);
            for j in (0..tiles).step_by(8) {
                // SAFETY: as above, plus `8 * m + j + 7 < 9 * m` for every
                // spill-matrix access.
                unsafe {
                    let prefetch = j + 8 < m;
                    let mut acc = [_mm512_setzero_pd(); 8];
                    if seg_start > 0 {
                        for (r, lane) in acc.iter_mut().enumerate() {
                            *lane = _mm512_loadu_pd(po.add(r * m + j));
                        }
                    }
                    let mut c = seg_start;
                    while c < seg_end {
                        for (r, lane) in acc.iter_mut().enumerate() {
                            let i = c + r;
                            if prefetch {
                                _mm_prefetch::<_MM_HINT_T0>(pl.add(i * m + j + 8).cast());
                            }
                            let gv = _mm512_set1_pd(*pg.add(i));
                            *lane = _mm512_fmadd_pd(gv, _mm512_loadu_pd(pl.add(i * m + j)), *lane);
                        }
                        c += 8;
                    }
                    for (r, lane) in acc.iter().enumerate() {
                        _mm512_storeu_pd(po.add(r * m + j), *lane);
                    }
                }
            }
            seg_start = seg_end;
        }
        for j in (0..tiles).step_by(8) {
            // SAFETY: same bounds as the spill loop above.
            unsafe {
                let mut tail = _mm512_setzero_pd();
                for i in full..dim {
                    let gv = _mm512_set1_pd(*pg.add(i));
                    tail = _mm512_fmadd_pd(gv, _mm512_loadu_pd(pl.add(i * m + j)), tail);
                }
                let mut lv = [_mm512_setzero_pd(); 8];
                for (r, v) in lv.iter_mut().enumerate() {
                    *v = _mm512_loadu_pd(po.add(r * m + j));
                }
                let x = _mm512_add_pd(_mm512_add_pd(lv[0], lv[1]), _mm512_add_pd(lv[2], lv[3]));
                let y = _mm512_add_pd(_mm512_add_pd(lv[4], lv[5]), _mm512_add_pd(lv[6], lv[7]));
                let dot = _mm512_add_pd(_mm512_add_pd(x, y), tail);
                let phi = _mm512_loadu_pd(phis.as_ptr().add(j));
                // Lane-0 slots of this tile were read into `lv` above, so
                // compacting the finals over them is safe.
                _mm512_storeu_pd(po.add(j), _mm512_sub_pd(_mm512_add_pd(phi, offv), dot));
            }
        }
    }
    for j in tiles..m {
        let mut lanes8 = [0.0f64; 8];
        let mut c = 0;
        while c < full {
            for (r, lane) in lanes8.iter_mut().enumerate() {
                let i = c + r;
                *lane = grad[i].mul_add(lanes[i * m + j], *lane);
            }
            c += 8;
        }
        let mut tail = 0.0;
        for i in full..dim {
            tail = grad[i].mul_add(lanes[i * m + j], tail);
        }
        let dot = ((lanes8[0] + lanes8[1]) + (lanes8[2] + lanes8[3]))
            + ((lanes8[4] + lanes8[5]) + (lanes8[6] + lanes8[7]))
            + tail;
        out[j] = phis[j] + offset - dot;
    }
    out.truncate(m);
}

/// Reusable per-thread buffers for prepared-query search, designed to live
/// in an engine worker's scratch pool and be reused across a whole batch:
/// the prepared query (gradient buffer), a decoded-coordinates buffer and a
/// page-id staging buffer. All fields are plain buffers — dropping state
/// between queries is a `clear()`, never a reallocation.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Query-side decomposition state, re-armed per query.
    pub prepared: PreparedQuery,
    /// Decoded candidate coordinates (one point at a time).
    pub coords: Vec<f64>,
    /// Candidate/page id staging.
    pub ids: Vec<u32>,
    /// Lane-major decoded candidate block (one page group at a time), the
    /// input side of [`PreparedQuery::distance_block`].
    pub lanes: Vec<f64>,
    /// Per-candidate distances produced by a block refine.
    pub distances: Vec<f64>,
    /// Tabulated `Φ(x)` values for the candidates of the current block.
    pub phis: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exponential, GeneralizedI, ItakuraSaito, SquaredEuclidean};

    #[test]
    fn dot8_matches_sequential_for_every_tail_length() {
        // Exhaustive over every lane-remainder class (1..=64 covers all
        // tails of the 8-wide kernel several times over), plus the
        // benchmark dimensionalities.
        for n in (1..=64).chain([100, 128]) {
            let a: Vec<f64> = (0..n).map(|i| 0.25 + (i as f64) * 0.75 - (n as f64) / 3.0).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.6 - (i as f64) * 0.31).collect();
            let sequential: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let scale = 1.0 + sequential.abs();
            let wide = dot8(&a, &b);
            assert!((wide - sequential).abs() < 1e-10 * scale, "n={n}: {wide} vs {sequential}");
        }
    }

    #[test]
    fn distance_block_matches_per_point_distance_for_every_tail_length() {
        for dim in (1..=64).chain([100, 128]) {
            let m = 7usize;
            let rows: Vec<Vec<f64>> = (0..m)
                .map(|j| (0..dim).map(|i| 0.5 + ((i * 31 + j * 17) % 13) as f64 * 0.35).collect())
                .collect();
            let q: Vec<f64> = (0..dim).map(|i| 0.25 + ((i * 7) % 11) as f64 * 0.4).collect();
            let prepared = PreparedQuery::decompose(&ItakuraSaito, &q);
            let phis: Vec<f64> = rows.iter().map(|r| ItakuraSaito.f(r)).collect();
            // Lane-major transpose: lanes[i*m + j] = rows[j][i].
            let mut lanes = vec![0.0; dim * m];
            for (j, row) in rows.iter().enumerate() {
                for (i, &x) in row.iter().enumerate() {
                    lanes[i * m + j] = x;
                }
            }
            let mut block = Vec::new();
            prepared.distance_block(&phis, &lanes, &mut block);
            assert_eq!(block.len(), m);
            for (j, row) in rows.iter().enumerate() {
                let single = prepared.distance(phis[j], row);
                // Bit-identical, not merely close: the block kernel
                // replicates dot8's summation order exactly, which is what
                // lets per-point and block refine paths coexist without
                // perturbing final top-k distances.
                assert_eq!(
                    block[j].to_bits(),
                    single.to_bits(),
                    "dim={dim} j={j}: {} vs {single}",
                    block[j]
                );
            }
        }
    }

    #[test]
    fn prepared_distance_matches_divergence() {
        let x = [0.5, 1.0, 2.5, 3.0, 0.75];
        let q = [1.5, 0.5, 2.0, 1.0, 2.25];
        macro_rules! check {
            ($div:expr) => {
                let d = $div;
                let prepared = PreparedQuery::decompose(&d, &q);
                assert_eq!(prepared.dim(), q.len());
                let fast = prepared.distance(d.f(&x), &x);
                let naive = d.divergence(&x, &q);
                assert!(
                    (fast - naive).abs() < 1e-10 * (1.0 + naive.abs()),
                    "{}: {fast} vs {naive}",
                    d.name()
                );
            };
        }
        check!(SquaredEuclidean);
        check!(ItakuraSaito);
        check!(Exponential);
        check!(GeneralizedI);
    }

    #[test]
    fn decompose_into_reuses_the_gradient_buffer() {
        let mut prepared = PreparedQuery::default();
        prepared.decompose_into(&ItakuraSaito, &[1.0, 2.0, 4.0]);
        assert_eq!(prepared.dim(), 3);
        let g = prepared.gradient().to_vec();
        assert_eq!(g, vec![-1.0, -0.5, -0.25]);
        prepared.decompose_into(&SquaredEuclidean, &[3.0]);
        assert_eq!(prepared.dim(), 1);
        assert_eq!(prepared.gradient(), &[6.0]);
    }

    #[test]
    fn phi_table_matches_generator_sums() {
        let rows = vec![vec![1.0, 2.0], vec![0.5, 4.0], vec![3.0, 3.0]];
        let ds = DenseDataset::from_rows(&rows).unwrap();
        let table = phi_table(&ItakuraSaito, &ds);
        assert_eq!(table.len(), 3);
        for (i, row) in rows.iter().enumerate() {
            assert!((table[i] - ItakuraSaito.f(row)).abs() < 1e-12);
        }
    }
}
