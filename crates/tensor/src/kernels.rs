//! Lane-chunked `f32` compute kernels behind the tensor hot path.
//!
//! Every kernel here is written in a **fixed-order, lane-chunked** form: the
//! inner loops walk the data in `[f32; LANES]` chunks whose iteration order
//! is pinned, so the autovectorizer can lift them to SIMD while the result
//! stays bit-identical on every machine, thread count and chunk boundary.
//! Determinism is the contract the campaign runtime builds on (parallel ==
//! serial == cached, see `fahana-runtime/tests/determinism.rs`), so *which*
//! order each kernel uses is part of its API:
//!
//! * [`matmul_into`], [`softmax_into`], [`sum_axis0_into`] and the
//!   elementwise kernels accumulate in exactly the order the original scalar
//!   implementations used (per-output-element accumulation never
//!   reassociates), so results are bit-identical to the pre-kernel code and
//!   recorded campaign goldens do not move. The lanes run across
//!   *independent* output elements.
//! * [`dot`], [`matvec_into`] and [`sum_axis1_into`] are genuine lane
//!   reductions: `LANES` partial accumulators filled in chunk order, then a
//!   pinned binary-tree combine, then the scalar tail folded left to right.
//!   This order differs from a naive left-to-right sum, and is defined by
//!   the retained [`reference`](mod@reference) implementations below.
//!
//! The [`reference`](mod@reference) module keeps a plain scalar rendition of every kernel.
//! Proptests pin the production kernels bit-identical to their references
//! across shapes 1..64, which is what licenses future SIMD rewrites: any
//! change that keeps the reference equivalence holds the determinism gate.

/// Lane width of the chunked kernels (one AVX2 `f32x8` register).
pub const LANES: usize = 8;

/// Dot product with fixed lane-chunked accumulation order.
///
/// Both slices must be the same length (the shorter is authoritative via
/// `zip` in the reference; here equal lengths are asserted by callers).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let chunks = n / LANES;
    let mut acc = [0.0f32; LANES];
    for c in 0..chunks {
        let base = c * LANES;
        for j in 0..LANES {
            acc[j] += a[base + j] * b[base + j];
        }
    }
    let mut sum = reduce_lanes(&acc);
    for i in chunks * LANES..n {
        sum += a[i] * b[i];
    }
    sum
}

/// Pinned binary-tree combine of the lane accumulators:
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
#[inline]
fn reduce_lanes(acc: &[f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// `out[i] = dot(a_row_i, x)` for a row-major `(m × n)` matrix.
///
/// Each output element uses the same lane-chunked reduction as [`dot`].
#[inline]
pub fn matvec_into(a: &[f32], x: &[f32], out: &mut [f32], m: usize, n: usize) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(out.len(), m);
    for i in 0..m {
        out[i] = dot(&a[i * n..(i + 1) * n], x);
    }
}

/// `out += a · b` for row-major `a: (m × k)`, `b: (k × n)`, `out: (m × n)`.
///
/// `out` must be zeroed (or hold the value to accumulate onto). The
/// accumulation order per output element is exactly the classic
/// outer-product order — `p` ascending, one fused term at a time — so the
/// result is bit-identical to the historical scalar matmul. The `p`-loop is
/// register-blocked by [`MATMUL_P_BLOCK`] and the column loop is
/// lane-chunked, which is where the speedup comes from: each `out` chunk is
/// loaded and stored once per `p`-block instead of once per `p`.
///
/// Rows of `a` that contain zeros skip the corresponding `p` terms, exactly
/// like the scalar implementation always has (adding `0.0 * b` is a no-op
/// for every finite accumulator this code can produce, and skipping keeps
/// NaN/∞ rows of an unused `b` out of the result).
#[inline]
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let p_blocks = k / MATMUL_P_BLOCK;
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for pb in 0..p_blocks {
            let p0 = pb * MATMUL_P_BLOCK;
            matmul_row_block(&a_row[p0..p0 + MATMUL_P_BLOCK], &b[p0 * n..], o_row, n);
        }
        for p in p_blocks * MATMUL_P_BLOCK..k {
            let a_ip = a_row[p];
            if a_ip == 0.0 {
                continue;
            }
            axpy_into(a_ip, &b[p * n..p * n + n], o_row);
        }
    }
}

/// Register blocking factor of the matmul `p` (inner-dimension) loop.
pub const MATMUL_P_BLOCK: usize = 4;

/// One `p`-block of a matmul output row: `o_row += Σ_p a[p] · b_row_p`,
/// with the per-element add order pinned to `p` ascending.
///
/// When every `a[p]` is nonzero — the overwhelmingly common case for
/// trained weights — the block runs a branchless fused quad-AXPY that
/// loads and stores each `o_row` element once per four `p` terms; LLVM
/// lifts the straight-line body to SIMD. Any zero `a[p]` falls back to
/// per-`p` AXPYs with the historical skip, which updates each element in
/// the same `p`-ascending order, so both paths are bit-identical to the
/// scalar reference.
#[inline]
fn matmul_row_block(a: &[f32], b: &[f32], o_row: &mut [f32], n: usize) {
    let a: [f32; MATMUL_P_BLOCK] = [a[0], a[1], a[2], a[3]];
    let (b0, rest) = b.split_at(n);
    let (b1, rest) = rest.split_at(n);
    let (b2, rest) = rest.split_at(n);
    let b3 = &rest[..n];
    if a.iter().all(|&v| v != 0.0) {
        for ((((o, &v0), &v1), &v2), &v3) in o_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            // `p` ascending, one add at a time — never reassociated
            let mut acc = *o;
            acc += a[0] * v0;
            acc += a[1] * v1;
            acc += a[2] * v2;
            acc += a[3] * v3;
            *o = acc;
        }
    } else {
        if a[0] != 0.0 {
            axpy_into(a[0], b0, o_row);
        }
        if a[1] != 0.0 {
            axpy_into(a[1], b1, o_row);
        }
        if a[2] != 0.0 {
            axpy_into(a[2], b2, o_row);
        }
        if a[3] != 0.0 {
            axpy_into(a[3], b3, o_row);
        }
    }
}

/// `out[j] += scale * x[j]` — the matmul tail / AXPY primitive. A plain
/// elementwise loop never reassociates, so no chunk framing is needed for
/// the autovectorizer to lift it.
#[inline]
pub fn axpy_into(scale: f32, x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o += scale * v;
    }
}

/// Column sums of a row-major `(rows × cols)` matrix: `out[c] = Σ_r m[r][c]`.
///
/// `out` must be zeroed. Rows are added in ascending order (never
/// reassociated per column), lanes run across columns — bit-identical to
/// the historical scalar loop.
#[inline]
pub fn sum_axis0_into(src: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(out.len(), cols);
    for r in 0..rows {
        let row = &src[r * cols..(r + 1) * cols];
        for (o, &v) in out.iter_mut().zip(row.iter()) {
            *o += v;
        }
    }
}

/// Row sums of a row-major `(rows × cols)` matrix, one lane-chunked
/// reduction (same order as [`dot`] with a ones vector) per row.
#[inline]
pub fn sum_axis1_into(src: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(out.len(), rows);
    for r in 0..rows {
        let row = &src[r * cols..(r + 1) * cols];
        let chunks = cols / LANES;
        let mut acc = [0.0f32; LANES];
        for c in 0..chunks {
            let base = c * LANES;
            for j in 0..LANES {
                acc[j] += row[base + j];
            }
        }
        let mut sum = reduce_lanes(&acc);
        for &v in &row[chunks * LANES..] {
            sum += v;
        }
        out[r] = sum;
    }
}

/// Row-wise numerically stable softmax of a `(rows × cols)` matrix into a
/// borrowed output slice, allocation-free.
///
/// Per row: max scan (left to right), `exp(v - max)` written straight into
/// `out`, denominator summed left to right over `out`, then each element
/// divided by the denominator (a true division — multiplying by the
/// reciprocal would change bits). Scan and sum orders match the historical
/// implementation exactly, so results are bit-identical to it; only the
/// per-row scratch `Vec` is gone.
#[inline]
pub fn softmax_into(src: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(out.len(), rows * cols);
    for r in 0..rows {
        let row = &src[r * cols..(r + 1) * cols];
        let o_row = &mut out[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for (o, &v) in o_row.iter_mut().zip(row.iter()) {
            *o = (v - max).exp();
        }
        let denom: f32 = o_row.iter().sum();
        for o in o_row.iter_mut() {
            *o /= denom;
        }
    }
}

/// Elementwise `out[i] = f(src[i])`. Elementwise maps never reassociate,
/// so any unary kernel built on this is order-free.
#[inline]
pub fn map_into<F: Fn(f32) -> f32>(src: &[f32], out: &mut [f32], f: F) {
    for (o, &v) in out.iter_mut().zip(src.iter()) {
        *o = f(v);
    }
}

/// Elementwise `out[i] = f(a[i], b[i])`.
#[inline]
pub fn zip_into<F: Fn(f32, f32) -> f32>(a: &[f32], b: &[f32], out: &mut [f32], f: F) {
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = f(x, y);
    }
}

/// Elementwise `out[i] = f(out[i], b[i])`.
#[inline]
pub fn zip_into_inplace<F: Fn(f32, f32) -> f32>(out: &mut [f32], b: &[f32], f: F) {
    for (o, &y) in out.iter_mut().zip(b.iter()) {
        *o = f(*o, y);
    }
}

/// Plain scalar renditions of every kernel above.
///
/// These are the *semantic definition* of each kernel's accumulation order:
/// the production kernels must stay bit-identical to them (pinned by the
/// proptests below), which is what makes kernel rewrites safe against the
/// campaign determinism gate. They are also the "before" side of the
/// `BENCH_eval.json` kernel baselines.
pub mod reference {
    /// Scalar dot: `LANES` accumulators filled in chunk order, tree-combined,
    /// tail folded left to right — the pinned order of [`super::dot`],
    /// spelled out without chunk framing.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let mut acc = [0.0f32; super::LANES];
        let chunks = n / super::LANES;
        for i in 0..chunks * super::LANES {
            acc[i % super::LANES] += a[i] * b[i];
        }
        let mut sum =
            ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
        for i in chunks * super::LANES..n {
            sum += a[i] * b[i];
        }
        sum
    }

    /// The historical scalar matmul (outer-product order with zero skip).
    pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for p in 0..k {
                let a_ip = a[i * k + p];
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                let o_row = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ip * bv;
                }
            }
        }
    }

    /// Scalar matvec in the pinned [`dot`] order.
    pub fn matvec_into(a: &[f32], x: &[f32], out: &mut [f32], m: usize, n: usize) {
        for i in 0..m {
            out[i] = dot(&a[i * n..(i + 1) * n], x);
        }
    }

    /// The historical scalar column-sum (rows ascending).
    pub fn sum_axis0_into(src: &[f32], out: &mut [f32], rows: usize, cols: usize) {
        for r in 0..rows {
            for c in 0..cols {
                out[c] += src[r * cols + c];
            }
        }
    }

    /// Scalar row-sum in the pinned [`dot`] order (with an implicit ones
    /// vector).
    pub fn sum_axis1_into(src: &[f32], out: &mut [f32], rows: usize, cols: usize) {
        let ones = vec![1.0f32; cols];
        for r in 0..rows {
            out[r] = dot(&src[r * cols..(r + 1) * cols], &ones);
        }
    }

    /// The historical per-row softmax (scratch `Vec` per row and all).
    pub fn softmax_into(src: &[f32], out: &mut [f32], rows: usize, cols: usize) {
        for r in 0..rows {
            let row = &src[r * cols..(r + 1) * cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exp: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
            let denom: f32 = exp.iter().sum();
            for (c, e) in exp.iter().enumerate() {
                out[r * cols + c] = e / denom;
            }
        }
    }

    /// Scalar AXPY (ascending index).
    pub fn axpy_into(scale: f32, x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x.iter()) {
            *o += scale * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// Draws a vector of `len` values in ±100 from the per-test rng.
    fn values(len: usize, rng: &mut TestRng) -> Vec<f32> {
        proptest::collection::vec(-100.0f32..100.0, len..=len).generate(rng)
    }

    proptest! {
        // Shapes 1..64 on every extent, as the satellite task requires.
        #[test]
        fn prop_dot_matches_reference_bitwise(n in 1usize..64) {
            let mut rng = TestRng::deterministic("kernels::dot");
            let a = values(n, &mut rng);
            let b = values(n, &mut rng);
            prop_assert_eq!(dot(&a, &b).to_bits(), reference::dot(&a, &b).to_bits());
        }

        #[test]
        fn prop_matmul_matches_reference_bitwise((m, k, n) in (1usize..64, 1usize..64, 1usize..64)) {
            let mut rng = TestRng::deterministic("kernels::matmul");
            let a = values(m * k, &mut rng);
            let b = values(k * n, &mut rng);
            let mut fast = vec![0.0f32; m * n];
            let mut slow = vec![0.0f32; m * n];
            matmul_into(&a, &b, &mut fast, m, k, n);
            reference::matmul_into(&a, &b, &mut slow, m, k, n);
            for (f, s) in fast.iter().zip(slow.iter()) {
                prop_assert_eq!(f.to_bits(), s.to_bits());
            }
        }

        #[test]
        fn prop_matmul_with_zeros_matches_reference((m, k, n) in (1usize..64, 1usize..64, 1usize..32)) {
            // exercise the zero-skip path explicitly
            let mut rng = TestRng::deterministic("kernels::matmul_zeros");
            let mut a = values(m * k, &mut rng);
            for (i, v) in a.iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = 0.0;
                }
            }
            let b = values(k * n, &mut rng);
            let mut fast = vec![0.0f32; m * n];
            let mut slow = vec![0.0f32; m * n];
            matmul_into(&a, &b, &mut fast, m, k, n);
            reference::matmul_into(&a, &b, &mut slow, m, k, n);
            for (f, s) in fast.iter().zip(slow.iter()) {
                prop_assert_eq!(f.to_bits(), s.to_bits());
            }
        }

        #[test]
        fn prop_matvec_matches_reference_bitwise((m, n) in (1usize..64, 1usize..64)) {
            let mut rng = TestRng::deterministic("kernels::matvec");
            let a = values(m * n, &mut rng);
            let x = values(n, &mut rng);
            let mut fast = vec![0.0f32; m];
            let mut slow = vec![0.0f32; m];
            matvec_into(&a, &x, &mut fast, m, n);
            reference::matvec_into(&a, &x, &mut slow, m, n);
            for (f, s) in fast.iter().zip(slow.iter()) {
                prop_assert_eq!(f.to_bits(), s.to_bits());
            }
        }

        #[test]
        fn prop_sum_axis0_matches_reference_bitwise((rows, cols) in (1usize..64, 1usize..64)) {
            let mut rng = TestRng::deterministic("kernels::sum_axis0");
            let src = values(rows * cols, &mut rng);
            let mut fast = vec![0.0f32; cols];
            let mut slow = vec![0.0f32; cols];
            sum_axis0_into(&src, &mut fast, rows, cols);
            reference::sum_axis0_into(&src, &mut slow, rows, cols);
            for (f, s) in fast.iter().zip(slow.iter()) {
                prop_assert_eq!(f.to_bits(), s.to_bits());
            }
        }

        #[test]
        fn prop_sum_axis1_matches_reference_bitwise((rows, cols) in (1usize..64, 1usize..64)) {
            let mut rng = TestRng::deterministic("kernels::sum_axis1");
            let src = values(rows * cols, &mut rng);
            let mut fast = vec![0.0f32; rows];
            let mut slow = vec![0.0f32; rows];
            sum_axis1_into(&src, &mut fast, rows, cols);
            reference::sum_axis1_into(&src, &mut slow, rows, cols);
            for (f, s) in fast.iter().zip(slow.iter()) {
                prop_assert_eq!(f.to_bits(), s.to_bits());
            }
        }

        #[test]
        fn prop_softmax_matches_reference_bitwise((rows, cols) in (1usize..64, 1usize..64)) {
            let mut rng = TestRng::deterministic("kernels::softmax");
            let src = proptest::collection::vec(-20.0f32..20.0, rows * cols..=rows * cols)
                .generate(&mut rng);
            let mut fast = vec![0.0f32; rows * cols];
            let mut slow = vec![0.0f32; rows * cols];
            softmax_into(&src, &mut fast, rows, cols);
            reference::softmax_into(&src, &mut slow, rows, cols);
            for (f, s) in fast.iter().zip(slow.iter()) {
                prop_assert_eq!(f.to_bits(), s.to_bits());
            }
        }

        #[test]
        fn prop_axpy_matches_reference_bitwise(n in 1usize..64, scale in -4.0f32..4.0) {
            let mut rng = TestRng::deterministic("kernels::axpy");
            let x = values(n, &mut rng);
            let base = values(n, &mut rng);
            let mut fast = base.clone();
            let mut slow = base;
            axpy_into(scale, &x, &mut fast);
            reference::axpy_into(scale, &x, &mut slow);
            for (f, s) in fast.iter().zip(slow.iter()) {
                prop_assert_eq!(f.to_bits(), s.to_bits());
            }
        }
    }

    #[test]
    fn dot_handles_empty_and_short_slices() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot(&[1.0; 16], &[1.0; 16]), 16.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0f32; 4];
        matmul_into(&a, &b, &mut out, 2, 2, 2);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn map_and_zip_cover_tails() {
        let src: Vec<f32> = (0..19).map(|v| v as f32).collect();
        let mut out = vec![0.0f32; 19];
        map_into(&src, &mut out, |v| v * 2.0);
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2.0 * i as f32));
        let mut zipped = vec![0.0f32; 19];
        zip_into(&src, &out, &mut zipped, |a, b| a + b);
        assert!(zipped.iter().enumerate().all(|(i, &v)| v == 3.0 * i as f32));
        let mut inplace = out.clone();
        zip_into_inplace(&mut inplace, &src, |a, b| a - b);
        assert!(inplace.iter().enumerate().all(|(i, &v)| v == i as f32));
    }
}
