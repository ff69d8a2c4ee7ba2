/* Native compute kernels for the inference engine.
 *
 * Compiled on demand by repro.core.kernels (cc -O3 -march=native
 * -ffp-contract=off -shared -fPIC) and loaded through ctypes; no Python.h
 * involved, so any C compiler the host happens to have is enough.
 *
 * Numerical contract: every floating-point routine performs the *same scalar
 * operations in the same order* as the NumpyKernel reference (multiply then
 * add, no FMA contraction — hence -ffp-contract=off — and round-half-to-even
 * via nearbyint, matching np.round), so float32/float64 results are bitwise
 * equal to numpy's, not merely close.  The int8 GEMM accumulates int8 x int8
 * products in int32 exactly; callers guard the contraction length so neither
 * the accumulator nor the 128 * colsum offset correction can overflow.
 *
 * int8 GEMM weight layout (built by _PackedInt8Weight): the (k, n) weight is
 * cut into panels of 32 output columns, and each panel is stored as
 * [ceil(k/4)][32][4] bytes — for every group of four k-steps, the 32
 * columns' four consecutive weights, i.e. w[4q + t][32p + c] lives at byte
 * (p * ceil(k/4) + q) * 128 + c * 4 + t.  k is zero-padded to a multiple of
 * 4 and n to a multiple of 32.  One 64-byte load then feeds vpdpbusd 16
 * columns x 4 k-steps, so the sums finish in vector lanes and no horizontal
 * reduction is needed.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__AVX512VNNI__)
#include <immintrin.h>
#define REPRO_GEMM_VNNI 1
#elif defined(__AVX2__)
#include <immintrin.h>
#endif

#define EXPORT __attribute__((visibility("default")))

/* ------------------------------------------------------------------ */
/* int8 GEMM: c (m,n) int32 = a (m,k) row-major int8 x w (k,n) int8,   */
/* w packed in 32-column panels as described above.  Exact integers.   */
/* ------------------------------------------------------------------ */

#define PANEL 32
#define TILE_ROWS 8

EXPORT int repro_gemm_impl(void) {
#ifdef REPRO_GEMM_VNNI
    return 2; /* vpdpbusd */
#else
    return 1; /* scalar/autovectorised */
#endif
}

#ifdef REPRO_GEMM_VNNI
/* acc += va . b per 32-bit lane (unsigned x signed bytes, four per lane).
 * Inline asm rather than _mm512_dpbusd_epi32: with the intrinsic, GCC 12
 * copies every accumulator through a spare register on each k-step, which
 * costs about a third of the kernel's throughput. */
#define DPBUSD(ACC, VA, B)                                                     \
    __asm__("vpdpbusd {%2, %1, %0|%0, %1, %2}"                                 \
            : "+v"(ACC)                                                        \
            : "v"(VA), "v"(B))

/* One row of a micro-tile step: broadcast NBYTES (4, or the k tail's 1-3)
 * activation bytes of row R at column KK, flip their sign bits and
 * accumulate against the panel's two vectors.  Bytes past NBYTES stay zero
 * and are never read; they meet the panel's zero padding, so they add
 * nothing.  Rows at or beyond ROWS compile away. */
#define TILE_ROW(R, KK, NBYTES)                                                \
    if (ROWS > R) {                                                            \
        int32_t a4 = 0;                                                        \
        memcpy(&a4, a + (R) * k + (KK), (size_t)(NBYTES));                     \
        const __m512i va = _mm512_xor_si512(_mm512_set1_epi32(a4), flip);     \
        DPBUSD(acc##R##_0, va, b0);                                            \
        DPBUSD(acc##R##_1, va, b1);                                            \
    }
#define TILE_STEP(KK, NBYTES)                                                  \
    TILE_ROW(0, KK, NBYTES) TILE_ROW(1, KK, NBYTES) TILE_ROW(2, KK, NBYTES)    \
    TILE_ROW(3, KK, NBYTES) TILE_ROW(4, KK, NBYTES) TILE_ROW(5, KK, NBYTES)    \
    TILE_ROW(6, KK, NBYTES) TILE_ROW(7, KK, NBYTES)
#define TILE_STORE(R)                                                          \
    if (ROWS > R) {                                                            \
        _mm512_mask_storeu_epi32(c + (R) * n, mask0,                           \
                                 _mm512_sub_epi32(acc##R##_0, corr0));         \
        _mm512_mask_storeu_epi32(c + (R) * n + 16, mask1,                      \
                                 _mm512_sub_epi32(acc##R##_1, corr1));         \
    }

/* One micro-tile: ROWS (<= 8) rows of a against one 32-column panel, held
 * in 2 * ROWS zmm accumulators.  vpdpbusd multiplies unsigned by signed
 * bytes; flipping the sign bit of each activation byte (XOR 0x80) biases it
 * by +128, which adds 128 * colsum[j] to every output — subtracted back as
 * a vector (corr0/corr1) before the masked store.  Inlined per constant
 * ROWS so the accumulators stay in registers. */
static inline __attribute__((always_inline)) void
gemm_tile_vnni(const int8_t *a, const int8_t *panel, __m512i corr0,
               __m512i corr1, int32_t *c, int64_t k, int64_t n,
               __mmask16 mask0, __mmask16 mask1, const int ROWS) {
    const __m512i flip = _mm512_set1_epi32((int)0x80808080u);
    __m512i acc0_0 = _mm512_setzero_si512(), acc0_1 = acc0_0;
    __m512i acc1_0 = acc0_0, acc1_1 = acc0_0, acc2_0 = acc0_0, acc2_1 = acc0_0;
    __m512i acc3_0 = acc0_0, acc3_1 = acc0_0, acc4_0 = acc0_0, acc4_1 = acc0_0;
    __m512i acc5_0 = acc0_0, acc5_1 = acc0_0, acc6_0 = acc0_0, acc6_1 = acc0_0;
    __m512i acc7_0 = acc0_0, acc7_1 = acc0_0;
    const int64_t kfull = k / 4;
    for (int64_t q = 0; q < kfull; ++q) {
        const __m512i b0 = _mm512_loadu_si512((const void *)(panel + q * 128));
        const __m512i b1 =
            _mm512_loadu_si512((const void *)(panel + q * 128 + 64));
        TILE_STEP(4 * q, 4)
    }
    if (k % 4) {
        const __m512i b0 =
            _mm512_loadu_si512((const void *)(panel + kfull * 128));
        const __m512i b1 =
            _mm512_loadu_si512((const void *)(panel + kfull * 128 + 64));
        TILE_STEP(4 * kfull, k % 4)
    }
    TILE_STORE(0) TILE_STORE(1) TILE_STORE(2) TILE_STORE(3)
    TILE_STORE(4) TILE_STORE(5) TILE_STORE(6) TILE_STORE(7)
}
#endif

EXPORT void repro_gemm_s8(const int8_t *a, const int8_t *panels,
                          const int32_t *colsum, int32_t *c, int64_t m,
                          int64_t k, int64_t n) {
    const int64_t panel_bytes = (k + 3) / 4 * 4 * PANEL;
    /* Panel outer, rows inner: each panel is loaded into L1/L2 once and
     * reused by every row of a. */
    for (int64_t j0 = 0; j0 < n; j0 += PANEL) {
        const int8_t *panel = panels + j0 / PANEL * panel_bytes;
        const int width = n - j0 < PANEL ? (int)(n - j0) : PANEL;
#ifdef REPRO_GEMM_VNNI
        const uint32_t cols =
            width == PANEL ? 0xFFFFFFFFu : (1u << width) - 1; /* n tail */
        const __mmask16 mask0 = (__mmask16)cols, mask1 = (__mmask16)(cols >> 16);
        const __m512i corr0 = _mm512_slli_epi32(
            _mm512_maskz_loadu_epi32(mask0, colsum + j0), 7);
        const __m512i corr1 = _mm512_slli_epi32(
            _mm512_maskz_loadu_epi32(mask1, colsum + j0 + 16), 7);
        int64_t i = 0;
        for (; i + TILE_ROWS <= m; i += TILE_ROWS)
            gemm_tile_vnni(a + i * k, panel, corr0, corr1, c + i * n + j0, k,
                           n, mask0, mask1, TILE_ROWS);
        /* Row tail (m % 8): at most one 4-, one 2- and one 1-row tile. */
        if (m - i >= 4) {
            gemm_tile_vnni(a + i * k, panel, corr0, corr1, c + i * n + j0, k,
                           n, mask0, mask1, 4);
            i += 4;
        }
        if (m - i >= 2) {
            gemm_tile_vnni(a + i * k, panel, corr0, corr1, c + i * n + j0, k,
                           n, mask0, mask1, 2);
            i += 2;
        }
        if (m - i >= 1)
            gemm_tile_vnni(a + i * k, panel, corr0, corr1, c + i * n + j0, k,
                           n, mask0, mask1, 1);
#else
        /* Plain signed dot products over the same layout: no bias, so the
         * column sums are not needed. */
        (void)colsum;
        for (int64_t i = 0; i < m; ++i) {
            const int8_t *ar = a + i * k;
            int32_t acc[PANEL] = {0};
            for (int64_t kk = 0; kk < k; ++kk) {
                const int8_t *bq = panel + kk / 4 * 4 * PANEL + kk % 4;
                const int32_t av = ar[kk];
                for (int cc = 0; cc < PANEL; ++cc)
                    acc[cc] += av * bq[cc * 4];
            }
            memcpy(c + i * n + j0, acc, (size_t)width * sizeof(int32_t));
        }
#endif
    }
}

/* ------------------------------------------------------------------ */
/* Everything below is macro-instantiated for float32 and float64.     */
/* ------------------------------------------------------------------ */

/* Segment index, equivalent to searchsorted(bp, x, side="right").
 *
 * When the caller supplies the LookupTable's bucket decomposition
 * (base/thr/lo/inv_width — the exact arrays the numpy fast path uses, so
 * both kernels resolve identical indices), the index is one multiply, one
 * clamp and one compare.  Tables without buckets fall back to a branchless
 * count of breakpoints <= x, which equals the binary search for sorted
 * breakpoints.  NaN inputs clamp to bucket 0 / index 0 — garbage either
 * way, matching the numpy path's NaN pinning. */
#define DEFINE_SEARCH(SUF, T)                                                  \
    static inline int64_t lut_index_##SUF(T v, const T *bp, int64_t nbp,       \
                                          const int32_t *base, const T *thr,  \
                                          T lo, T invw, int64_t nbuckets) {    \
        if (nbuckets) {                                                        \
            T s = (v - lo) * invw;                                             \
            T bmax = (T)(nbuckets - 1);                                        \
            if (s > bmax)                                                      \
                s = bmax;                                                      \
            if (s < (T)0)                                                      \
                s = (T)0;                                                      \
            int64_t b = (int64_t)s; /* NaN -> clamped below */                 \
            if (b < 0)                                                         \
                b = 0;                                                         \
            if (b > nbuckets - 1)                                              \
                b = nbuckets - 1;                                              \
            return (int64_t)base[b] + (v >= thr[b]);                           \
        }                                                                      \
        int64_t idx = 0;                                                       \
        for (int64_t t = 0; t < nbp; ++t)                                      \
            idx += (v >= bp[t]);                                               \
        return idx;                                                            \
    }

DEFINE_SEARCH(f32, float)
DEFINE_SEARCH(f64, double)

/* max |x| and round(x / scale) -> int8 (the two passes of activation
 * quantisation).  Both return 1 when a non-finite element is seen and
 * write nothing in that case.  The float32 variants carry an AVX2 main
 * loop — the scalar early-return finiteness check otherwise blocks
 * autovectorisation — using only bitwise-exact operations (IEEE divide,
 * vroundps in the default half-to-even mode, min/max clip), so the packed
 * bytes are identical to the scalar path's. */
#define DEFINE_QUANT_SCALAR(SUF, T, NEARBYINT, ISFIN)                          \
    static int maxabs_scalar_##SUF(const T *x, int64_t size, double *out) {    \
        T m = (T)0;                                                            \
        for (int64_t i = 0; i < size; ++i) {                                   \
            T v = x[i];                                                        \
            if (!ISFIN(v))                                                     \
                return 1;                                                      \
            T av = v < (T)0 ? -v : v;                                          \
            if (av > m)                                                        \
                m = av;                                                        \
        }                                                                      \
        *out = (double)m;                                                      \
        return 0;                                                              \
    }                                                                          \
    static int qpack_scalar_##SUF(const T *x, int64_t size, double scale,      \
                                  int8_t *q) {                                 \
        T s = (T)scale;                                                        \
        for (int64_t i = 0; i < size; ++i) {                                   \
            T v = x[i];                                                        \
            if (!ISFIN(v))                                                     \
                return 1;                                                      \
            T r = NEARBYINT(v / s);                                            \
            if (r > (T)127)                                                    \
                r = (T)127;                                                    \
            if (r < (T)-127)                                                   \
                r = (T)-127;                                                   \
            q[i] = (int8_t)r;                                                  \
        }                                                                      \
        return 0;                                                              \
    }

DEFINE_QUANT_SCALAR(f32, float, nearbyintf, isfinite)
DEFINE_QUANT_SCALAR(f64, double, nearbyint, isfinite)

EXPORT int repro_maxabs_f64(const double *x, int64_t size, double *out) {
    return maxabs_scalar_f64(x, size, out);
}

EXPORT int repro_qpack_f64(const double *x, int64_t size, double scale,
                           int8_t *q) {
    return qpack_scalar_f64(x, size, scale, q);
}

EXPORT int repro_maxabs_f32(const float *x, int64_t size, double *out) {
    int64_t i = 0;
    float m = 0.0f;
#ifdef __AVX2__
    const __m256 absmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    const __m256 inf = _mm256_set1_ps(INFINITY);
    __m256 vm = _mm256_setzero_ps();
    __m256 bad = _mm256_setzero_ps();
    for (; i + 8 <= size; i += 8) {
        __m256 av = _mm256_and_ps(_mm256_loadu_ps(x + i), absmask);
        /* NLT_UQ: true when !(av < inf), i.e. av == inf or av is NaN. */
        bad = _mm256_or_ps(bad, _mm256_cmp_ps(av, inf, _CMP_NLT_UQ));
        vm = _mm256_max_ps(vm, av);
    }
    if (_mm256_movemask_ps(bad))
        return 1;
    float lanes[8];
    _mm256_storeu_ps(lanes, vm);
    for (int l = 0; l < 8; ++l)
        if (lanes[l] > m)
            m = lanes[l];
#endif
    double tail = 0.0;
    if (maxabs_scalar_f32(x + i, size - i, &tail))
        return 1;
    *out = (double)(m > (float)tail ? m : (float)tail);
    return 0;
}

EXPORT int repro_qpack_f32(const float *x, int64_t size, double scale,
                           int8_t *q) {
    int64_t i = 0;
#ifdef __AVX2__
    const float s = (float)scale;
    const __m256 vs = _mm256_set1_ps(s);
    const __m256 lim = _mm256_set1_ps(127.0f);
    const __m256 nlim = _mm256_set1_ps(-127.0f);
    const __m256 absmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    const __m256 inf = _mm256_set1_ps(INFINITY);
    /* packs_epi32/epi16 interleave the two 128-bit lanes; this dword
     * permutation restores source order in the packed byte vector. */
    const __m256i unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    for (; i + 32 <= size; i += 32) {
        __m256 v0 = _mm256_loadu_ps(x + i);
        __m256 v1 = _mm256_loadu_ps(x + i + 8);
        __m256 v2 = _mm256_loadu_ps(x + i + 16);
        __m256 v3 = _mm256_loadu_ps(x + i + 24);
        __m256 bad = _mm256_cmp_ps(_mm256_and_ps(v0, absmask), inf,
                                   _CMP_NLT_UQ);
        bad = _mm256_or_ps(bad, _mm256_cmp_ps(_mm256_and_ps(v1, absmask),
                                              inf, _CMP_NLT_UQ));
        bad = _mm256_or_ps(bad, _mm256_cmp_ps(_mm256_and_ps(v2, absmask),
                                              inf, _CMP_NLT_UQ));
        bad = _mm256_or_ps(bad, _mm256_cmp_ps(_mm256_and_ps(v3, absmask),
                                              inf, _CMP_NLT_UQ));
        if (_mm256_movemask_ps(bad))
            return 1;
        const int rc = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
        __m256 r0 = _mm256_round_ps(_mm256_div_ps(v0, vs), rc);
        __m256 r1 = _mm256_round_ps(_mm256_div_ps(v1, vs), rc);
        __m256 r2 = _mm256_round_ps(_mm256_div_ps(v2, vs), rc);
        __m256 r3 = _mm256_round_ps(_mm256_div_ps(v3, vs), rc);
        r0 = _mm256_max_ps(_mm256_min_ps(r0, lim), nlim);
        r1 = _mm256_max_ps(_mm256_min_ps(r1, lim), nlim);
        r2 = _mm256_max_ps(_mm256_min_ps(r2, lim), nlim);
        r3 = _mm256_max_ps(_mm256_min_ps(r3, lim), nlim);
        __m256i p01 = _mm256_packs_epi32(_mm256_cvtps_epi32(r0),
                                         _mm256_cvtps_epi32(r1));
        __m256i p23 = _mm256_packs_epi32(_mm256_cvtps_epi32(r2),
                                         _mm256_cvtps_epi32(r3));
        __m256i p = _mm256_packs_epi16(p01, p23);
        p = _mm256_permutevar8x32_epi32(p, unshuffle);
        _mm256_storeu_si256((__m256i *)(q + i), p);
    }
#endif
    return qpack_scalar_f32(x + i, size - i, scale, q + i);
}

#define DEFINE_OPS(SUF, T, NEARBYINT, ISFIN)                                   \
    /* out = (T)((double)acc * scale) [+ bias], matching the numpy     */      \
    /* float64-dequant-then-cast-then-bias-add order bit for bit.      */      \
    EXPORT void repro_dequant_bias_##SUF(const int32_t *acc, double scale,     \
                                         const T *bias, T *out, int64_t rows,  \
                                         int64_t cols) {                       \
        for (int64_t r = 0; r < rows; ++r) {                                   \
            const int32_t *ar = acc + r * cols;                                \
            T *or_ = out + r * cols;                                           \
            if (bias) {                                                        \
                for (int64_t c = 0; c < cols; ++c)                             \
                    or_[c] = (T)((double)ar[c] * scale) + bias[c];             \
            } else {                                                           \
                for (int64_t c = 0; c < cols; ++c)                             \
                    or_[c] = (T)((double)ar[c] * scale);                       \
            }                                                                  \
        }                                                                      \
    }                                                                          \
                                                                               \
    /* Piecewise-linear table: out = s[idx] * x + t[idx].              */      \
    EXPORT void repro_lut_eval_##SUF(const T *x, T *out, int64_t size,         \
                                     const T *bp, const T *sl, const T *ic,    \
                                     int64_t nbp, const int32_t *base,         \
                                     const T *thr, double lo_d, double invw_d, \
                                     int64_t nbuckets) {                       \
        T blo = (T)lo_d, binvw = (T)invw_d;                                    \
        for (int64_t i = 0; i < size; ++i) {                                   \
            T v = x[i];                                                        \
            int64_t idx =                                                      \
                lut_index_##SUF(v, bp, nbp, base, thr, blo, binvw, nbuckets);  \
            out[i] = sl[idx] * v + ic[idx];                                    \
        }                                                                      \
    }                                                                          \
                                                                               \
    /* Fused FFN epilogue: t = x + bias; LUT on clip(t); saturated     */      \
    /* tails (t > hi -> t, t < lo -> 0) exactly as LutGelu does.       */      \
    EXPORT void repro_lut_gelu_##SUF(const T *x, const T *bias, T *out,        \
                                     int64_t rows, int64_t cols, const T *bp,  \
                                     const T *sl, const T *ic, int64_t nbp,    \
                                     const int32_t *base, const T *thr,        \
                                     double lo_d, double invw_d,               \
                                     int64_t nbuckets, double clip_lo_d,       \
                                     double clip_hi_d, int has_clip) {         \
        T blo = (T)lo_d, binvw = (T)invw_d;                                    \
        T lo = (T)clip_lo_d, hi = (T)clip_hi_d;                                \
        for (int64_t r = 0; r < rows; ++r) {                                   \
            const T *xr = x + r * cols;                                        \
            T *or_ = out + r * cols;                                           \
            for (int64_t c = 0; c < cols; ++c) {                               \
                T t = bias ? xr[c] + bias[c] : xr[c];                          \
                T y;                                                           \
                if (has_clip) {                                                \
                    T inside = t < lo ? lo : (t > hi ? hi : t);                \
                    int64_t idx = lut_index_##SUF(inside, bp, nbp, base, thr,  \
                                                  blo, binvw, nbuckets);       \
                    y = sl[idx] * inside + ic[idx];                            \
                    if (t > hi)                                                \
                        y = t;                                                 \
                    if (t < lo)                                                \
                        y = (T)0;                                              \
                } else {                                                       \
                    int64_t idx = lut_index_##SUF(t, bp, nbp, base, thr, blo,  \
                                                  binvw, nbuckets);            \
                    y = sl[idx] * t + ic[idx];                                 \
                }                                                              \
                or_[c] = y;                                                    \
            }                                                                  \
        }                                                                      \
    }                                                                          \
                                                                               \
    /* out = residual + (x + bias); out may alias x.                   */      \
    EXPORT void repro_bias_residual_##SUF(const T *x, const T *bias,           \
                                          const T *res, T *out, int64_t rows,  \
                                          int64_t cols) {                      \
        for (int64_t r = 0; r < rows; ++r) {                                   \
            const T *xr = x + r * cols;                                        \
            const T *rr = res + r * cols;                                      \
            T *or_ = out + r * cols;                                           \
            for (int64_t c = 0; c < cols; ++c)                                 \
                or_[c] = rr[c] + (xr[c] + bias[c]);                            \
        }                                                                      \
    }                                                                          \
                                                                               \
    /* out = max(x + bias, 0) with NaN propagation (np.maximum).       */      \
    EXPORT void repro_bias_relu_##SUF(const T *x, const T *bias, T *out,       \
                                      int64_t rows, int64_t cols) {            \
        for (int64_t r = 0; r < rows; ++r) {                                   \
            const T *xr = x + r * cols;                                        \
            T *or_ = out + r * cols;                                           \
            for (int64_t c = 0; c < cols; ++c) {                               \
                T t = bias ? xr[c] + bias[c] : xr[c];                          \
                or_[c] = (t > (T)0 || t != t) ? t : (T)0;                      \
            }                                                                  \
        }                                                                      \
    }                                                                          \
                                                                               \
    /* LayerNorm tail: out = ((centered * inv_std[row]) * gamma) +     */      \
    /* beta, one pass over the tensor; out may alias centered.         */      \
    EXPORT void repro_scale_affine_##SUF(const T *centered, const T *inv_std,  \
                                         const T *gamma, const T *beta,        \
                                         T *out, int64_t rows, int64_t cols) { \
        for (int64_t r = 0; r < rows; ++r) {                                   \
            const T *xr = centered + r * cols;                                 \
            T *or_ = out + r * cols;                                           \
            T inv = inv_std[r];                                                \
            for (int64_t c = 0; c < cols; ++c)                                 \
                or_[c] = ((xr[c] * inv) * gamma[c]) + beta[c];                 \
        }                                                                      \
    }                                                                          \
                                                                               \
    /* NoNorm affine: out = (x * gamma) + beta; out may alias x.       */      \
    EXPORT void repro_affine_##SUF(const T *x, const T *gamma, const T *beta,  \
                                   T *out, int64_t rows, int64_t cols) {       \
        for (int64_t r = 0; r < rows; ++r) {                                   \
            const T *xr = x + r * cols;                                        \
            T *or_ = out + r * cols;                                           \
            for (int64_t c = 0; c < cols; ++c)                                 \
                or_[c] = (xr[c] * gamma[c]) + beta[c];                         \
        }                                                                      \
    }

DEFINE_OPS(f32, float, nearbyintf, isfinite)
DEFINE_OPS(f64, double, nearbyint, isfinite)
