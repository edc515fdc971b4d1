/* Algorithm 4 (proposed back-projection) for one shard: every tile, one stack.
 *
 * The per-voxel operation sequence of vectorized.accumulate_proposed_block,
 * one IEEE-754 operation per step: float64 coordinates (x, z, f = 1/z, u, w,
 * y_base, slope, offset, v), floor, one float64->float32 rounding per weight,
 * per dv and per sample, then the float32 blend lo*(1-dv) + hi*dv.  The NumPy
 * kernel's column table becomes two float32 products per sample,
 * f32(wl*Q[v][u0]) + f32(wr*Q[v][u0+1]), with the same roundings, so there is
 * no table.  Bit-identity needs a compiler that neither contracts nor
 * reassociates and evaluates float in float: the flags are pinned in native.py
 * (-O2 -ffp-contract=off, never -ffast-math), and the loader proves every
 * object against the NumPy kernel before first use.
 *
 * Two loops run that sequence over a row of tile columns.  The scalar one
 * takes one column per step; on x86-64 the AVX2 one takes eight, one per
 * lane, with the same operations in the same order (a separate mul and add,
 * never an FMA; np.floor; the clip after it; eight-wide gathers).  There is
 * no ISA flag: alg4_fold picks the lane loop per call by cpuid, so one object
 * serves every host of its machine type, and alg4_isa says which loop that is.
 * alg4_fold_scalar never takes the lanes.  Tail columns, lane groups with a
 * non-finite v or |v| >= 2^31, and planes too large for int32 gather offsets
 * run the scalar loop.
 *
 * The projection sits row-major, Nv+4 rows at stride S (the least power of
 * two >= Nu+4: a row offset is a shift), one memcpy per detector row, in a
 * two-sample zero border zeroed once per call: a clipped coordinate always
 * lands on a stored sample; a NaN one never reaches an integer cast and is the
 * IndexError of NumPy's take(mode="raise").  Scratch per call: the plane,
 * 4*(Nv+4)*S bytes, plus 28 bytes per column of the largest tile (structure
 * of arrays, rounded up to a lane multiple).  No threads, no globals of its
 * own (the cpuid answer is libgcc's), no libm.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { ALG4_OK = 0, ALG4_INDEX = 1, ALG4_MEMORY = 2 };
enum { LANES = 8 };

/* The column table of one tile: everything but v (Theorems 2 and 3). */
typedef struct {
    double *slope, *offset; /* v = slope*k + offset (Theorem 3)           */
    float *wl, *wr;         /* f32((1-du)*Wdis), f32(du*Wdis)             */
    int32_t *left;          /* clip(floor u) + 2: u0's column in a row    */
} columns_t;

/* floor(v) into *v0 and np.clip(floor(v), -2, bound) + 2, the index on a
 * double-zero-padded axis; -1 for NaN, where the NumPy kernel raises.
 *
 * Inline and exact without libm or an ISA flag (a floor() call per voxel
 * costs a third of the kernel): below 2^51, adding and subtracting 1.5*2^52
 * rounds to the nearest integer; below 2^52 the integer cast truncates; from
 * there on a double is its own floor.  One difference from floor(), in this
 * scalar loop only (the lanes round down with np.floor's bits): -0.0 gives
 * +0.0.  That can flip the sign of a zero weight or zero dv and through it
 * the sign of a zero addend only, and a sum changes with the sign of a zero
 * addend only if it is -0.0 itself, which a slab that starts at +0.0 never
 * holds. */
static inline int64_t floor_index(double v, int64_t bound, double *v0)
{
    double r;
    if (__builtin_fabs(v) < 0x1p51) {
        r = (v + 0x1.8p52) - 0x1.8p52;
        if (r > v)
            r -= 1.0;
        *v0 = r;
        int64_t t = (int64_t)r;
        t = t < -2 ? -2 : t;
        t = t > bound ? bound : t;
        return t + 2;
    }
    if (v != v)
        return -1;
    r = v;
    if (__builtin_fabs(v) < 0x1p52) {
        r = (double)(int64_t)v;
        if (r > v)
            r -= 1.0;
    }
    *v0 = r;
    return r < 0.0 ? 0 : bound + 2; /* past either clip bound */
}

/* Voxel c of a row at slice k, one column per step.  Samples u0 and u0+1 of
 * padded row v0 sit at left and left+1, and row v0+1 follows one stride on. */
static inline int fold_voxel(float *voxel, const columns_t *t, int64_t c, double k,
                             const float *plane, int shift, int64_t nv)
{
    const double v = t->slope[c] * k + t->offset[c];
    double v0;
    const int64_t index = floor_index(v, nv, &v0);
    if (index < 0)
        return ALG4_INDEX;
    const float dv = (float)(v - v0);
    const float *l = plane + t->left[c] + (index << shift), *h = l + ((int64_t)1 << shift);
    const float lo = t->wl[c] * l[0] + t->wr[c] * l[1];
    const float hi = t->wl[c] * h[0] + t->wr[c] * h[1];
    const float rest = 1.0f - dv;
    voxel[c] += lo * rest + hi * dv;
    return ALG4_OK;
}

#if defined(__x86_64__)
#include <immintrin.h>

static int have_lanes(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

/* fold_voxel for columns [0, n_cols - n_cols % 8), eight per step: the same
 * IEEE sequence once per lane, v in two halves of four doubles and the rest
 * eight wide, with int32 gather offsets left + (index << shift). */
__attribute__((target("avx2"))) static int fold_lanes(
    float *voxel, const columns_t *t, int64_t n_cols, double k,
    const float *plane, int shift, int64_t nv)
{
    const float *next = plane + ((int64_t)1 << shift);
    const __m128i rows = _mm_cvtsi32_si128(shift);
    const __m256d kk = _mm256_set1_pd(k), sign = _mm256_set1_pd(-0.0);
    const __m256d exact = _mm256_set1_pd(0x1p31);
    const __m256i low = _mm256_set1_epi32(-2), high = _mm256_set1_epi32((int32_t)nv);
    const __m256i two = _mm256_set1_epi32(2);
    for (int64_t c = 0; c + LANES <= n_cols; c += LANES) {
        const __m256d v0 = _mm256_add_pd(
            _mm256_mul_pd(_mm256_loadu_pd(t->slope + c), kk),
            _mm256_loadu_pd(t->offset + c));
        const __m256d v1 = _mm256_add_pd(
            _mm256_mul_pd(_mm256_loadu_pd(t->slope + c + 4), kk),
            _mm256_loadu_pd(t->offset + c + 4));
        /* |v| >= 2^31 or NaN in any lane: the scalar loop, whose int64 floor
         * and clip hold every double; below, cvttpd cannot overflow int32. */
        if (_mm256_movemask_pd(_mm256_or_pd(
                _mm256_cmp_pd(_mm256_andnot_pd(sign, v0), exact, _CMP_NLT_UQ),
                _mm256_cmp_pd(_mm256_andnot_pd(sign, v1), exact, _CMP_NLT_UQ)))) {
            for (int64_t lane = c; lane < c + LANES; lane++)
                if (fold_voxel(voxel, t, lane, k, plane, shift, nv) != ALG4_OK)
                    return ALG4_INDEX;
            continue;
        }
        /* np.floor, exactly (-0.0 included), then np.clip in int32. */
        const __m256d r0 = _mm256_round_pd(v0, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
        const __m256d r1 = _mm256_round_pd(v1, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
        const __m256i whole = _mm256_set_m128i(_mm256_cvttpd_epi32(r1), _mm256_cvttpd_epi32(r0));
        const __m256i index = _mm256_add_epi32(
            _mm256_min_epi32(_mm256_max_epi32(whole, low), high), two);
        const __m256 dv = _mm256_set_m128(_mm256_cvtpd_ps(_mm256_sub_pd(v1, r1)),
                                          _mm256_cvtpd_ps(_mm256_sub_pd(v0, r0)));
        const __m256i left = _mm256_loadu_si256((const __m256i *)(t->left + c));
        const __m256i at = _mm256_add_epi32(left, _mm256_sll_epi32(index, rows));
        const __m256 wl = _mm256_loadu_ps(t->wl + c), wr = _mm256_loadu_ps(t->wr + c);
        const __m256 lo = _mm256_add_ps(
            _mm256_mul_ps(wl, _mm256_i32gather_ps(plane, at, 4)),
            _mm256_mul_ps(wr, _mm256_i32gather_ps(plane + 1, at, 4)));
        const __m256 hi = _mm256_add_ps(
            _mm256_mul_ps(wl, _mm256_i32gather_ps(next, at, 4)),
            _mm256_mul_ps(wr, _mm256_i32gather_ps(next + 1, at, 4)));
        const __m256 rest = _mm256_sub_ps(_mm256_set1_ps(1.0f), dv);
        const __m256 blend = _mm256_add_ps(_mm256_mul_ps(lo, rest), _mm256_mul_ps(hi, dv));
        _mm256_storeu_ps(voxel + c, _mm256_add_ps(_mm256_loadu_ps(voxel + c), blend));
    }
    return ALG4_OK;
}
#else
static int have_lanes(void)
{
    return 0;
}
#endif

/* out: the (nz, ny, nx) float32 slab whose slice 0 is global slice z_start.
 * tiles: n_tiles x (z0, z1, y0, y1), local to the slab, disjoint.
 * projections: (np, nv, nu) float32; matrices: (np, 3, 4) float64.
 * The caller (native.py) has checked every shape, dtype and tile bound. */
static int fold(int lanes, float *out, int64_t ny, int64_t nx, int64_t z_start,
                const int64_t *tiles, int64_t n_tiles, const float *projections,
                int64_t np, int64_t nv, int64_t nu, const double *matrices)
{
    if (nu + 4 > INT32_MAX) /* a column the table cannot hold */
        return ALG4_MEMORY;
    const int shift = 64 - __builtin_clzll((uint64_t)(nu + 3)); /* 2^shift >= nu + 4 */
    const int64_t stride = (int64_t)1 << shift, slice = ny * nx;
    lanes = lanes && (nv + 4) * stride <= INT32_MAX; /* else int64 offsets, scalar */
    int64_t max_cols = LANES;
    for (int64_t t = 0; t < n_tiles; t++) {
        const int64_t cols = (tiles[4 * t + 3] - tiles[4 * t + 2]) * nx;
        max_cols = cols > max_cols ? cols : max_cols;
    }
    max_cols = (max_cols + LANES - 1) / LANES * LANES;
    float *plane = calloc((size_t)((nv + 4) * stride), sizeof(float));
    char *scratch = malloc((size_t)max_cols * 28);
    const columns_t table = {
        (double *)scratch, (double *)scratch + max_cols,
        (float *)(scratch + 16 * max_cols), (float *)(scratch + 20 * max_cols),
        (int32_t *)(scratch + 24 * max_cols),
    };
    int status = plane && scratch ? ALG4_OK : ALG4_MEMORY;

    for (int64_t s = 0; s < np && status == ALG4_OK; s++) {
        const double *p = matrices + 12 * s;
        const float *projection = projections + s * nv * nu;
        for (int64_t v = 0; v < nv; v++)
            memcpy(plane + (v + 2) * stride + 2, projection + v * nu, sizeof(float) * nu);

        for (int64_t t = 0; t < n_tiles; t++) {
            const int64_t z0 = tiles[4 * t], z1 = tiles[4 * t + 1];
            const int64_t y0 = tiles[4 * t + 2], y1 = tiles[4 * t + 3];
            const int64_t n_cols = (y1 - y0) * nx;
            /* Theorems 2 and 3: everything but v depends only on (i, j). */
            int64_t c = 0;
            for (int64_t jj = y0; jj < y1; jj++) {
                for (int64_t ii = 0; ii < nx; ii++, c++) {
                    const double i = (double)ii, j = (double)jj;
                    const double x = p[0] * i + p[1] * j + p[3];
                    const double z = p[8] * i + p[9] * j + p[11];
                    const double f = 1.0 / z;
                    const double u = x * f;
                    const double w = f * f;
                    const double y_base = p[4] * i + p[5] * j + p[7];
                    double u0;
                    const int64_t column = floor_index(u, nu, &u0);
                    if (column < 0) {
                        status = ALG4_INDEX;
                        goto done;
                    }
                    const double du = u - u0;
                    table.wl[c] = (float)((1.0 - du) * w);
                    table.wr[c] = (float)(du * w);
                    table.left[c] = (int32_t)column;
                    table.offset[c] = y_base * f;
                    table.slope[c] = p[6] * f;
                }
            }
            for (int64_t kk = z0; kk < z1; kk++) {
                const double k = (double)(z_start + kk);
                float *voxel = out + kk * slice + y0 * nx;
                c = 0;
#if defined(__x86_64__)
                if (lanes) {
                    status = fold_lanes(voxel, &table, n_cols, k, plane, shift, nv);
                    c = n_cols - n_cols % LANES;
                }
#endif
                for (; c < n_cols && status == ALG4_OK; c++)
                    status = fold_voxel(voxel, &table, c, k, plane, shift, nv);
                if (status != ALG4_OK)
                    goto done;
            }
        }
    }
done:
    free(scratch);
    free(plane);
    return status;
}

int alg4_fold(float *out, int64_t ny, int64_t nx, int64_t z_start,
              const int64_t *tiles, int64_t n_tiles,
              const float *projections, int64_t np, int64_t nv, int64_t nu,
              const double *matrices)
{
    return fold(have_lanes(), out, ny, nx, z_start, tiles, n_tiles, projections,
                np, nv, nu, matrices);
}

int alg4_fold_scalar(float *out, int64_t ny, int64_t nx, int64_t z_start,
                     const int64_t *tiles, int64_t n_tiles,
                     const float *projections, int64_t np, int64_t nv, int64_t nu,
                     const double *matrices)
{
    return fold(0, out, ny, nx, z_start, tiles, n_tiles, projections, np, nv, nu,
                matrices);
}

/* The loop alg4_fold runs on this host. */
const char *alg4_isa(void)
{
    return have_lanes() ? "avx2" : "scalar";
}
