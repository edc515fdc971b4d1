/* Algorithm 4 (proposed back-projection) for one shard: every tile, one stack.
 *
 * The per-voxel operation sequence of vectorized.accumulate_proposed_block,
 * one IEEE-754 operation per step: float64 coordinates (x, z, f = 1/z, u, w,
 * y_base, slope, offset, v), floor, one float64->float32 rounding per weight,
 * per dv and per sample, then the float32 blend lo*(1-dv) + hi*dv.  The NumPy
 * kernel's column table becomes two float32 products per sample,
 * f32(wl*Q[u0][v]) + f32(wr*Q[u0+1][v]), with the same roundings, so there is
 * no table.  Bit-identity needs a compiler that neither contracts nor
 * reassociates and evaluates float in float: the flags are pinned in native.py
 * (-O2 -ffp-contract=off, never -ffast-math), and the loader proves every
 * object against the NumPy kernel before first use.
 *
 * The projection sits transposed, (Nu+4, Nv+4), inside a two-sample zero
 * border, so a clipped coordinate always lands on a stored sample; a NaN
 * coordinate never reaches an integer cast and is the IndexError that NumPy's
 * take(mode="raise") raises.
 *
 * Scratch per call: 32 bytes per column of the largest tile plus one padded
 * projection.  No threads, no globals, no libm.
 */
#include <stdint.h>
#include <stdlib.h>

enum { ALG4_OK = 0, ALG4_INDEX = 1, ALG4_MEMORY = 2 };

typedef struct {
    double slope, offset; /* v = slope*k + offset (Theorem 3)         */
    const float *left;    /* row u0 of the padded plane; u0+1 follows */
    float wl, wr;         /* f32((1-du)*Wdis), f32(du*Wdis)           */
} column_t;

/* floor(v) into *v0 and np.clip(floor(v), -2, bound) + 2, the index on a
 * double-zero-padded axis; -1 for NaN, where the NumPy kernel raises.
 *
 * Inline and exact without libm or an ISA flag (a floor() call per voxel
 * costs a third of the kernel): below 2^51, adding and subtracting 1.5*2^52
 * rounds to the nearest integer; below 2^52 the integer cast truncates; from
 * there on a double is its own floor.  One difference from floor(): -0.0
 * gives +0.0.  That can flip the sign of a zero weight or zero dv and through
 * it the sign of a zero addend only, and a sum changes with the sign of a
 * zero addend only if it is -0.0 itself, which a slab that starts at +0.0
 * never holds. */
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

/* out: the (nz, ny, nx) float32 slab whose slice 0 is global slice z_start.
 * tiles: n_tiles x (z0, z1, y0, y1), local to the slab, disjoint.
 * projections: (np, nv, nu) float32; matrices: (np, 3, 4) float64.
 * The caller (native.py) has checked every shape, dtype and tile bound. */
int alg4_fold(float *out, int64_t ny, int64_t nx, int64_t z_start,
              const int64_t *tiles, int64_t n_tiles,
              const float *projections, int64_t np, int64_t nv, int64_t nu,
              const double *matrices)
{
    const int64_t stride = nv + 4, slice = ny * nx;
    int64_t max_cols = 1;
    for (int64_t t = 0; t < n_tiles; t++) {
        const int64_t cols = (tiles[4 * t + 3] - tiles[4 * t + 2]) * nx;
        max_cols = cols > max_cols ? cols : max_cols;
    }
    float *plane = calloc((size_t)((nu + 4) * stride), sizeof(float));
    column_t *columns = malloc((size_t)max_cols * sizeof(column_t));
    int status = plane && columns ? ALG4_OK : ALG4_MEMORY;

    for (int64_t s = 0; s < np && status == ALG4_OK; s++) {
        const double *p = matrices + 12 * s;
        const float *projection = projections + s * nv * nu;
        for (int64_t v = 0; v < nv; v++)
            for (int64_t u = 0; u < nu; u++)
                plane[(u + 2) * stride + v + 2] = projection[v * nu + u];

        for (int64_t t = 0; t < n_tiles; t++) {
            const int64_t z0 = tiles[4 * t], z1 = tiles[4 * t + 1];
            const int64_t y0 = tiles[4 * t + 2], y1 = tiles[4 * t + 3];
            const int64_t n_cols = (y1 - y0) * nx;
            /* Theorems 2 and 3: everything but v depends only on (i, j). */
            column_t *column = columns;
            for (int64_t jj = y0; jj < y1; jj++) {
                for (int64_t ii = 0; ii < nx; ii++, column++) {
                    const double i = (double)ii, j = (double)jj;
                    const double x = p[0] * i + p[1] * j + p[3];
                    const double z = p[8] * i + p[9] * j + p[11];
                    const double f = 1.0 / z;
                    const double u = x * f;
                    const double w = f * f;
                    const double y_base = p[4] * i + p[5] * j + p[7];
                    double u0;
                    const int64_t row = floor_index(u, nu, &u0);
                    if (row < 0) {
                        status = ALG4_INDEX;
                        goto done;
                    }
                    const double du = u - u0;
                    column->wl = (float)((1.0 - du) * w);
                    column->wr = (float)(du * w);
                    column->left = plane + row * stride;
                    column->offset = y_base * f;
                    column->slope = p[6] * f;
                }
            }
            for (int64_t kk = z0; kk < z1; kk++) {
                const double k = (double)(z_start + kk);
                float *voxel = out + kk * slice + y0 * nx;
                for (int64_t c = 0; c < n_cols; c++) {
                    const column_t *q = columns + c;
                    const double v = q->slope * k + q->offset;
                    double v0;
                    const int64_t index = floor_index(v, nv, &v0);
                    if (index < 0) {
                        status = ALG4_INDEX;
                        goto done;
                    }
                    const float dv = (float)(v - v0);
                    const float *l = q->left + index, *r = l + stride;
                    const float lo = q->wl * l[0] + q->wr * r[0];
                    const float hi = q->wl * l[1] + q->wr * r[1];
                    const float rest = 1.0f - dv;
                    voxel[c] += lo * rest + hi * dv;
                }
            }
        }
    }
done:
    free(columns);
    free(plane);
    return status;
}
