/* The scalar Eq. 4 loop and the address resolver of the `c` kernel
 * backend.
 *
 * Every statement mirrors the numpy scalar chain in
 * repro/perf/kernels/pybackend.py one rounding at a time:
 *
 *     s = loads[b] / t;  s = s - 1.0;  s = s * h;
 *     s = s + hops[b];  (s = s + penalty[b];)
 *
 * with first-index argmin via strict `<`.  Both numpy and this file do
 * IEEE-754 binary64 arithmetic in round-to-nearest, so the results are
 * bit-identical *provided the compiler neither contracts a*b+c into
 * FMA nor reorders the chain* — which is why cbackend.py compiles with
 * `-ffp-contract=off -fno-fast-math` and why each step is written as a
 * separate assignment.  `total` is computed by the caller with
 * numpy's pairwise sum and passed in, so even a fractional starting
 * total carries numpy's exact bits.
 */

#include <stdint.h>

static int64_t pick(const double *hops, const double *loads, double h,
                    const double *penalty, double total, int64_t nb)
{
    int64_t best = 0;
    double bestscore = 0.0;
    if (h > 0.0 && total > 0.0) {
        double t = total / (double)nb;
        for (int64_t b = 0; b < nb; b++) {
            double s = loads[b] / t;
            s = s - 1.0;
            s = s * h;
            s = s + hops[b];
            if (penalty)
                s = s + penalty[b];
            /* numpy argmin: strict `<` keeps the first index on ties;
             * the first NaN (s != s) wins over any number. */
            if (b == 0 || s < bestscore
                    || (s != s && bestscore == bestscore)) {
                bestscore = s;
                best = b;
            }
        }
    } else {
        for (int64_t b = 0; b < nb; b++) {
            double s = hops[b];
            if (penalty)
                s = s + penalty[b];
            if (b == 0 || s < bestscore
                    || (s != s && bestscore == bestscore)) {
                bestscore = s;
                best = b;
            }
        }
    }
    return best;
}

/* Eq. 4 over n allocations.  Allocation i scores the mean of the rows
 * named by its group, the next sizes[i] entries of refs: row r of
 * `rows` (nb columns), or for a negative ref -(p + 1) the row of the
 * bank chosen for allocation p < i (rows are then bank-indexed).  A
 * one-ref group reads its row in place.  Any other group's refs are
 * resolved to row offsets in `idx` (one entry per ref of the largest
 * group), and its mean is built in `acc`: each column summed over the
 * group in order from 0.0, then divided once by the group size (1.0
 * for an empty group, which so scores a zero row).  Four columns are
 * summed at a time in registers, which keeps the order of every sum
 * and stores each column once.  The caller has checked every ref and
 * size (inputs.check_inputs). */
void repro_eq4(const int64_t *sizes, const int64_t *refs,
               const double *rows, double *loads, double h,
               const double *penalty, double *acc, int64_t *idx,
               double total, int64_t n, int64_t nb, int64_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t k = sizes[i];
        for (int64_t j = 0; j < k; j++) {
            int64_t r = refs[j];
            idx[j] = (r < 0 ? out[-r - 1] : r) * nb;
        }
        refs += k;
        const double *hops = acc;
        if (k == 1) {
            hops = rows + idx[0];
        } else {
            double count = k > 0 ? (double)k : 1.0;
            int64_t b = 0;
            for (; b + 4 <= nb; b += 4) {
                double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
                for (int64_t j = 0; j < k; j++) {
                    const double *row = rows + idx[j] + b;
                    s0 += row[0];
                    s1 += row[1];
                    s2 += row[2];
                    s3 += row[3];
                }
                acc[b] = s0 / count;
                acc[b + 1] = s1 / count;
                acc[b + 2] = s2 / count;
                acc[b + 3] = s3 / count;
            }
            for (; b < nb; b++) {
                double s = 0.0;
                for (int64_t j = 0; j < k; j++)
                    s += rows[idx[j] + b];
                acc[b] = s / count;
            }
        }
        int64_t b = pick(hops, loads, h, penalty, total, nb);
        out[i] = b;
        loads[b] += 1.0;
        total += 1.0;
    }
}

/* ------------------------------------------------------------------ */
/* Address resolution: element -> virtual address -> physical address
 * -> L3 bank (and physical line), the numpy chain of
 * ArrayHandle.addr_of / AddressSpace.translate /
 * InterleaveOverrideTable.banks in one pass over cache-sized blocks.
 *
 * Everything here is int64 arithmetic, so exactness needs no compiler
 * flags: adds and multiplies wrap through uint64 the way numpy's int64
 * ops wrap, right shifts past 63 bits give the sign like numpy's, and
 * `%` / `/` are floored like numpy's.  Region and IOT membership is
 * "the entry with the largest start at or below the address, if the
 * address lies below its end" -- exactly the numpy searchsorted
 * lookups, and exact membership because neither table overlaps.
 *
 * Tables (built by AddressSpace.resolver_table and
 * InterleaveOverrideTable.resolver_table, int64 throughout):
 *   space: nregions, then per region (in start order) start, end,
 *          pbase - vbase, frame-table address, frame count, page shift
 *          (-1 when the page size is no power of two) and page size,
 *          the last four 0 for a linear region;
 *   iot:   num_banks, bank mask (-1: use floored %), entries,
 *          migrations, remap-vector address (0: none), then per entry
 *          start, end, shift, then per migration start, end, shift,
 *          offset (applied in order, the last match winning).
 * A frame below zero is unmapped.
 *
 * Inputs (kind): 0 virtual addresses; 1 element indices of a strided
 * array (base + stride * i, i in [0, count)); 2 indices into an
 * address table of `count` entries (i in [0, count) as well).
 * Returns -1, or the position of the first element
 * that the numpy chain would reject (index out of range, address in
 * no region, unmapped page); the caller then re-runs the chain for its
 * exception.  `lines` and `raw` (pre-remap banks) may be NULL.
 *
 * Elements go in blocks of BLOCK.  A block is first run in one loop
 * with no lookups, assuming every element stays in the region and IOT
 * span the last lookup found (a stream mostly walks one array); from
 * the first element that does not, the rest of the block goes element
 * by element, searching the tables where the cached region or span
 * misses.
 * Migration entries, the raw copy and the remap are extra passes over
 * the block, run only when present.
 */

#define SPACE_ROW 7
#define IOT_HDR 5
#define BLOCK 512

static inline int64_t wrap_add(int64_t a, int64_t b)
{
    return (int64_t)((uint64_t)a + (uint64_t)b);
}

static inline int64_t wrap_sub(int64_t a, int64_t b)
{
    return (int64_t)((uint64_t)a - (uint64_t)b);
}

static inline int64_t shr(int64_t a, int64_t s)
{
    return s < 64 ? a >> s : (a < 0 ? -1 : 0);
}

static inline int64_t floor_mod(int64_t a, int64_t m)
{
    int64_t r = a % m;
    return (r != 0 && (r < 0) != (m < 0)) ? r + m : r;
}

static inline int64_t floor_div(int64_t a, int64_t m)
{
    int64_t q = a / m;
    return (a % m != 0 && (a < 0) != (m < 0)) ? q - 1 : q;
}

/* Row of the largest start <= a among `n` rows of `width` sorted by
 * start, or -1. */
static int64_t last_start_at_or_below(const int64_t *rows, int64_t n,
                                      int64_t width, int64_t a)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (rows[mid * width] <= a)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo - 1;
}

/* The region row holding virtual address v, or NULL. */
static const int64_t *region_of(const int64_t *space, int64_t v)
{
    int64_t r = last_start_at_or_below(space + 1, space[0], SPACE_ROW, v);
    const int64_t *row = space + 1 + r * SPACE_ROW;
    return r >= 0 && v < row[1] ? row : 0;
}

/* Physical address of v in region `row`; 0 (with *ok cleared) when its
 * page is unmapped. */
static inline int64_t translate(const int64_t *row, int64_t v, int *ok)
{
    if (row[6] == 0)
        return wrap_add(v, row[2]);
    const int64_t *frames = (const int64_t *)(intptr_t)row[3];
    int64_t off = v - row[0], page, in_page;
    if (row[5] >= 0) {
        page = off >> row[5];
        in_page = off & (row[6] - 1);
    } else {
        page = off / row[6];
        in_page = off % row[6];
    }
    if (page >= row[4] || frames[page] < 0) {
        *ok = 0;
        return 0;
    }
    return wrap_add(frames[page], in_page);
}

/* The IOT span holding physical address p: [lo, hi) over which the
 * bank hash is one formula, `entry` its row (NULL: the default hash). */
struct span {
    int64_t lo, hi;
    const int64_t *entry;
};

static struct span span_of(const int64_t *iot, int64_t p)
{
    const int64_t nent = iot[2], *entries = iot + IOT_HDR;
    int64_t k = last_start_at_or_below(entries, nent, 3, p);
    int64_t next = k + 1 < nent ? entries[(k + 1) * 3] : INT64_MAX;
    struct span s;
    if (k >= 0 && p < entries[k * 3 + 1]) {
        s.entry = entries + k * 3;
        s.lo = s.entry[0];
        s.hi = s.entry[1] < next ? s.entry[1] : next;
    } else {
        s.entry = 0;
        s.lo = k >= 0 ? entries[k * 3 + 1] : INT64_MIN;
        s.hi = next;
    }
    return s;
}

static inline int64_t bank_in(const int64_t *entry, int64_t p,
                              int64_t default_shift, int64_t mask,
                              int64_t nb)
{
    int64_t b = entry ? wrap_sub(p, entry[0]) >> entry[2]
                      : p >> default_shift;
    return mask >= 0 ? (b & mask) : floor_mod(b, nb);
}

#if defined(__GNUC__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE inline
#endif

/* What the last lookups found, reused while elements stay inside it:
 * one region row and one IOT span, and for the fast loop their fields
 * (the span's hash is ((p - off) >> shift) & mask either way: the
 * default hash is off 0, shift default_shift).  [r_lo, r_hi) is the
 * region, narrowed for a linear one to the part that maps into the
 * span; empty, it keeps the fast loop off (no region yet, or a page
 * size that is no power of two). */
struct cached {
    const int64_t *row;
    struct span sp;
    int64_t r_lo, r_hi, delta, nframes, pshift, psize;
    const int64_t *frames;
    int64_t off, shift;
};

/* Virtual address of element j of the block: 0 when it fails. */
static ALWAYS_INLINE int64_t vaddr_of(const int64_t kind, const int64_t *x,
                                      int64_t j, int64_t base,
                                      int64_t stride, int64_t count,
                                      const int64_t *table, int *ok)
{
    int64_t v = x[j];
    if (kind == 1) {
        *ok &= (uint64_t)v < (uint64_t)count;
        return wrap_add(base, (int64_t)((uint64_t)v * (uint64_t)stride));
    }
    if (kind == 2) {
        if ((uint64_t)v >= (uint64_t)count) {
            *ok = 0;
            return 0;
        }
        return table[v];
    }
    return v;
}

/* The common case: every element of the block lies in the cached
 * region and span.  Returns how many leading elements it resolved: m,
 * or the first that leaves the region or span (or fails), which the
 * caller goes on from with lookups.  `paged` is a constant per call
 * site, like `kind`. */
static ALWAYS_INLINE int64_t fast_block(const int64_t kind, const int paged,
                                        const struct cached *c,
                                        const int64_t *x, int64_t m,
                                        int64_t base, int64_t stride,
                                        int64_t count, const int64_t *table,
                                        int64_t mask, int64_t line_shift,
                                        int64_t *restrict pa,
                                        int64_t *restrict bk,
                                        int64_t *restrict ln)
{
    const uint64_t r_span = (uint64_t)(c->r_hi - c->r_lo);
    const uint64_t t_span = (uint64_t)(c->sp.hi - c->sp.lo);
    int ok = 1;
    for (int64_t j = 0; j < m; j++) {
        int64_t v = vaddr_of(kind, x, j, base, stride, count, table, &ok);
        uint64_t off = (uint64_t)v - (uint64_t)c->r_lo;
        ok &= off < r_span;
        int64_t p;
        if (paged) {
            int64_t page = (int64_t)(off >> c->pshift);
            int in = page < c->nframes;
            int64_t f = c->frames[in ? page : 0];
            ok &= in & (f >= 0);
            p = wrap_add(f, (int64_t)(off & (uint64_t)(c->psize - 1)));
            ok &= (uint64_t)p - (uint64_t)c->sp.lo < t_span;
        } else {
            p = wrap_add(v, c->delta);
        }
        if (!ok)
            return j;
        pa[j] = p;
        bk[j] = (wrap_sub(p, c->off) >> c->shift) & mask;
        ln[j] = p >> line_shift;
    }
    return m;
}

/* Elements x[0, m) one by one, looking up each region and span the
 * cache does not hold; -1, or the position of the element the numpy
 * chain rejects. */
static int64_t slow_block(int64_t kind, struct cached *c,
                          const int64_t *space, const int64_t *iot,
                          int64_t default_shift, int64_t line,
                          int64_t line_shift, const int64_t *x, int64_t m,
                          int64_t base, int64_t stride, int64_t count,
                          const int64_t *table, int64_t *pa, int64_t *bk,
                          int64_t *ln)
{
    const int64_t nb = iot[0], mask = iot[1];
    for (int64_t j = 0; j < m; j++) {
        int ok = 1;
        int64_t v = kind == 1
            ? vaddr_of(1, x, j, base, stride, count, table, &ok)
            : kind == 2
            ? vaddr_of(2, x, j, base, stride, count, table, &ok)
            : x[j];
        if (!ok)
            return j;
        if (!c->row || v < c->row[0] || v >= c->row[1])
            if (!(c->row = region_of(space, v)))
                return j;
        int64_t p = translate(c->row, v, &ok);
        if (!ok)
            return j;
        if (p < c->sp.lo || p >= c->sp.hi)
            c->sp = span_of(iot, p);
        pa[j] = p;
        bk[j] = bank_in(c->sp.entry, p, default_shift, mask, nb);
        ln[j] = line_shift >= 0 ? p >> line_shift : floor_div(p, line);
    }
    const int64_t *row = c->row;
    int64_t lo = row[0], hi = row[1], d = row[2];
    if (row[6] == 0) {
        /* Linear: narrow [lo, hi) to the addresses whose physical
         * address v + d also lies in the span, so the fast loop tests
         * one range.  v + d rises with v unless the add wraps inside
         * the region, which keeps the fast loop off. */
        if (d > 0 ? hi - 1 > INT64_MAX - d : lo < INT64_MIN - d) {
            hi = lo;
        } else {
            if (c->sp.lo > lo + d)
                lo = c->sp.lo - d;
            if (c->sp.hi <= hi - 1 + d)
                hi = c->sp.hi - d;
        }
    } else if (row[5] < 0) {
        hi = lo;
    }
    c->r_lo = lo;
    c->r_hi = hi;
    c->delta = d;
    c->frames = (const int64_t *)(intptr_t)row[3];
    c->nframes = row[4];
    c->pshift = row[5];
    c->psize = row[6];
    c->off = c->sp.entry ? c->sp.entry[0] : 0;
    c->shift = c->sp.entry ? c->sp.entry[2] : default_shift;
    return -1;
}

static ALWAYS_INLINE int64_t fast_block_of(const int64_t kind,
                                           const struct cached *c,
                                           const int64_t *x, int64_t m,
                                           int64_t base, int64_t stride,
                                           int64_t count, const int64_t *table,
                                           int64_t mask, int64_t line_shift,
                                           int64_t *pa, int64_t *bk,
                                           int64_t *ln)
{
    if (c->psize == 0)
        return fast_block(kind, 0, c, x, m, base, stride, count, table,
                          mask, line_shift, pa, bk, ln);
    return fast_block(kind, 1, c, x, m, base, stride, count, table, mask,
                      line_shift, pa, bk, ln);
}

int64_t repro_resolve(const int64_t *space, const int64_t *iot,
                      int64_t default_shift, int64_t line, int64_t kind,
                      const int64_t *in, int64_t n, int64_t base,
                      int64_t stride, int64_t count, const int64_t *table,
                      int64_t *banks, int64_t *lines, int64_t *raw)
{
    const int64_t nb = iot[0], mask = iot[1], nmig = iot[3];
    const int64_t *remap = (const int64_t *)(intptr_t)iot[4];
    const int64_t *migs = iot + IOT_HDR + 3 * iot[2];
    /* The fast loop needs a shift for the line and a mask for the
     * bank; without them every block takes the slow path. */
    int64_t line_shift = -1;
    if (line > 0 && (line & (line - 1)) == 0)
        for (line_shift = 0; ((int64_t)1 << line_shift) < line; line_shift++)
            ;
    const int fast = line_shift >= 0 && mask >= 0;
    /* Banks go straight to the output unless something rewrites them. */
    const int direct = !nmig && !remap && !raw;
    struct cached c = {0};
    c.sp.lo = c.sp.hi = 1;
    int64_t pa[BLOCK], bk_buf[BLOCK], ln_buf[BLOCK];
    for (int64_t i0 = 0; i0 < n; i0 += BLOCK) {
        const int64_t m = n - i0 < BLOCK ? n - i0 : BLOCK;
        const int64_t *x = in + i0;
        int64_t *bk = direct ? banks + i0 : bk_buf;
        int64_t *ln = lines ? lines + i0 : ln_buf;
        int64_t done = 0;
        if (fast) {
            if (kind == 1)
                done = fast_block_of(1, &c, x, m, base, stride, count,
                                     table, mask, line_shift, pa, bk, ln);
            else if (kind == 2)
                done = fast_block_of(2, &c, x, m, base, stride, count,
                                     table, mask, line_shift, pa, bk, ln);
            else
                done = fast_block_of(0, &c, x, m, base, stride, count,
                                     table, mask, line_shift, pa, bk, ln);
        }
        if (done < m) {
            int64_t bad = slow_block(kind, &c, space, iot, default_shift,
                                     line, line_shift, x + done, m - done,
                                     base, stride, count, table, pa + done,
                                     bk + done, ln + done);
            if (bad >= 0)
                return i0 + done + bad;
        }
        if (direct)
            continue;
        for (int64_t k = 0; k < nmig; k++) {
            const int64_t *e = migs + 4 * k;
            for (int64_t j = 0; j < m; j++)
                if (pa[j] >= e[0] && pa[j] < e[1]) {
                    int64_t o = wrap_add(shr(wrap_sub(pa[j], e[0]), e[2]),
                                         e[3]);
                    bk[j] = mask >= 0 ? (o & mask) : floor_mod(o, nb);
                }
        }
        if (raw)
            for (int64_t j = 0; j < m; j++)
                raw[i0 + j] = bk[j];
        for (int64_t j = 0; j < m; j++)
            banks[i0 + j] = remap ? remap[bk[j]] : bk[j];
    }
    return -1;
}
