/* Scalar Eq. 4 loops for the `c` kernel backend.
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

void repro_hybrid_select_batch(const double *mean_hops, double *loads,
                               double h, const double *penalty,
                               double total, int64_t n, int64_t nb,
                               int64_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t b = pick(mean_hops + i * nb, loads, h, penalty, total, nb);
        out[i] = b;
        loads[b] += 1.0;
        total += 1.0;
    }
}

void repro_chained_hybrid(const double *dist_t, const int64_t *prev_ids,
                          const int64_t *head_banks, double *loads,
                          double h, const double *penalty,
                          const double *zeros, double total, int64_t n,
                          int64_t nb, int64_t *chosen)
{
    for (int64_t i = 0; i < n; i++) {
        const double *hops;
        int64_t p = prev_ids[i];
        if (p >= 0)
            hops = dist_t + chosen[p] * nb;
        else if (head_banks[i] >= 0)
            hops = dist_t + head_banks[i] * nb;
        else
            hops = zeros;
        int64_t b = pick(hops, loads, h, penalty, total, nb);
        chosen[i] = b;
        loads[b] += 1.0;
        total += 1.0;
    }
}

/* Eq. 4 where allocation i's affinity banks are
 * banks[offsets[i] .. offsets[i+1]): the mean-hop row is built in `acc`
 * from the transposed hop table's rows, one allocation at a time, so no
 * (n, nb) matrix exists.  Hop entries are small integers, so every row
 * sum is exact in binary64 whatever the order, and the one division by
 * the group size rounds exactly like the dense path's `mean_hops /=
 * counts`.  An empty group divides a zero sum by 1.0, as the dense path
 * did.  Four columns are summed at a time in registers: the sums stay
 * in order over the group, and the loop stores each column once
 * instead of once per affinity bank. */
void repro_affinity_hybrid(const double *dist_t, const int64_t *offsets,
                           const int64_t *banks, double *loads, double h,
                           const double *penalty, double *acc,
                           double total, int64_t n, int64_t nb,
                           int64_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t lo = offsets[i], hi = offsets[i + 1];
        double count = hi > lo ? (double)(hi - lo) : 1.0;
        int64_t b = 0;
        for (; b + 4 <= nb; b += 4) {
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (int64_t j = lo; j < hi; j++) {
                const double *row = dist_t + banks[j] * nb + b;
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
            for (int64_t j = lo; j < hi; j++)
                s += dist_t[banks[j] * nb + b];
            acc[b] = s / count;
        }
        b = pick(acc, loads, h, penalty, total, nb);
        out[i] = b;
        loads[b] += 1.0;
        total += 1.0;
    }
}
