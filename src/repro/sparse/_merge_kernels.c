/* Two-pointer / k-way merge-add kernels for sorted COO gradient streams.
 *
 * Compiled on demand by repro.sparse.ckernels (cc -O3 -shared -fPIC); the
 * package falls back to vectorized NumPy kernels when no compiler is
 * available, so this file is an accelerator, not a dependency.
 *
 * Bit-exactness contract: duplicate indices are accumulated strictly
 * left-to-right in stream order starting from +0.0, which reproduces the
 * seed implementation (np.add.at over a stream-ordered concatenation)
 * bit-for-bit.
 */

#include <stdint.h>

#define MAX_STREAMS 256

/* Merge-add two sorted-unique COO streams.  Writes at most na + nb entries
 * into out_indices / out_values; returns the number written. */
int64_t merge_add_i64_f64(
    int64_t na, const int64_t *ai, const double *av,
    int64_t nb, const int64_t *bi, const double *bv,
    int64_t *out_indices, double *out_values)
{
    int64_t i = 0, j = 0, o = 0;
    while (i < na && j < nb) {
        int64_t x = ai[i], y = bi[j];
        if (x < y) {
            out_indices[o] = x;
            out_values[o] = 0.0 + av[i];
            i++;
        } else if (y < x) {
            out_indices[o] = y;
            out_values[o] = 0.0 + bv[j];
            j++;
        } else {
            out_indices[o] = x;
            out_values[o] = 0.0 + av[i] + bv[j];
            i++;
            j++;
        }
        o++;
    }
    for (; i < na; i++, o++) {
        out_indices[o] = ai[i];
        out_values[o] = 0.0 + av[i];
    }
    for (; j < nb; j++, o++) {
        out_indices[o] = bi[j];
        out_values[o] = 0.0 + bv[j];
    }
    return o;
}

/* Tournament-tree k-way merge-add of sorted COO streams (duplicates allowed
 * both across and within a stream), O(total * log streams).  Equal indices
 * are consumed stream by stream in stream order, so the accumulation matches
 * a sequential pairwise left fold.  Returns the number of entries written,
 * or -1 if num_streams exceeds MAX_STREAMS.
 *
 * A complete winner tree over the (padded to a power of two) stream heads is
 * kept in an implicit array: leaves at win[width + s] hold stream ids, every
 * internal node holds the id of the smaller-keyed child, with ties going to
 * the left child.  Because the leaf layout is in stream order, the left
 * child always covers lower stream ids, so among equal head indices the
 * root is the *lowest* stream id — equal indices are therefore consumed in
 * stream order and the accumulation reproduces the seed's sequential
 * pairwise left fold bit for bit.  Advancing a stream only
 * replays its leaf-to-root path.
 *
 * INT64_MAX marks an exhausted stream; it cannot collide with a real index
 * because indices live in [0, length) with length itself at most INT64_MAX.
 */
int64_t merge_many_tournament_i64_f64(
    int64_t num_streams,
    const int64_t **indices,
    const double **values,
    const int64_t *lengths,
    int64_t *out_indices,
    double *out_values)
{
    int64_t cursor[MAX_STREAMS];
    int64_t key[MAX_STREAMS];
    int32_t win[2 * MAX_STREAMS];
    int64_t s, node, width, o = 0;

    if (num_streams > MAX_STREAMS)
        return -1;
    if (num_streams <= 0)
        return 0;

    width = 1;  /* MAX_STREAMS is a power of two, so width <= MAX_STREAMS */
    while (width < num_streams)
        width <<= 1;

    for (s = 0; s < width; s++) {
        cursor[s] = 0;
        key[s] = (s < num_streams && lengths[s] > 0) ? indices[s][0] : INT64_MAX;
        win[width + s] = (int32_t)s;
    }
    for (node = width - 1; node >= 1; node--) {
        int32_t a = win[2 * node], b = win[2 * node + 1];
        win[node] = (key[b] < key[a]) ? b : a;
    }

    while (key[win[1]] != INT64_MAX) {
        int64_t best = key[win[1]];
        double acc = 0.0;
        do {
            s = win[1];
            do {  /* drain this stream's duplicates of `best` in one go */
                acc += values[s][cursor[s]];
                cursor[s]++;
            } while (cursor[s] < lengths[s] && indices[s][cursor[s]] == best);
            key[s] = (cursor[s] < lengths[s]) ? indices[s][cursor[s]] : INT64_MAX;
            for (node = (width + s) >> 1; node >= 1; node >>= 1) {
                int32_t a = win[2 * node], b = win[2 * node + 1];
                win[node] = (key[b] < key[a]) ? b : a;
            }
        } while (key[win[1]] == best);
        out_indices[o] = best;
        out_values[o] = acc;
        o++;
    }
    return o;
}
