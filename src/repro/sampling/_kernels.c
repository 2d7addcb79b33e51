/* Native walker kernels over CSR arrays.
 *
 * Compiled on demand by repro/sampling/_native.py (cc -O2 -shared
 * -fPIC) and called through ctypes.  Every kernel consumes
 * pre-drawn uniforms in [0, 1) supplied by the caller, one protocol-
 * defined draw order per walk type, and does all weight arithmetic in
 * exact int64 — so the pure-Python fallback in
 * repro/sampling/vectorized.py reproduces these walks bit for bit.
 *
 * The only floating-point operation is the scaling of a uniform into
 * an integer range, (int64_t)(u * (double)range), which is the same
 * IEEE-754 double multiply + truncation CPython performs for
 * int(u * range).  The clamp to range - 1 guards the (probability ~0)
 * rounding-up of u values adjacent to 1.0.
 *
 * One kernel per sampler.  Each walks with one draw protocol and
 * writes whichever outputs the caller asks for; every output pointer
 * may be NULL (ctypes maps Python None to NULL) to skip it:
 *
 *   trace outputs   out_u/out_v (+ out_idx for FS; out_eu/out_ev/
 *                   out_visited for MH): the per-step record the
 *                   drained trace is built from, one slot per step
 *                   (MH edges: one per accepted proposal)
 *   block outputs   folded per stat-bearing step (the step's target;
 *                   for MH, accepted proposals only):
 *     deg_counts[deg(target)]++   exact int64 per-degree visit counts,
 *                                 length max_degree + 1
 *     visit_counts[target]++      exact int64 per-vertex visit counts,
 *                                 length num_vertices
 *     edge_keys[k] = u * key_base + v
 *                                 append-order edge keys; key_base is
 *                                 num_vertices, so keys decode uniquely
 *                                 and sort in (u, v) order
 *
 * Counts are INCREMENTED, never zeroed, so multi-walker sessions may
 * fold many kernel calls into one block.  All block contents are exact
 * integers; float statistics (1/deg reweighting, eq. (7)/(9) sums) are
 * derived in Python from the counts, so the block and trace paths
 * produce bit-identical estimates.
 *
 * repro_fs_steps also takes a caller-owned `fenwick` scratch buffer
 * (length m + 1, or NULL for the linear scan) that replaces the
 * per-step O(m) cumulative-degree scan with an O(log m) binary-
 * indexed-tree descent over the same exact int64 prefix sums — the
 * identical walker and edge offset, so the walk is the same either way.
 *
 * Reentrancy contract: these kernels run concurrently from many
 * threads while ctypes has released the GIL, over one shared CSR
 * graph.  Keep them stateless — no static/global storage, no
 * allocation, writes only to the caller-owned output buffers (and,
 * for FS, the caller's private frontier and scratch arrays).
 */

#include <stdint.h>

static inline int64_t scale_uniform(double u, int64_t range) {
    int64_t value = (int64_t)(u * (double)range);
    return value >= range ? range - 1 : value;
}

/* Simple random walk: `steps` transitions from `start`.
 * Draws: one uniform per step.
 * Returns the final walker position. */
int64_t repro_rw_steps(const int64_t *indptr, const int64_t *indices,
                       int64_t start, int64_t steps,
                       const double *uniforms, int64_t *out_u,
                       int64_t *out_v, int64_t key_base,
                       int64_t *deg_counts, int64_t *visit_counts,
                       int64_t *edge_keys) {
    int64_t current = start;
    for (int64_t k = 0; k < steps; k++) {
        int64_t row = indptr[current];
        int64_t degree = indptr[current + 1] - row;
        int64_t next = indices[row + scale_uniform(uniforms[k], degree)];
        if (out_u)
            out_u[k] = current;
        if (out_v)
            out_v[k] = next;
        if (deg_counts)
            deg_counts[indptr[next + 1] - indptr[next]]++;
        if (visit_counts)
            visit_counts[next]++;
        if (edge_keys)
            edge_keys[k] = current * key_base + next;
        current = next;
    }
    return current;
}

/* m-dimensional Frontier Sampling.
 *
 * degree_selection != 0 (Algorithm 1): each step consumes ONE uniform
 * u, scaled onto the frontier's total degree; the cumulative-weight
 * search over the frontier degree vector yields both the walker index
 * and the offset of the crossed edge inside that walker's neighbor
 * row.  (Picking a uniform point in the concatenated incident-edge
 * lists IS the degree-proportional walker pick followed by a uniform
 * neighbor pick.)
 *
 * degree_selection == 0 (uniform-walker ablation): two uniforms per
 * step — walker index, then neighbor offset.
 *
 * Mutates `frontier` in place.
 * Returns 0, or -1 if the frontier's total degree is ever <= 0. */
int64_t repro_fs_steps(const int64_t *indptr, const int64_t *indices,
                       int64_t *frontier, int64_t m, int64_t steps,
                       int64_t degree_selection, const double *uniforms,
                       int64_t *out_u, int64_t *out_v, int64_t *out_idx,
                       int64_t key_base, int64_t *deg_counts,
                       int64_t *visit_counts, int64_t *edge_keys,
                       int64_t *fenwick) {
    int64_t total = 0;
    for (int64_t i = 0; i < m; i++)
        total += indptr[frontier[i] + 1] - indptr[frontier[i]];
    /* Degrees are exact int64, so the tree's prefix sums have no
     * rounding: the descent selects the SAME (walker, edge offset)
     * pair as the linear scan. */
    int64_t top_bit = 0;
    if (degree_selection && fenwick) {
        for (int64_t i = 0; i <= m; i++)
            fenwick[i] = 0;
        for (int64_t i = 0; i < m; i++) {
            int64_t degree = indptr[frontier[i] + 1] - indptr[frontier[i]];
            for (int64_t j = i + 1; j <= m; j += j & (-j))
                fenwick[j] += degree;
        }
        top_bit = 1;
        while (top_bit * 2 <= m)
            top_bit *= 2;
    }
    for (int64_t k = 0; k < steps; k++) {
        int64_t idx, offset;
        if (degree_selection) {
            if (total <= 0)
                return -1;
            int64_t target = scale_uniform(uniforms[k], total);
            if (fenwick) {
                /* Largest pos with prefix_degree(pos) <= target; the
                 * walker bucket [prefix(idx), prefix(idx + 1)) holding
                 * `target` (zero-degree buckets are empty, matching
                 * the scan's skip).  target < total keeps pos < m. */
                int64_t pos = 0, rem = target;
                for (int64_t bit = top_bit; bit; bit >>= 1) {
                    int64_t nxt = pos + bit;
                    if (nxt <= m && fenwick[nxt] <= rem) {
                        pos = nxt;
                        rem -= fenwick[nxt];
                    }
                }
                idx = pos;
                offset = rem;
            } else {
                int64_t acc = 0;
                idx = 0;
                for (;;) {
                    int64_t vertex = frontier[idx];
                    int64_t degree = indptr[vertex + 1] - indptr[vertex];
                    if (target < acc + degree) {
                        offset = target - acc;
                        break;
                    }
                    acc += degree;
                    idx++; /* target < total guarantees idx stays < m */
                }
            }
        } else {
            idx = scale_uniform(uniforms[2 * k], m);
            int64_t vertex = frontier[idx];
            int64_t degree = indptr[vertex + 1] - indptr[vertex];
            if (degree <= 0)
                return -1;
            offset = scale_uniform(uniforms[2 * k + 1], degree);
        }
        int64_t current = frontier[idx];
        int64_t old_degree = indptr[current + 1] - indptr[current];
        int64_t next = indices[indptr[current] + offset];
        int64_t new_degree = indptr[next + 1] - indptr[next];
        if (out_u)
            out_u[k] = current;
        if (out_v)
            out_v[k] = next;
        if (out_idx)
            out_idx[k] = idx;
        if (deg_counts)
            deg_counts[new_degree]++;
        if (visit_counts)
            visit_counts[next]++;
        if (edge_keys)
            edge_keys[k] = current * key_base + next;
        frontier[idx] = next;
        total += new_degree - old_degree;
        if (degree_selection && fenwick && new_degree != old_degree)
            for (int64_t j = idx + 1; j <= m; j += j & (-j))
                fenwick[j] += new_degree - old_degree;
    }
    return 0;
}

/* Metropolis-Hastings walk targeting the uniform vertex law.
 * Draws: two uniforms per step (proposal offset, accept test).
 * Accept iff u2 * deg(proposal) < deg(current), i.e. with probability
 * min(1, deg(current) / deg(proposal)).
 *
 * out_eu/out_ev and edge_keys are filled densely over [0, accepted);
 * out_visited holds the position after every step.  Writes the final
 * walker position to out_state[0].
 * Returns the number of accepted transitions. */
int64_t repro_mh_steps(const int64_t *indptr, const int64_t *indices,
                       int64_t start, int64_t steps,
                       const double *uniforms, int64_t *out_eu,
                       int64_t *out_ev, int64_t *out_visited,
                       int64_t key_base, int64_t *deg_counts,
                       int64_t *visit_counts, int64_t *edge_keys,
                       int64_t *out_state) {
    int64_t current = start;
    int64_t accepted = 0;
    for (int64_t k = 0; k < steps; k++) {
        int64_t row = indptr[current];
        int64_t deg_u = indptr[current + 1] - row;
        int64_t proposal =
            indices[row + scale_uniform(uniforms[2 * k], deg_u)];
        int64_t deg_v = indptr[proposal + 1] - indptr[proposal];
        if (uniforms[2 * k + 1] * (double)deg_v < (double)deg_u) {
            if (out_eu)
                out_eu[accepted] = current;
            if (out_ev)
                out_ev[accepted] = proposal;
            if (deg_counts)
                deg_counts[deg_v]++;
            if (visit_counts)
                visit_counts[proposal]++;
            if (edge_keys)
                edge_keys[accepted] = current * key_base + proposal;
            accepted++;
            current = proposal;
        }
        if (out_visited)
            out_visited[k] = current;
    }
    if (out_state)
        out_state[0] = current;
    return accepted;
}
