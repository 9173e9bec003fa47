/* Compiled statements of the hot kernels of repro.core.kernels.
 *
 * Each function here is the scalar loop its NumPy statement vectorizes, and
 * must return exactly what that statement returns: the same discoveries in the
 * same order, the same exact edge counts, the same bits, the same errors.
 * repro.core.kernels compiles this file once per source and compiler into a
 * per-user cache, loads it with ctypes and falls back to the NumPy bodies when
 * it cannot; tests/test_c_kernels.py holds every function to its NumPy twin.
 *
 * Conventions: the caller allocates every output (in NumPy) at its largest
 * size, checks dtypes and contiguity, and turns a negative return into the
 * exception the NumPy body raises.  Every index read from an array is checked
 * before it is used as an address — here, or by the caller where a comment
 * says so — so a damaged array is an error, never a read outside its buffer.
 */
#include <stdint.h>

#define ROW_OUT_OF_RANGE (-1)
#define COLUMN_OUT_OF_RANGE (-2)
#define SPAN_OUT_OF_RANGE (-3)

/* Every row in range [0, num_rows) and its span inside [0, num_edges]. */
static int64_t check_rows(const int64_t *offsets, int64_t num_rows, int64_t num_edges,
                          const int64_t *rows, int64_t n)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t r = rows[i];
        if (r < 0 || r >= num_rows)
            return ROW_OUT_OF_RANGE;
        if (offsets[r] < 0 || offsets[r] > offsets[r + 1] || offsets[r + 1] > num_edges)
            return SPAN_OUT_OF_RANGE;
    }
    return 0;
}

/* Single-source backward pull: each candidate, in the order given, reads its
 * parents until the first one whose frontier flag is set.  Writes the
 * candidates that found one and that parent, returns how many (or an error),
 * and stores the parents read in *examined. */
#define PULL(NAME, COL_T)                                                            \
    int64_t NAME(const int64_t *offsets, int64_t num_rows, const COL_T *columns,    \
                 int64_t num_edges, const uint8_t *in_frontier, int64_t num_flags,  \
                 const int64_t *candidates, int64_t n, int64_t *discovered,         \
                 int64_t *sources, int64_t *examined)                               \
    {                                                                                \
        int64_t status = check_rows(offsets, num_rows, num_edges, candidates, n);   \
        if (status < 0)                                                              \
            return status;                                                           \
        int64_t found = 0, read = 0;                                                 \
        for (int64_t i = 0; i < n; i++) {                                            \
            int64_t r = candidates[i];                                               \
            for (int64_t k = offsets[r]; k < offsets[r + 1]; k++) {                 \
                int64_t parent = columns[k];                                         \
                if ((uint64_t)parent >= (uint64_t)num_flags)                         \
                    return COLUMN_OUT_OF_RANGE;                                      \
                read++;                                                              \
                if (in_frontier[parent]) {                                           \
                    discovered[found] = r;                                           \
                    sources[found] = parent;                                         \
                    found++;                                                         \
                    break;                                                           \
                }                                                                    \
            }                                                                        \
        }                                                                            \
        *examined = read;                                                            \
        return found;                                                                \
    }

PULL(pull_i32, int32_t)
PULL(pull_i64, int64_t)

/* Total neighbour count of rows (the size of a forward gather), or an error. */
int64_t gather_size(const int64_t *offsets, int64_t num_rows, int64_t num_edges,
                    const int64_t *rows, int64_t n)
{
    int64_t status = check_rows(offsets, num_rows, num_edges, rows, n);
    if (status < 0)
        return status;
    int64_t total = 0;
    for (int64_t i = 0; i < n; i++)
        total += offsets[rows[i] + 1] - offsets[rows[i]];
    return total;
}

/* Forward gather over rows already checked by gather_size: per edge, grouped
 * by row in input order, the row, the destination column and, when weights is
 * given (not NULL), the edge weight. */
#define GATHER(NAME, COL_T)                                                          \
    void NAME(const int64_t *offsets, const COL_T *columns, const double *weights,  \
              const int64_t *rows, int64_t n, int64_t *sources,                     \
              int64_t *destinations, double *edge_weights)                          \
    {                                                                                \
        int64_t e = 0;                                                               \
        for (int64_t i = 0; i < n; i++) {                                            \
            int64_t r = rows[i], start = offsets[r], stop = offsets[r + 1];          \
            for (int64_t k = start; k < stop; k++, e++) {                            \
                sources[e] = r;                                                      \
                destinations[e] = columns[k];                                        \
                if (weights)                                                         \
                    edge_weights[e] = weights[k];                                    \
            }                                                                        \
        }                                                                            \
    }

GATHER(gather_i32, int32_t)
GATHER(gather_i64, int64_t)

/* Batched (lane-word) pull: per candidate, in the order given, the OR of the
 * nwords-word lanes of all its parents, kept where it shares a bit with the
 * candidate's wanted lanes.  Writes those candidates and their gained words,
 * returns how many (or an error) and stores the parents read in *examined:
 * a batched pull has no early exit. */
#define BATCHED_PULL(NAME, COL_T)                                                    \
    int64_t NAME(const int64_t *offsets, int64_t num_rows, const COL_T *columns,    \
                 int64_t num_edges, const uint64_t *parent_words, int64_t num_parents, \
                 int64_t nwords, const int64_t *candidates, const uint64_t *wanted, \
                 int64_t n, int64_t *discovered, uint64_t *gained, int64_t *examined) \
    {                                                                                \
        int64_t status = check_rows(offsets, num_rows, num_edges, candidates, n);   \
        if (status < 0)                                                              \
            return status;                                                           \
        int64_t found = 0, read = 0;                                                 \
        for (int64_t i = 0; i < n; i++) {                                            \
            int64_t r = candidates[i];                                               \
            uint64_t *out = gained + found * nwords;                                 \
            for (int64_t w = 0; w < nwords; w++)                                     \
                out[w] = 0;                                                          \
            for (int64_t k = offsets[r]; k < offsets[r + 1]; k++) {                 \
                int64_t parent = columns[k];                                         \
                if ((uint64_t)parent >= (uint64_t)num_parents)                       \
                    return COLUMN_OUT_OF_RANGE;                                      \
                for (int64_t w = 0; w < nwords; w++)                                 \
                    out[w] |= parent_words[parent * nwords + w];                     \
            }                                                                        \
            read += offsets[r + 1] - offsets[r];                                     \
            uint64_t any = 0;                                                        \
            for (int64_t w = 0; w < nwords; w++)                                     \
                any |= (out[w] &= wanted[i * nwords + w]);                           \
            if (any)                                                                 \
                discovered[found++] = r;                                             \
        }                                                                            \
        *examined = read;                                                            \
        return found;                                                                \
    }

BATCHED_PULL(batched_pull_i32, int32_t)
BATCHED_PULL(batched_pull_i64, int64_t)

/* Batched (lane-word) push over rows already checked by gather_size: OR each
 * row's nwords-word lanes into acc[destination] (acc zeroed, num_cols rows)
 * and list every destination the first time it is reached (seen zeroed, one
 * flag per column).  Returns how many distinct destinations were listed, in
 * first-reached order, or an error. */
#define BATCHED_PUSH(NAME, COL_T)                                                    \
    int64_t NAME(const int64_t *offsets, const COL_T *columns, int64_t num_cols,    \
                 const int64_t *rows, const uint64_t *words, int64_t n,             \
                 int64_t nwords, uint64_t *acc, uint8_t *seen, int64_t *distinct)   \
    {                                                                                \
        int64_t count = 0;                                                           \
        for (int64_t i = 0; i < n; i++) {                                            \
            int64_t r = rows[i];                                                     \
            for (int64_t k = offsets[r]; k < offsets[r + 1]; k++) {                 \
                int64_t d = columns[k];                                              \
                if ((uint64_t)d >= (uint64_t)num_cols)                               \
                    return COLUMN_OUT_OF_RANGE;                                      \
                if (!seen[d]) {                                                      \
                    seen[d] = 1;                                                     \
                    distinct[count++] = d;                                           \
                }                                                                    \
                for (int64_t w = 0; w < nwords; w++)                                 \
                    acc[d * nwords + w] |= words[i * nwords + w];                    \
            }                                                                        \
        }                                                                            \
        return count;                                                                \
    }

BATCHED_PUSH(batched_push_i32, int32_t)
BATCHED_PUSH(batched_push_i64, int64_t)

/* CompressedCSR.decode_rows: per row, LEB128 values (the first column, then
 * the gaps to each following one) summed back into columns.  A row must hold
 * exactly row_offsets' count of values in exactly its own bytes, and every
 * column must lie in [0, num_cols); the first row that breaks either is
 * stored in err[0] (with the bad column in err[1]) and the error returned.
 * Bytes are read only inside a row's span.  The caller has checked that rows
 * are in range and sized out for the sum of their counts. */
#define COUNT_MISMATCH 1
#define BAD_COLUMN 2
#define DECODE(NAME, COL_T)                                                          \
    int64_t NAME(const uint8_t *payload, int64_t payload_size,                      \
                 const int64_t *byte_offsets, const int64_t *row_offsets,           \
                 const int64_t *rows, int64_t n, int64_t num_cols, COL_T *out,      \
                 int64_t *err)                                                       \
    {                                                                                \
        for (int64_t i = 0; i < n; i++) {                                            \
            int64_t r = rows[i], start = byte_offsets[r], stop = byte_offsets[r + 1]; \
            int64_t count = row_offsets[r + 1] - row_offsets[r];                     \
            err[0] = r;                                                              \
            if (start < 0 || stop > payload_size)                                    \
                return SPAN_OUT_OF_RANGE;                                            \
            int64_t ends = 0;                                                        \
            for (int64_t b = start; b < stop; b++)                                   \
                ends += !(payload[b] & 0x80);                                        \
            if (stop <= start || ends != count || (payload[stop - 1] & 0x80))       \
                return COUNT_MISMATCH;                                               \
            uint64_t column = 0;                                                     \
            int64_t b = start;                                                       \
            for (int64_t k = 0; k < count; k++) {                                    \
                uint64_t value = 0;                                                  \
                unsigned shift = 0;                                                  \
                uint8_t byte;                                                        \
                do {                                                                 \
                    byte = payload[b++];                                             \
                    if (shift < 64)                                                  \
                        value |= (uint64_t)(byte & 0x7F) << shift;                   \
                    shift += 7;                                                      \
                } while (byte & 0x80);                                               \
                column += value;                                                     \
                if (column >= (uint64_t)num_cols) {                                  \
                    err[1] = (int64_t)column;                                        \
                    return BAD_COLUMN;                                               \
                }                                                                    \
                *out++ = (COL_T)column;                                              \
            }                                                                        \
        }                                                                            \
        return 0;                                                                    \
    }

DECODE(decode_i32, int32_t)
DECODE(decode_i64, int64_t)
