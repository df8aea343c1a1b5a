/* Gather/scatter loops that add one k-local term, extended by the identity,
 * to a state: out += (term (x) I) @ state over 2^n complex amplitudes.
 *
 * The fiber plan comes from qsatkit.kernels.fiber_layout: bases[b] is the
 * index of the first amplitude of fiber b (one per configuration of the
 * qubits outside the support), offsets[a] the displacement of its amplitude
 * a (big-endian over the support order).  Each fiber is read and written
 * once.  The caller checks that every bases[b] + offsets[a] lies in the
 * state and that the payload holds fiber_dim (rank 1) or fiber_dim^2
 * (general, row-major) entries.  Plain C99: loaded with ctypes.
 */
#include <complex.h>
#include <stdint.h>

/* out += (|v><v| (x) I) @ state, with v = amps. */
void apply_rank_one(double complex *out, const double complex *state,
                    const int64_t *bases, int64_t num_bases,
                    const int64_t *offsets, int64_t fiber_dim,
                    const double complex *amps)
{
    for (int64_t b = 0; b < num_bases; b++) {
        const double complex *src = state + bases[b];
        double complex *dst = out + bases[b];
        double complex acc = 0;
        for (int64_t a = 0; a < fiber_dim; a++)
            acc += conj(amps[a]) * src[offsets[a]];
        for (int64_t a = 0; a < fiber_dim; a++)
            dst[offsets[a]] += acc * amps[a];
    }
}

/* out += (M (x) I) @ state, with M = matrix (fiber_dim x fiber_dim). */
void apply_general(double complex *out, const double complex *state,
                   const int64_t *bases, int64_t num_bases,
                   const int64_t *offsets, int64_t fiber_dim,
                   const double complex *matrix)
{
    for (int64_t b = 0; b < num_bases; b++) {
        const double complex *src = state + bases[b];
        double complex *dst = out + bases[b];
        for (int64_t row = 0; row < fiber_dim; row++) {
            double complex acc = 0;
            for (int64_t col = 0; col < fiber_dim; col++)
                acc += matrix[row * fiber_dim + col] * src[offsets[col]];
            dst[offsets[row]] += acc;
        }
    }
}
