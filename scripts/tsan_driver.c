/* ThreadSanitizer driver for kernels_native.c.
 *
 * TSan cannot be LD_PRELOADed under an uninstrumented CPython (the runtime
 * requires the main executable to be instrumented and segfaults otherwise),
 * so scripts/sanitize.sh --tsan falls back to this harness: it links
 * kernels_native.c directly, fully instrumented, and reproduces the exact
 * concurrency pattern NativeKernel._run_rows uses — N threads working
 * disjoint row blocks of shared output buffers while sharing the read-only
 * operands (packed weights, column sums, bias/gamma/beta vectors).  Any
 * data race the threaded Python path could hit between kernel invocations
 * on a shared tensor is visible here; TSan aborts the run on a report.
 * The GEMM shape has row, column and k tails, and its result is checked
 * against a plain triple loop.
 *
 * Thread count comes from REPRO_KERNEL_THREADS (default 4).
 */
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

int repro_gemm_impl(void);
void repro_gemm_s8(const int8_t *a, const int8_t *panels,
                   const int32_t *colsum, int32_t *c, int64_t m, int64_t k,
                   int64_t n);
int repro_maxabs_f64(const double *x, int64_t size, double *out);
int repro_qpack_f64(const double *x, int64_t size, double scale, int8_t *q);
void repro_dequant_bias_f64(const int32_t *acc, double scale,
                            const double *bias, double *out, int64_t rows,
                            int64_t cols);
void repro_bias_residual_f64(const double *x, const double *bias,
                             const double *res, double *out, int64_t rows,
                             int64_t cols);
void repro_bias_relu_f64(const double *x, const double *bias, double *out,
                         int64_t rows, int64_t cols);
void repro_scale_affine_f64(const double *centered, const double *inv_std,
                            const double *gamma, const double *beta,
                            double *out, int64_t rows, int64_t cols);

/* M % 8, K % 4 and N % 32 are all nonzero: every GEMM tail runs. */
enum { M = 195, K = 130, N = 100, ITERS = 25 };
enum { KQ = (K + 3) / 4, PANELS = (N + 31) / 32 };

typedef struct {
    int tid;
    int threads;
    const int8_t *a;
    const int8_t *panels;
    const int32_t *colsum;
    int32_t *acc;
    const double *xf;
    const double *bias;
    const double *res;
    const double *inv_std;
    const double *gamma;
    const double *beta;
    double *out;
    int8_t *q;
    int failed;
} job_t;

static void *worker(void *arg) {
    job_t *job = (job_t *)arg;
    /* Same decomposition as NativeKernel._run_rows: np.linspace row bounds. */
    int64_t start = (int64_t)((double)M * job->tid / job->threads);
    int64_t stop = (int64_t)((double)M * (job->tid + 1) / job->threads);
    int64_t rows = stop - start;
    if (rows <= 0)
        return NULL;
    for (int iter = 0; iter < ITERS; ++iter) {
        repro_gemm_s8(job->a + start * K, job->panels, job->colsum,
                      job->acc + start * N, rows, K, N);
        repro_dequant_bias_f64(job->acc + start * N, 0.03125, job->bias,
                               job->out + start * N, rows, N);
        repro_bias_residual_f64(job->xf + start * N, job->bias,
                                job->res + start * N, job->out + start * N,
                                rows, N);
        repro_bias_relu_f64(job->xf + start * N, job->bias,
                            job->out + start * N, rows, N);
        repro_scale_affine_f64(job->xf + start * N, job->inv_std + start,
                               job->gamma, job->beta, job->out + start * N,
                               rows, N);
        double mx = 0.0;
        if (repro_maxabs_f64(job->out + start * N, rows * N, &mx))
            job->failed = 1;
        if (mx > 0.0 &&
            repro_qpack_f64(job->out + start * N, rows * N, 127.0 / mx,
                            job->q + start * N))
            job->failed = 1;
    }
    return NULL;
}

int main(void) {
    int threads = 4;
    const char *env = getenv("REPRO_KERNEL_THREADS");
    if (env && atoi(env) > 0)
        threads = atoi(env);

    static int8_t a[M * K], w[K * N], panels[PANELS * KQ * 128], q[M * N];
    static int32_t colsum[N], acc[M * N];
    static double xf[M * N], bias[N], res[M * N], inv_std[M];
    static double gamma_[N], beta_[N], out[M * N];

    unsigned seed = 12345u;
    for (int i = 0; i < M * K; ++i)
        a[i] = (int8_t)((seed = seed * 1103515245u + 12345u) >> 24);
    for (int i = 0; i < K * N; ++i)
        w[i] = (int8_t)((seed = seed * 1103515245u + 12345u) >> 24);
    /* The panel layout of kernels_native.c; padding stays zero. */
    for (int kk = 0; kk < K; ++kk)
        for (int j = 0; j < N; ++j)
            panels[((j / 32) * KQ + kk / 4) * 128 + (j % 32) * 4 + kk % 4] =
                w[kk * N + j];
    for (int j = 0; j < N; ++j) {
        int32_t s = 0;
        for (int kk = 0; kk < K; ++kk)
            s += w[kk * N + j];
        colsum[j] = s;
        bias[j] = 0.25 * j;
        gamma_[j] = 1.0 + 0.01 * j;
        beta_[j] = -0.5 + 0.01 * j;
    }
    for (int i = 0; i < M * N; ++i) {
        xf[i] = 0.001 * (i % 997) - 0.5;
        res[i] = 0.002 * (i % 991) - 1.0;
    }
    for (int i = 0; i < M; ++i)
        inv_std[i] = 1.0 / (1.0 + 0.001 * i);

    pthread_t tids[64];
    job_t jobs[64];
    if (threads > 64)
        threads = 64;
    for (int t = 0; t < threads; ++t) {
        jobs[t] = (job_t){.tid = t,
                          .threads = threads,
                          .a = a,
                          .panels = panels,
                          .colsum = colsum,
                          .acc = acc,
                          .xf = xf,
                          .bias = bias,
                          .res = res,
                          .inv_std = inv_std,
                          .gamma = gamma_,
                          .beta = beta_,
                          .out = out,
                          .q = q,
                          .failed = 0};
        if (pthread_create(&tids[t], NULL, worker, &jobs[t]) != 0) {
            fprintf(stderr, "pthread_create failed\n");
            return 2;
        }
    }
    int failed = 0;
    for (int t = 0; t < threads; ++t) {
        pthread_join(tids[t], NULL);
        failed |= jobs[t].failed;
    }
    if (failed) {
        fprintf(stderr, "tsan_driver: kernel reported non-finite input\n");
        return 1;
    }
    /* Every thread's last iteration left its rows' exact GEMM in acc. */
    for (int i = 0; i < M; ++i)
        for (int j = 0; j < N; ++j) {
            int32_t s = 0;
            for (int kk = 0; kk < K; ++kk)
                s += (int32_t)a[i * K + kk] * w[kk * N + j];
            if (s != acc[i * N + j]) {
                fprintf(stderr, "tsan_driver: gemm mismatch at (%d, %d)\n", i,
                        j);
                return 1;
            }
        }
    double checksum = 0.0;
    for (int i = 0; i < M * N; ++i)
        checksum += out[i];
    printf("tsan_driver: gemm_impl=%d threads=%d iters=%d checksum=%.6f\n",
           repro_gemm_impl(), threads, ITERS, checksum);
    return 0;
}
