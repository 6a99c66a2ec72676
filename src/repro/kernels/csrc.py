"""C source of the fused stencil kernels.

Each function transcribes the per-element IEEE binary-operation sequence
of the corresponding workspace (``_ws``) reference path in
``repro.operators`` — same operands, same order — so results are
bit-identical.  Shifted operands use wrap-around (mod-n) indexing on both
horizontal axes, matching the ``np.roll`` semantics of the reference
shifts; the wrap only matters on the first/last columns, so every x-loop
peels those and runs a branch-free, directly-indexed interior that the
compiler can vectorize (the kernels are division-bound, and SIMD divides
are the bulk of the speedup).  Stencil bodies are written once as macros
so the peeled and interior iterations are textually the same ops.

Compiled with ``-ffp-contract=off`` so no FMA contraction can change
rounding; only ``+ - * / sqrt`` are used (all IEEE-exact and identical
between numpy and C on the same hardware, at any vector width).  Anything
involving ``pow`` with a non-integer exponent (the reference-temperature
profile) stays in numpy, where the caller precomputes it.

Array contract: every array has unit x-stride and row stride ``nx``; all
3-D arrays of one call (inputs, outputs and scratch alike) share one plane
stride ``ps`` (in elements, ``>= ny * nx``), so a call may run on a
*row-slab view* ``a[:, lo:hi, :]`` of taller C-contiguous working arrays —
the rows of one plane stay contiguous, consecutive planes are ``ps`` apart.
2-D arrays are plain ``(ny, nx)`` blocks.  Shifted rows wrap inside the
slab, exactly as ``np.roll`` would on the same view.
"""

C_SOURCE = r"""
#include <math.h>

static long wm(long i, long n) {  /* wrap for offsets within +-2 */
    if (i < 0) return i + n;
    if (i >= n) return i - n;
    return i;
}

/* ---- smoothing: P1/P2 fused over one field --------------------------- */
/* Stage 1: dx[e] = delta4_x(a)[e]; stage 2: out = a - cx*dx (- cy*dy4(a))
   (+ cxy*dy4(dx)).  a is (nl, ny, nx) with plane stride ps (see the
   module docstring); only output rows [j0, j1) are written.            */
void smooth_full(const double *restrict a, double *restrict dx,
                 double *restrict out,
                 long nl, long ny, long nx, long ps, long j0, long j1,
                 double cx, double cy, double cxy,
                 int use_y, int use_cross)
{
    long l, j, i;
#define DX4(i_, m2_, m1_, p1_, p2_) do { \
        double v = r[m2_] - 4.0 * r[m1_]; \
        v = v + 6.0 * r[i_]; \
        v = v - 4.0 * r[p1_]; \
        v = v + r[p2_]; \
        d[i_] = v; \
    } while (0)
    for (l = 0; l < nl; l++) {
        const double *ap = a + l * ps;
        double *dp = dx + l * ps;
        for (j = 0; j < ny; j++) {
            const double *r = ap + j * nx;
            double *d = dp + j * nx;
            if (nx < 4) {  /* tiny circles: generic wrapped indexing */
                for (i = 0; i < nx; i++)
                    DX4(i, wm(i - 2, nx), wm(i - 1, nx),
                        wm(i + 1, nx), wm(i + 2, nx));
                continue;
            }
            DX4(0, nx - 2, nx - 1, 1, 2);
            DX4(1, nx - 1, 0, 2, 3);
            for (i = 2; i < nx - 2; i++)
                DX4(i, i - 2, i - 1, i + 1, i + 2);
            DX4(nx - 2, nx - 4, nx - 3, nx - 1, 0);
            DX4(nx - 1, nx - 3, nx - 2, 0, 1);
        }
    }
#undef DX4
    for (l = 0; l < nl; l++) {
        const double *ap = a + l * ps;
        const double *dp = dx + l * ps;
        double *op = out + l * ps;
        for (j = j0; j < j1; j++) {
            long jm2 = wm(j - 2, ny), jm1 = wm(j - 1, ny);
            long jp1 = wm(j + 1, ny), jp2 = wm(j + 2, ny);
            const double *ac = ap + j * nx;
            const double *am2 = ap + jm2 * nx, *am1 = ap + jm1 * nx;
            const double *ap1 = ap + jp1 * nx, *ap2 = ap + jp2 * nx;
            const double *dc = dp + j * nx;
            const double *dm2 = dp + jm2 * nx, *dm1 = dp + jm1 * nx;
            const double *dq1 = dp + jp1 * nx, *dq2 = dp + jp2 * nx;
            double *o = op + j * nx;
            for (i = 0; i < nx; i++) {
                double v = ac[i] - cx * dc[i];
                if (use_y) {
                    double t = am2[i] - 4.0 * am1[i];
                    t = t + 6.0 * ac[i];
                    t = t - 4.0 * ap1[i];
                    t = t + ap2[i];
                    v = v - cy * t;
                }
                if (use_cross) {
                    double t = dm2[i] - 4.0 * dm1[i];
                    t = t + 6.0 * dc[i];
                    t = t - 4.0 * dq1[i];
                    t = t + dq2[i];
                    v = v + cxy * t;
                }
                o[i] = v;
            }
        }
    }
}

/* ---- advection helper stages ----------------------------------------- */

static void l1_pass(const double *restrict F, const double *restrict u,
                    const double *restrict pre,
                    double dlam, long nz, long ny, long nx, long ps,
                    double *restrict out)
{
    long k, j, i;
#define L1(i_, m1_, p1_) do { \
        double o = Fr[p1_] * ur[p1_] - Fr[m1_] * ur[m1_]; \
        o = o / (2.0 * dlam); \
        o = o * 2.0; \
        double t = ur[p1_] - ur[m1_]; \
        t = t / (2.0 * dlam); \
        t = Fr[i_] * t; \
        o = o - t; \
        orow[i_] = o * pj; \
    } while (0)
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            const double *Fr = F + k * ps + j * nx;
            const double *ur = u + k * ps + j * nx;
            double *orow = out + k * ps + j * nx;
            double pj = pre[j];
            L1(0, nx - 1, 1);
            for (i = 1; i < nx - 1; i++)
                L1(i, i - 1, i + 1);
            L1(nx - 1, nx - 2, 0);
        }
#undef L1
}

/* vs/flux are (nz, ny, nx) scratch; the L2 term ACCUMULATES into out
   (out[e] += term[e], the same add the reference applies afterwards)   */
static void l2_centre_pass(const double *restrict F,
                           const double *restrict v_if,
                           const double *restrict sin_if,
                           const double *restrict denom,
                           double dth, long nz, long ny, long nx, long ps,
                           double *restrict vs, double *restrict flux,
                           double *restrict out)
{
    long k, j, i;
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            const double *vr = v_if + k * ps + j * nx;
            double sj = sin_if[j];
            double *o = vs + k * ps + j * nx;
            for (i = 0; i < nx; i++)
                o[i] = vr[i] * sj;
        }
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jp1 = wm(j + 1, ny);
            const double *Fc = F + k * ps + j * nx;
            const double *Fp = F + k * ps + jp1 * nx;
            const double *vr = vs + k * ps + j * nx;
            double *o = flux + k * ps + j * nx;
            for (i = 0; i < nx; i++) {
                double t = Fc[i] + Fp[i];
                t = t * 0.5;
                o[i] = t * vr[i];
            }
        }
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jm1 = wm(j - 1, ny);
            const double *Fc = F + k * ps + j * nx;
            const double *fc = flux + k * ps + j * nx;
            const double *fm = flux + k * ps + jm1 * nx;
            const double *vc = vs + k * ps + j * nx;
            const double *vm = vs + k * ps + jm1 * nx;
            double dj = denom[j];
            double *o = out + k * ps + j * nx;
            for (i = 0; i < nx; i++) {
                double v = fc[i] - fm[i];
                v = v / dth;
                v = v * 2.0;
                double t = vc[i] - vm[i];
                t = t / dth;
                t = Fc[i] * t;
                v = v - t;
                o[i] = o[i] + v / dj;
            }
        }
}

/* same contract as l2_centre_pass: accumulates into out */
static void l2_v_pass(const double *restrict F, const double *restrict v_c,
                      const double *restrict sin_c,
                      const double *restrict denom,
                      double dth, long nz, long ny, long nx, long ps,
                      double *restrict vs, double *restrict flux,
                      double *restrict out)
{
    long k, j, i;
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            const double *vr = v_c + k * ps + j * nx;
            double sj = sin_c[j];
            double *o = vs + k * ps + j * nx;
            for (i = 0; i < nx; i++)
                o[i] = vr[i] * sj;
        }
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jm1 = wm(j - 1, ny);
            const double *Fm = F + k * ps + jm1 * nx;
            const double *Fc = F + k * ps + j * nx;
            const double *vr = vs + k * ps + j * nx;
            double *o = flux + k * ps + j * nx;
            for (i = 0; i < nx; i++) {
                double t = Fm[i] + Fc[i];
                t = t * 0.5;
                o[i] = t * vr[i];
            }
        }
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jp1 = wm(j + 1, ny);
            const double *Fc = F + k * ps + j * nx;
            const double *fc = flux + k * ps + j * nx;
            const double *fp = flux + k * ps + jp1 * nx;
            const double *vc = vs + k * ps + j * nx;
            const double *vp = vs + k * ps + jp1 * nx;
            double dj = denom[j];
            double *o = out + k * ps + j * nx;
            for (i = 0; i < nx; i++) {
                double v = fp[i] - fc[i];
                v = v / dth;
                v = v * 2.0;
                double t = vp[i] - vc[i];
                t = t / dth;
                t = Fc[i] * t;
                v = v - t;
                o[i] = o[i] + v / dj;
            }
        }
}

/* sdot is (nz+1, ny, nx); fbar is (nz+1, ny, nx) scratch.  The L3 term
   accumulates into out and the final negation of the whole advection
   tendency is folded into the same store (an exact sign flip).        */
static void l3_pass(const double *restrict F, const double *restrict sdot,
                    const double *restrict dsig,
                    long nz, long ny, long nx, long ps,
                    double *restrict fbar, double *restrict out)
{
    long k, e;
    long plane = ny * nx;
    for (k = 1; k < nz; k++)
        for (e = 0; e < plane; e++) {
            double t = F[(k - 1) * ps + e] + F[k * ps + e];
            fbar[k * ps + e] = t * 0.5;
        }
    for (e = 0; e < plane; e++) {
        fbar[e] = F[e];
        fbar[nz * ps + e] = F[(nz - 1) * ps + e];
    }
    for (k = 0; k <= nz; k++)
        for (e = 0; e < plane; e++)
            fbar[k * ps + e] = sdot[k * ps + e] * fbar[k * ps + e];
    for (k = 0; k < nz; k++) {
        const double *fb = fbar + k * ps;
        const double *fn = fbar + (k + 1) * ps;
        const double *sb = sdot + k * ps;
        const double *sn = sdot + (k + 1) * ps;
        const double *Fk = F + k * ps;
        double dk = dsig[k];
        double *o = out + k * ps;
        for (e = 0; e < plane; e++) {
            double v = fn[e] - fb[e];
            v = v / dk;
            double t = sn[e] - sb[e];
            t = t / dk;
            double u = Fk[e] * 0.5;
            u = u * t;
            double s = o[e] + (v - u);
            o[e] = -s;
        }
    }
}

/* ---- the advection tendency ------------------------------------------ */
/* p2d is a (3, ny, nx) scratch block for the k-invariant pf staggers    */
void advection(const double *restrict U, const double *restrict V,
               const double *restrict Phi,
               const double *restrict pf, const double *restrict sdot,
               const double *restrict sin_c, const double *restrict sin_v,
               const double *restrict pre_c, const double *restrict pre_v,
               const double *restrict tas_c, const double *restrict tas_v,
               const double *restrict dsig, double dlam, double dth,
               long nz, long ny, long nx, long ps,
               double *restrict vel,
               double *restrict vs, double *restrict flux,
               double *restrict sstag, double *restrict fbar,
               double *restrict p2d,
               double *restrict tU, double *restrict tV,
               double *restrict tPhi)
{
    long k, j, i;
    double *pu2 = p2d;          /* pf staggered to u-points */
    double *pv2 = p2d + ps;     /* pf staggered to v-points */
    double *b2 = p2d + 2 * ps;  /* pv2 staggered back to u-points */

    for (j = 0; j < ny; j++) {
        const double *pr = pf + j * nx;
        double *o = pu2 + j * nx;
        { double t = pr[nx - 1] + pr[0]; o[0] = t * 0.5; }
        for (i = 1; i < nx; i++) {
            double t = pr[i - 1] + pr[i];
            o[i] = t * 0.5;
        }
    }
    for (j = 0; j < ny; j++) {
        long jp1 = wm(j + 1, ny);
        const double *pr = pf + j * nx;
        const double *pq = pf + jp1 * nx;
        double *o = pv2 + j * nx;
        for (i = 0; i < nx; i++) {
            double t = pr[i] + pq[i];
            o[i] = t * 0.5;
        }
    }
    for (j = 0; j < ny; j++) {
        const double *pr = pv2 + j * nx;
        double *o = b2 + j * nx;
        { double t = pr[nx - 1] + pr[0]; o[0] = t * 0.5; }
        for (i = 1; i < nx; i++) {
            double t = pr[i - 1] + pr[i];
            o[i] = t * 0.5;
        }
    }

    /* ---- U --------------------------------------------------------- */
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            const double *Ur = U + k * ps + j * nx;
            const double *pr = pu2 + j * nx;
            double *o = vel + k * ps + j * nx;
            for (i = 0; i < nx; i++)
                o[i] = Ur[i] / pr[i];
        }
    l1_pass(U, vel, pre_c, dlam, nz, ny, nx, ps, tU);
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            const double *Vr = V + k * ps + j * nx;
            const double *br = b2 + j * nx;
            double *o = vel + k * ps + j * nx;
#define VSTAG(i_, m1_) do { \
            double t = Vr[m1_] + Vr[i_]; \
            t = t * 0.5; \
            o[i_] = t / br[i_]; \
        } while (0)
            VSTAG(0, nx - 1);
            for (i = 1; i < nx; i++)
                VSTAG(i, i - 1);
#undef VSTAG
        }
    l2_centre_pass(U, vel, sin_v, tas_c, dth, nz, ny, nx, ps, vs, flux, tU);
    for (k = 0; k <= nz; k++)
        for (j = 0; j < ny; j++) {
            const double *sr = sdot + k * ps + j * nx;
            double *o = sstag + k * ps + j * nx;
            { double t = sr[nx - 1] + sr[0]; o[0] = t * 0.5; }
            for (i = 1; i < nx; i++) {
                double t = sr[i - 1] + sr[i];
                o[i] = t * 0.5;
            }
        }
    l3_pass(U, sstag, dsig, nz, ny, nx, ps, fbar, tU);

    /* ---- V --------------------------------------------------------- */
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jp1 = wm(j + 1, ny);
            const double *U0 = U + k * ps + j * nx;
            const double *U1 = U + k * ps + jp1 * nx;
            const double *pr = pv2 + j * nx;
            double *o = vel + k * ps + j * nx;
#define UBAR(i_, p1_) do { \
            double t = U0[i_] + U0[p1_]; \
            t = t + U1[i_]; \
            t = t + U1[p1_]; \
            t = t * 0.25; \
            o[i_] = t / pr[i_]; \
        } while (0)
            for (i = 0; i < nx - 1; i++)
                UBAR(i, i + 1);
            UBAR(nx - 1, 0);
#undef UBAR
        }
    l1_pass(V, vel, pre_v, dlam, nz, ny, nx, ps, tV);
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jm1 = wm(j - 1, ny);
            const double *Vm = V + k * ps + jm1 * nx;
            const double *Vc = V + k * ps + j * nx;
            const double *pr = pf + j * nx;
            double *o = vel + k * ps + j * nx;
            for (i = 0; i < nx; i++) {
                double t = Vm[i] + Vc[i];
                t = t * 0.5;
                o[i] = t / pr[i];
            }
        }
    l2_v_pass(V, vel, sin_c, tas_v, dth, nz, ny, nx, ps, vs, flux, tV);
    for (k = 0; k <= nz; k++)
        for (j = 0; j < ny; j++) {
            long jp1 = wm(j + 1, ny);
            const double *s0 = sdot + k * ps + j * nx;
            const double *s1 = sdot + k * ps + jp1 * nx;
            double *o = sstag + k * ps + j * nx;
            for (i = 0; i < nx; i++) {
                double t = s0[i] + s1[i];
                o[i] = t * 0.5;
            }
        }
    l3_pass(V, sstag, dsig, nz, ny, nx, ps, fbar, tV);

    /* ---- Phi ------------------------------------------------------- */
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            const double *Ur = U + k * ps + j * nx;
            const double *pr = pf + j * nx;
            double *o = vel + k * ps + j * nx;
#define USTAG(i_, p1_) do { \
            double t = Ur[i_] + Ur[p1_]; \
            t = t * 0.5; \
            o[i_] = t / pr[i_]; \
        } while (0)
            for (i = 0; i < nx - 1; i++)
                USTAG(i, i + 1);
            USTAG(nx - 1, 0);
#undef USTAG
        }
    l1_pass(Phi, vel, pre_c, dlam, nz, ny, nx, ps, tPhi);
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            const double *Vr = V + k * ps + j * nx;
            const double *pr = pv2 + j * nx;
            double *o = vel + k * ps + j * nx;
            for (i = 0; i < nx; i++)
                o[i] = Vr[i] / pr[i];
        }
    l2_centre_pass(Phi, vel, sin_v, tas_c, dth, nz, ny, nx, ps, vs, flux, tPhi);
    l3_pass(Phi, sdot, dsig, nz, ny, nx, ps, fbar, tPhi);
}

/* ---- the adaptation tendency (U/V/Phi parts; psa stays in numpy) ----- */
void adaptation(const double *restrict U, const double *restrict V,
                const double *restrict Phi,
                const double *restrict phi_p, const double *restrict w_if,
                const double *restrict col_sum, const double *restrict pf,
                const double *restrict pes, const double *restrict baro,
                const double *restrict a_sin_c, const double *restrict cot_c,
                const double *restrict omcos_c, const double *restrict cot_v,
                const double *restrict omcos_v,
                const double *restrict sig_mid,
                double a, double dlam, double dth, double b, double coeff,
                long nz, long ny, long nx, long ps,
                double *restrict tU, double *restrict tV,
                double *restrict tPhi)
{
    long k, j, i;

    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jm1 = wm(j - 1, ny);
            const double *pr = pf + j * nx;
            const double *per = pes + j * nx;
            const double *br = baro + j * nx;
            const double *Pc = phi_p + k * ps + j * nx;
            const double *Gc = Phi + k * ps + j * nx;
            const double *Uc = U + k * ps + j * nx;
            const double *Vm = V + k * ps + jm1 * nx;
            const double *Vc = V + k * ps + j * nx;
            double asj = a_sin_c[j], ccj = cot_c[j], ocj = omcos_c[j];
            double *o = tU + k * ps + j * nx;
#define AD_U(i_, m1_) do { \
            double pu = pr[m1_] + pr[i_]; \
            pu = pu * 0.5; \
            double t1 = Pc[i_] - Pc[m1_]; \
            t1 = t1 / dlam; \
            t1 = t1 * pu; \
            t1 = t1 / asj; \
            double t2 = Gc[m1_] + Gc[i_]; \
            t2 = t2 * 0.5; \
            t2 = t2 * b; \
            double bu = br[m1_] + br[i_]; \
            bu = bu * 0.5; \
            t2 = t2 + bu; \
            double pe = per[m1_] + per[i_]; \
            pe = pe * 0.5; \
            t2 = t2 / pe; \
            double dd = per[i_] - per[m1_]; \
            dd = dd / dlam; \
            t2 = t2 * dd; \
            t2 = t2 / asj; \
            double up = Uc[i_] / pu; \
            double t4 = up * ccj; \
            t4 = t4 / a; \
            t4 = ocj + t4; \
            double vb = Vm[m1_] + Vm[i_]; \
            vb = vb + Vc[m1_]; \
            vb = vb + Vc[i_]; \
            vb = vb * 0.25; \
            t4 = t4 * vb; \
            double v = -t1; \
            v = v - t2; \
            v = v - t4; \
            o[i_] = v; \
        } while (0)
            AD_U(0, nx - 1);
            for (i = 1; i < nx; i++)
                AD_U(i, i - 1);
#undef AD_U
        }

    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jp1 = wm(j + 1, ny);
            const double *pr = pf + j * nx;
            const double *pq = pf + jp1 * nx;
            const double *per = pes + j * nx;
            const double *peq = pes + jp1 * nx;
            const double *br = baro + j * nx;
            const double *bq = baro + jp1 * nx;
            const double *Pc = phi_p + k * ps + j * nx;
            const double *Pp = phi_p + k * ps + jp1 * nx;
            const double *Gc = Phi + k * ps + j * nx;
            const double *Gp = Phi + k * ps + jp1 * nx;
            const double *Uc = U + k * ps + j * nx;
            const double *Uq = U + k * ps + jp1 * nx;
            double cvj = cot_v[j], ovj = omcos_v[j];
            double *o = tV + k * ps + j * nx;
#define AD_V(i_, p1_) do { \
            double pv = pr[i_] + pq[i_]; \
            pv = pv * 0.5; \
            double t1 = Pp[i_] - Pc[i_]; \
            t1 = t1 / dth; \
            t1 = t1 * pv; \
            t1 = t1 / a; \
            double t2 = Gc[i_] + Gp[i_]; \
            t2 = t2 * 0.5; \
            t2 = t2 * b; \
            double bv = br[i_] + bq[i_]; \
            bv = bv * 0.5; \
            t2 = t2 + bv; \
            double pe = per[i_] + peq[i_]; \
            pe = pe * 0.5; \
            t2 = t2 / pe; \
            double dd = peq[i_] - per[i_]; \
            dd = dd / dth; \
            t2 = t2 * dd; \
            t2 = t2 / a; \
            double ub = Uc[i_] + Uc[p1_]; \
            ub = ub + Uq[i_]; \
            ub = ub + Uq[p1_]; \
            ub = ub * 0.25; \
            double t4 = ub / pv; \
            t4 = t4 * cvj; \
            t4 = t4 / a; \
            t4 = ovj + t4; \
            t4 = t4 * ub; \
            double v = -t1; \
            v = v - t2; \
            v = v + t4; \
            o[i_] = v; \
        } while (0)
            for (i = 0; i < nx - 1; i++)
                AD_V(i, i + 1);
            AD_V(nx - 1, 0);
#undef AD_V
        }

    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jm1 = wm(j - 1, ny), jp1 = wm(j + 1, ny);
            const double *pr = pf + j * nx;
            const double *per = pes + j * nx;
            const double *pm = pes + jm1 * nx;
            const double *pp = pes + jp1 * nx;
            const double *csr = col_sum + j * nx;
            const double *w0 = w_if + k * ps + j * nx;
            const double *w1 = w_if + (k + 1) * ps + j * nx;
            const double *Uc = U + k * ps + j * nx;
            const double *Vm = V + k * ps + jm1 * nx;
            const double *Vc = V + k * ps + j * nx;
            double sgk = sig_mid[k], asj = a_sin_c[j];
            double *o = tPhi + k * ps + j * nx;
#define AD_P(i_, m1_, p1_) do { \
            double t1 = w0[i_] + w1[i_]; \
            t1 = t1 * 0.5; \
            t1 = t1 / sgk; \
            double cs = csr[i_] / pr[i_]; \
            t1 = t1 - cs; \
            double t2 = Vm[i_] + Vc[i_]; \
            t2 = t2 * 0.5; \
            t2 = t2 / per[i_]; \
            double dd = pp[i_] - pm[i_]; \
            dd = dd / (2.0 * dth); \
            t2 = t2 * dd; \
            t2 = t2 / a; \
            double t3 = Uc[i_] + Uc[p1_]; \
            t3 = t3 * 0.5; \
            t3 = t3 / per[i_]; \
            double dl = per[p1_] - per[m1_]; \
            dl = dl / (2.0 * dlam); \
            t3 = t3 * dl; \
            t3 = t3 / asj; \
            double v = t1 + t2; \
            v = v + t3; \
            o[i_] = v * coeff; \
        } while (0)
            AD_P(0, nx - 1, 1);
            for (i = 1; i < nx - 1; i++)
                AD_P(i, i - 1, i + 1);
            AD_P(nx - 1, nx - 2, 0);
#undef AD_P
        }
}

/* ---- the vertical-integral diagnostics (serial / identity case) ------ */
/* Plane-sweep layout: the k loops are outermost and every inner loop is
   a contiguous streaming pass, so the prefix/suffix column sums become
   vectorized plane updates instead of strided per-column walks.  s2d is
   a (3, ny, nx) scratch block for the k-invariant 2-D factors; the
   prefix sums build in place inside pw and the suffix sums inside
   phi_prime before each is transformed to its final value.            */
void vertical(const double *restrict U, const double *restrict V,
              const double *restrict Phi, const double *restrict pf,
              const double *restrict sin_v, const double *restrict a_sin_c,
              const double *restrict dsig, const double *restrict ratio,
              const double *restrict sig_if,
              double dlam, double dth, double bgrav,
              long nz, long ny, long nx, long ps,
              double *restrict div_p, double *restrict col_sum,
              double *restrict pw, double *restrict w,
              double *restrict sdot, double *restrict phi_prime,
              double *restrict s2d)
{
    long k, j, i;
    long plane = ny * nx;
    double *pu2 = s2d;          /* pf staggered to u-points */
    double *pv2s = s2d + ps;    /* pf staggered to v-points, x sin_v */
    double *bf2 = s2d + 2 * ps; /* bgrav / pf */

    for (j = 0; j < ny; j++) {
        const double *pr = pf + j * nx;
        double *o = pu2 + j * nx;
        { double t = pr[nx - 1] + pr[0]; o[0] = t * 0.5; }
        for (i = 1; i < nx; i++) {
            double t = pr[i - 1] + pr[i];
            o[i] = t * 0.5;
        }
    }
    for (j = 0; j < ny; j++) {
        long jp1 = wm(j + 1, ny);
        const double *pr = pf + j * nx;
        const double *pq = pf + jp1 * nx;
        double svj = sin_v[j];
        double *o = pv2s + j * nx;
        for (i = 0; i < nx; i++) {
            double t = pr[i] + pq[i];
            t = t * 0.5;
            o[i] = t * svj;
        }
    }
    for (j = 0; j < ny; j++) {
        const double *pr = pf + j * nx;
        double *o = bf2 + j * nx;
        for (i = 0; i < nx; i++)
            o[i] = bgrav / pr[i];
    }

    /* flux divergence, plane by plane */
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jm1 = wm(j - 1, ny);
            const double *Uc = U + k * ps + j * nx;
            const double *Vc = V + k * ps + j * nx;
            const double *Vm = V + k * ps + jm1 * nx;
            const double *tu = pu2 + j * nx;
            const double *tv = pv2s + j * nx;
            const double *tm = pv2s + jm1 * nx;
            double asj = a_sin_c[j];
            double *o = div_p + k * ps + j * nx;
#define DIVB(i_, p1_) do { \
            double fx = tu[p1_] * Uc[p1_] - tu[i_] * Uc[i_]; \
            fx = fx / dlam; \
            double fy = tv[i_] * Vc[i_] - tm[i_] * Vm[i_]; \
            fy = fy / dth; \
            double dv = fx + fy; \
            o[i_] = dv / asj; \
        } while (0)
            for (i = 0; i < nx - 1; i++)
                DIVB(i, i + 1);
            DIVB(nx - 1, 0);
#undef DIVB
        }

    /* prefix sums of dsig*div build in place inside pw; np.cumsum copies
       the first element exactly (no 0+x, which would flip a -0.0)      */
    for (i = 0; i < plane; i++)
        pw[i] = 0.0;
    {
        const double *d0 = div_p;
        double dk = dsig[0];
        double *s1 = pw + ps;
        for (i = 0; i < plane; i++)
            s1[i] = dk * d0[i];
    }
    for (k = 1; k < nz; k++) {
        const double *dkp = div_p + k * ps;
        const double *sk = pw + k * ps;
        double dk = dsig[k];
        double *sn = pw + (k + 1) * ps;
        for (i = 0; i < plane; i++) {
            double t = dk * dkp[i];
            sn[i] = sk[i] + t;
        }
    }
    for (i = 0; i < plane; i++)
        col_sum[i] = pw[nz * ps + i];

    /* suffix sums of ratio*Phi build in place inside phi_prime */
    {
        const double *Pk = Phi + (nz - 1) * ps;
        double rk = ratio[nz - 1];
        double *o = phi_prime + (nz - 1) * ps;
        for (i = 0; i < plane; i++)
            o[i] = rk * Pk[i];
    }
    for (k = nz - 2; k >= 0; k--) {
        const double *Pk = Phi + k * ps;
        const double *hn = phi_prime + (k + 1) * ps;
        double rk = ratio[k];
        double *o = phi_prime + k * ps;
        for (i = 0; i < plane; i++) {
            double t = rk * Pk[i];
            o[i] = hn[i] + t;
        }
    }

    /* interface velocities: pw transforms in place, w and sdot follow */
    for (k = 0; k <= nz; k++) {
        double sk = sig_if[k];
        for (j = 0; j < ny; j++) {
            const double *cs = col_sum + j * nx;
            const double *pr = pf + j * nx;
            double *pwr = pw + k * ps + j * nx;
            double *wr = w + k * ps + j * nx;
            double *sdr = sdot + k * ps + j * nx;
            for (i = 0; i < nx; i++) {
                double p = pr[i];
                double t = sk * cs[i];
                t = t - pwr[i];
                pwr[i] = t;
                wr[i] = t / p;
                double p2 = p * p;
                sdr[i] = t / p2;
            }
        }
    }

    /* phi_prime: (hs - cphi/2) * bgrav/p, with cphi recomputed bitwise */
    for (k = 0; k < nz; k++) {
        const double *Pk = Phi + k * ps;
        double rk = ratio[k];
        for (j = 0; j < ny; j++) {
            const double *Pr = Pk + j * nx;
            const double *bf = bf2 + j * nx;
            double *o = phi_prime + k * ps + j * nx;
            for (i = 0; i < nx; i++) {
                double c = rk * Pr[i];
                double t = c * 0.5;
                t = o[i] - t;
                o[i] = t * bf[i];
            }
        }
    }
}
"""
