"""C source of the fused stencil kernels.

Each function transcribes the per-element IEEE binary-operation sequence
of the corresponding workspace (``_ws``) reference path in
``repro.operators`` — same operands, same order — so results are
bit-identical.  Shifted operands use wrap-around (mod-n) indexing on both
horizontal axes, matching the ``np.roll`` semantics of the reference
shifts; the wrap only matters on the first/last columns, so every x-loop
peels those and runs a branch-free, directly-indexed interior that the
compiler can vectorize.  Stencil bodies are written once as macros so the
peeled and interior iterations are textually the same ops.

The stencil kernels used to wait on the divider (23 / 27 / 5 divides per
point in ``adaptation`` / ``advection`` / ``vertical``, ~1.8 cycles per
SIMD divide: about half of a serial step).  Every divisor is invariant
over the loops around it — a scalar, a per-row or per-level metric, or a
k-invariant 2-D surface factor — so the inner loops hold no ``/`` at all:
they divide with ``rdiv(x, b, y)``, which returns the *correctly rounded*
``x / b`` from ``y = 1.0 / b`` in one multiply and two fused
multiply-adds.  The reciprocal is taken once per call (scalars), once per
row or level (metrics), or once per point of a 2-D *table pass* that runs
before the level loops and also tabulates the k-invariant factors and
quotients themselves.  Tables live in scratch the caller passes in (one
``(TABLE_PLANES, ny, nx)`` block per call, from the rank's own workspace):
the library holds no static, heap or variable-length-array storage, so
ranks running as threads of one process never share a byte of it.

Compiled with ``-ffp-contract=off`` so no FMA *contraction* can change
rounding; the two explicit ``fma`` calls inside ``rdiv`` are the only
fused operations, everything else is ``+ - * sqrt`` (all IEEE-exact and
identical between numpy and C on the same hardware, at any vector width).
Where the compiler reports no hardware FMA (``__FP_FAST_FMA`` undefined —
the portable flag set) ``rdiv`` expands to a plain ``/``: same bits,
divider-bound speed.  Anything involving ``pow`` with a non-integer
exponent (the reference-temperature profile) stays in numpy, where the
caller precomputes it.

Array contract: every array has unit x-stride and row stride ``nx``; all
3-D arrays of one call (inputs, outputs and scratch alike, the table
block included) share one plane stride ``ps`` (in elements, ``>= ny *
nx``), so a call may run on a *row-slab view* ``a[:, lo:hi, :]`` of taller
C-contiguous working arrays — the rows of one plane stay contiguous,
consecutive planes are ``ps`` apart.  2-D arrays are plain ``(ny, nx)``
blocks.  Shifted rows wrap inside the slab, exactly as ``np.roll`` would
on the same view.
"""

#: planes of the 2-D table block every stencil kernel takes as scratch
#: (``adaptation`` uses all of them, ``advection`` 8, ``vertical`` 6; one
#: shape, so a workspace pools one block for all three)
TABLE_PLANES = 9

C_SOURCE = r"""
#include <math.h>

static long wm(long i, long n) {  /* wrap for offsets within +-2 */
    if (i < 0) return i + n;
    if (i >= n) return i - n;
    return i;
}

/* ---- exact division by an invariant divisor --------------------------- */
/* rdiv(x, b, y) with y = 1.0 / b: q = RN(x*y) is within one ulp of x/b,
   r = x - b*q is exact in one fma, and RN(q + r*y) is the correctly
   rounded quotient (Markstein 1990; Brisebarre, Muller & Raina 2004).
   r == 0 means q is already exact; returning it then keeps the sign of a
   zero quotient, which q + (+0) would lose.  Domain: finite x, quotient
   and residual in the normal range; a non-finite x gives a non-finite
   result (inf may come back as nan).  The '/' below is the only other
   expansion: no knob selects between them, the compiler's FMA report does. */
#ifdef __FP_FAST_FMA
#define RDIV_FMA 1
static inline double rdiv_fma(double x, double b, double y)
{
    double q = x * y;
    double r = fma(-b, q, x);
    double q2 = fma(r, y, q);
    return r == 0.0 ? q : q2;
}
#define rdiv(x, b, y) rdiv_fma((x), (b), (y))
#else
#define RDIV_FMA 0
#define rdiv(x, b, y) ((x) / (b))
#endif

int division_is_reciprocal_fma(void) { return RDIV_FMA; }

/* the primitive alone, for tests: out[e] = rdiv(x[e], b[e], 1.0 / b[e]) */
void rdiv_array(const double *restrict x, const double *restrict b,
                double *restrict out, long n)
{
    long e;
    for (e = 0; e < n; e++) {
        double y = 1.0 / b[e];
        out[e] = rdiv(x[e], b[e], y);
    }
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

/* ---- 2-D table-pass helpers ------------------------------------------- */

/* P = sqrt(((psa + p0) - pt) / p0), the reference op chain, over one
   (ny, nx) block; returns how many radicands are <= 0 (the caller raises,
   as the reference does)                                                */
static long p_factor(const double *restrict psa, double p0, double pt,
                     long n, double *restrict pf)
{
    long e, bad = 0;
    double rp0 = 1.0 / p0;
    for (e = 0; e < n; e++) {
        double t = psa[e] + p0;
        t = t - pt;
        bad += t <= 0.0;
        t = rdiv(t, p0, rp0);
        pf[e] = sqrt(t);
    }
    return bad;
}

/* centres -> u-points: d[j][i] = (s[j][i-1] + s[j][i]) / 2 */
static void to_u(const double *restrict s, long ny, long nx,
                 double *restrict d)
{
    long j, i;
    for (j = 0; j < ny; j++) {
        const double *r = s + j * nx;
        double *o = d + j * nx;
        { double t = r[nx - 1] + r[0]; o[0] = t * 0.5; }
        for (i = 1; i < nx; i++) {
            double t = r[i - 1] + r[i];
            o[i] = t * 0.5;
        }
    }
}

/* centres -> v-rows: d[j][i] = (s[j][i] + s[j+1][i]) / 2 */
static void to_v(const double *restrict s, long ny, long nx,
                 double *restrict d)
{
    long j, i;
    for (j = 0; j < ny; j++) {
        const double *r = s + j * nx;
        const double *q = s + wm(j + 1, ny) * nx;
        double *o = d + j * nx;
        for (i = 0; i < nx; i++) {
            double t = r[i] + q[i];
            o[i] = t * 0.5;
        }
    }
}

/* the reciprocal table of one block: the true divides of a call */
static void recip(const double *restrict s, long n, double *restrict d)
{
    long e;
    for (e = 0; e < n; e++)
        d[e] = 1.0 / s[e];
}

/* ---- advection helper stages ----------------------------------------- */

static void l1_pass(const double *restrict F, const double *restrict u,
                    const double *restrict pre,
                    double dlam, long nz, long ny, long nx, long ps,
                    double *restrict out)
{
    long k, j, i;
    double d2 = 2.0 * dlam, rd2 = 1.0 / d2;
#define L1(i_, m1_, p1_) do { \
        double o = Fr[p1_] * ur[p1_] - Fr[m1_] * ur[m1_]; \
        o = rdiv(o, d2, rd2); \
        o = o * 2.0; \
        double t = ur[p1_] - ur[m1_]; \
        t = rdiv(t, d2, rd2); \
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
   (out[e] += term[e], the same add the reference applies afterwards).
   side = +1: v sits on the interface above row j (fluxes average F over
   rows j, j+1 and are differenced j - (j-1): the U and Phi terms);
   side = -1: v sits at the centre below interface row j (average over
   j-1, j, difference (j+1) - j: the V term).                           */
static void l2_pass(const double *restrict F, const double *restrict v,
                    const double *restrict sin_v,
                    const double *restrict denom, long side,
                    double dth, long nz, long ny, long nx, long ps,
                    double *restrict vs, double *restrict flux,
                    double *restrict out)
{
    long k, j, i;
    double rdth = 1.0 / dth;
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            const double *vr = v + k * ps + j * nx;
            double sj = sin_v[j];
            double *o = vs + k * ps + j * nx;
            for (i = 0; i < nx; i++)
                o[i] = vr[i] * sj;
        }
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            const double *Fc = F + k * ps + j * nx;
            const double *Fn = F + k * ps + wm(j + side, ny) * nx;
            const double *vr = vs + k * ps + j * nx;
            double *o = flux + k * ps + j * nx;
            for (i = 0; i < nx; i++) {
                double t = Fc[i] + Fn[i];
                t = t * 0.5;
                o[i] = t * vr[i];
            }
        }
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long hi = side > 0 ? j : wm(j + 1, ny);
            long lo = side > 0 ? wm(j - 1, ny) : j;
            const double *Fc = F + k * ps + j * nx;
            const double *fh = flux + k * ps + hi * nx;
            const double *fl = flux + k * ps + lo * nx;
            const double *vh = vs + k * ps + hi * nx;
            const double *vl = vs + k * ps + lo * nx;
            double dj = denom[j], rdj = 1.0 / dj;
            double *o = out + k * ps + j * nx;
            for (i = 0; i < nx; i++) {
                double f = fh[i] - fl[i];
                f = rdiv(f, dth, rdth);
                f = f * 2.0;
                double t = vh[i] - vl[i];
                t = rdiv(t, dth, rdth);
                t = Fc[i] * t;
                f = f - t;
                o[i] = o[i] + rdiv(f, dj, rdj);
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
        double dk = dsig[k], rdk = 1.0 / dk;
        double *o = out + k * ps;
        for (e = 0; e < plane; e++) {
            double v = fn[e] - fb[e];
            v = rdiv(v, dk, rdk);
            double t = sn[e] - sb[e];
            t = rdiv(t, dk, rdk);
            double u = Fk[e] * 0.5;
            u = u * t;
            double s = o[e] + (v - u);
            o[e] = -s;
        }
    }
}

/* ---- the advection tendency ------------------------------------------ */
/* True divides per point: 27 before (6 by 2 dlam, 6 + 3 by dtheta and
   2a sin theta_j, 6 by dsigma_k, 6 by the P staggers) -> 4/nz after (the
   reciprocals of P and its three staggers, tabulated once per call in
   tab, planes 0-7); everything in the level loops is rdiv.  Returns
   nonzero iff the surface pressure does not exceed the model top.      */
int advection(const double *restrict U, const double *restrict V,
              const double *restrict Phi,
              const double *restrict psa, const double *restrict sdot,
              const double *restrict sin_c, const double *restrict sin_v,
              const double *restrict pre_c, const double *restrict pre_v,
              const double *restrict tas_c, const double *restrict tas_v,
              const double *restrict dsig, double dlam, double dth,
              double p0, double pt,
              long nz, long ny, long nx, long ps,
              double *restrict vel,
              double *restrict vs, double *restrict flux,
              double *restrict sstag, double *restrict fbar,
              double *restrict tab,
              double *restrict tU, double *restrict tV,
              double *restrict tPhi)
{
    long k, j, i;
    long plane = ny * nx;
    double *pf = tab;            /* P at centres */
    double *pu2 = tab + ps;      /* P staggered to u-points */
    double *pv2 = tab + 2 * ps;  /* P staggered to v-points */
    double *b2 = tab + 3 * ps;   /* pv2 staggered back to u-points */
    double *rpf = tab + 4 * ps;  /* ... and their reciprocals */
    double *rpu2 = tab + 5 * ps;
    double *rpv2 = tab + 6 * ps;
    double *rb2 = tab + 7 * ps;

    if (p_factor(psa, p0, pt, plane, pf))
        return 1;
    to_u(pf, ny, nx, pu2);
    to_v(pf, ny, nx, pv2);
    to_u(pv2, ny, nx, b2);
    recip(pf, plane, rpf);
    recip(pu2, plane, rpu2);
    recip(pv2, plane, rpv2);
    recip(b2, plane, rb2);

    /* ---- U --------------------------------------------------------- */
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            const double *Ur = U + k * ps + j * nx;
            const double *pr = pu2 + j * nx;
            const double *rr = rpu2 + j * nx;
            double *o = vel + k * ps + j * nx;
            for (i = 0; i < nx; i++)
                o[i] = rdiv(Ur[i], pr[i], rr[i]);
        }
    l1_pass(U, vel, pre_c, dlam, nz, ny, nx, ps, tU);
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            const double *Vr = V + k * ps + j * nx;
            const double *br = b2 + j * nx;
            const double *rr = rb2 + j * nx;
            double *o = vel + k * ps + j * nx;
#define VSTAG(i_, m1_) do { \
            double t = Vr[m1_] + Vr[i_]; \
            t = t * 0.5; \
            o[i_] = rdiv(t, br[i_], rr[i_]); \
        } while (0)
            VSTAG(0, nx - 1);
            for (i = 1; i < nx; i++)
                VSTAG(i, i - 1);
#undef VSTAG
        }
    l2_pass(U, vel, sin_v, tas_c, 1, dth, nz, ny, nx, ps, vs, flux, tU);
    for (k = 0; k <= nz; k++)
        to_u(sdot + k * ps, ny, nx, sstag + k * ps);
    l3_pass(U, sstag, dsig, nz, ny, nx, ps, fbar, tU);

    /* ---- V --------------------------------------------------------- */
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jp1 = wm(j + 1, ny);
            const double *U0 = U + k * ps + j * nx;
            const double *U1 = U + k * ps + jp1 * nx;
            const double *pr = pv2 + j * nx;
            const double *rr = rpv2 + j * nx;
            double *o = vel + k * ps + j * nx;
#define UBAR(i_, p1_) do { \
            double t = U0[i_] + U0[p1_]; \
            t = t + U1[i_]; \
            t = t + U1[p1_]; \
            t = t * 0.25; \
            o[i_] = rdiv(t, pr[i_], rr[i_]); \
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
            const double *rr = rpf + j * nx;
            double *o = vel + k * ps + j * nx;
            for (i = 0; i < nx; i++) {
                double t = Vm[i] + Vc[i];
                t = t * 0.5;
                o[i] = rdiv(t, pr[i], rr[i]);
            }
        }
    l2_pass(V, vel, sin_c, tas_v, -1, dth, nz, ny, nx, ps, vs, flux, tV);
    for (k = 0; k <= nz; k++)
        to_v(sdot + k * ps, ny, nx, sstag + k * ps);
    l3_pass(V, sstag, dsig, nz, ny, nx, ps, fbar, tV);

    /* ---- Phi ------------------------------------------------------- */
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            const double *Ur = U + k * ps + j * nx;
            const double *pr = pf + j * nx;
            const double *rr = rpf + j * nx;
            double *o = vel + k * ps + j * nx;
#define USTAG(i_, p1_) do { \
            double t = Ur[i_] + Ur[p1_]; \
            t = t * 0.5; \
            o[i_] = rdiv(t, pr[i_], rr[i_]); \
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
            const double *rr = rpv2 + j * nx;
            double *o = vel + k * ps + j * nx;
            for (i = 0; i < nx; i++)
                o[i] = rdiv(Vr[i], pr[i], rr[i]);
        }
    l2_pass(Phi, vel, sin_v, tas_c, 1, dth, nz, ny, nx, ps, vs, flux, tPhi);
    l3_pass(Phi, sdot, dsig, nz, ny, nx, ps, fbar, tPhi);
    return 0;
}

/* ---- the adaptation tendency ------------------------------------------ */
/* True divides per point: 23 before -> 7/nz after.  tab planes 0-2 hold
   P, p_es and the barotropic factor P R T~(p_s) (tref is T~(p_s + p0),
   the one non-integer pow, precomputed by the caller); planes 3-8 are
   retabulated before each of the three level loops with that loop's
   k-invariant factors, their reciprocals and its k-invariant quotients
   (the p_es differences over dlambda / dtheta / 2 dlambda / 2 dtheta and
   col_sum / P: 5 of the 23 divides leave the level loops outright).  The
   2-D p'_sa tendency (kappa* D_sa - column sum, Eq. 6) is part of the
   same table pass.  Returns nonzero iff the surface pressure does not
   exceed the model top.                                                */
int adaptation(const double *restrict U, const double *restrict V,
               const double *restrict Phi,
               const double *restrict psa, const double *restrict tref,
               const double *restrict phi_p, const double *restrict w_if,
               const double *restrict col_sum,
               const double *restrict sin_v, const double *restrict a_sin_c,
               const double *restrict a2_sin_c,
               const double *restrict a2_sin2_c,
               const double *restrict cot_c, const double *restrict omcos_c,
               const double *restrict cot_v, const double *restrict omcos_v,
               const double *restrict sig_mid,
               double a, double dlam, double dth, double dlam_sq,
               double b, double coeff,
               double p0, double pt, double r_dry,
               double k_diss, double kappa_star,
               long nz, long ny, long nx, long ps,
               double *restrict tab,
               double *restrict tU, double *restrict tV,
               double *restrict tPhi, double *restrict tpsa)
{
    long k, j, i, e;
    long plane = ny * nx;
    double *pf = tab, *pes = tab + ps, *baro = tab + 2 * ps;
    double *T0 = tab + 3 * ps, *T1 = tab + 4 * ps, *T2 = tab + 5 * ps;
    double *T3 = tab + 6 * ps, *T4 = tab + 7 * ps, *T5 = tab + 8 * ps;
    double ra = 1.0 / a, rdlam = 1.0 / dlam, rdth = 1.0 / dth;
    double rdlam_sq = 1.0 / dlam_sq;
    double dlam2 = 2.0 * dlam, rdlam2 = 1.0 / dlam2;
    double dth2 = 2.0 * dth, rdth2 = 1.0 / dth2;

    if (p_factor(psa, p0, pt, plane, pf))
        return 1;
    for (e = 0; e < plane; e++) {
        double p = pf[e];
        double t = p * p;
        pes[e] = t * p0;
        t = p * r_dry;
        baro[e] = t * tref[e];
    }

    /* ---- p'_sa: the spherical Laplacian of psa, then the combine ---- */
    for (j = 0; j < ny; j++) {  /* T0 = sin_v * d psa / d theta at v-rows */
        const double *c = psa + j * nx;
        const double *q = psa + wm(j + 1, ny) * nx;
        double svj = sin_v[j];
        double *o = T0 + j * nx;
        for (i = 0; i < nx; i++) {
            double t = q[i] - c[i];
            t = rdiv(t, dth, rdth);
            o[i] = t * svj;
        }
    }
    for (j = 0; j < ny; j++) {
        const double *c = psa + j * nx;
        const double *g = T0 + j * nx;
        const double *gm = T0 + wm(j - 1, ny) * nx;
        const double *csr = col_sum + j * nx;
        double ay = a2_sin_c[j], ray = 1.0 / ay;
        double ax = a2_sin2_c[j], rax = 1.0 / ax;
        double *o = tpsa + j * nx;
#define AD_S(i_, m1_, p1_) do { \
            double ly = g[i_] - gm[i_]; \
            ly = rdiv(ly, dth, rdth); \
            ly = rdiv(ly, ay, ray); \
            double lx = c[p1_] - 2.0 * c[i_]; \
            lx = lx + c[m1_]; \
            lx = rdiv(lx, dlam_sq, rdlam_sq); \
            lx = rdiv(lx, ax, rax); \
            double v = ly + lx; \
            v = k_diss * v; \
            v = v * kappa_star; \
            v = v - csr[i_]; \
            o[i_] = v * p0; \
        } while (0)
        AD_S(0, nx - 1, 1);
        for (i = 1; i < nx - 1; i++)
            AD_S(i, i - 1, i + 1);
        AD_S(nx - 1, nx - 2, 0);
#undef AD_S
    }

    /* ---- U: P, 1/P, baro, p_es, 1/p_es at u-points, d p_es / d lambda */
    to_u(pf, ny, nx, T0);
    recip(T0, plane, T1);
    to_u(baro, ny, nx, T2);
    to_u(pes, ny, nx, T3);
    recip(T3, plane, T4);
    for (j = 0; j < ny; j++) {
        const double *per = pes + j * nx;
        double *o = T5 + j * nx;
        { double t = per[0] - per[nx - 1]; o[0] = rdiv(t, dlam, rdlam); }
        for (i = 1; i < nx; i++) {
            double t = per[i] - per[i - 1];
            o[i] = rdiv(t, dlam, rdlam);
        }
    }
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jm1 = wm(j - 1, ny);
            const double *pur = T0 + j * nx, *rpu = T1 + j * nx;
            const double *bur = T2 + j * nx;
            const double *peu = T3 + j * nx, *rpe = T4 + j * nx;
            const double *ddr = T5 + j * nx;
            const double *Pc = phi_p + k * ps + j * nx;
            const double *Gc = Phi + k * ps + j * nx;
            const double *Uc = U + k * ps + j * nx;
            const double *Vm = V + k * ps + jm1 * nx;
            const double *Vc = V + k * ps + j * nx;
            double asj = a_sin_c[j], rasj = 1.0 / asj;
            double ccj = cot_c[j], ocj = omcos_c[j];
            double *o = tU + k * ps + j * nx;
#define AD_U(i_, m1_) do { \
            double t1 = Pc[i_] - Pc[m1_]; \
            t1 = rdiv(t1, dlam, rdlam); \
            t1 = t1 * pur[i_]; \
            t1 = rdiv(t1, asj, rasj); \
            double t2 = Gc[m1_] + Gc[i_]; \
            t2 = t2 * 0.5; \
            t2 = t2 * b; \
            t2 = t2 + bur[i_]; \
            t2 = rdiv(t2, peu[i_], rpe[i_]); \
            t2 = t2 * ddr[i_]; \
            t2 = rdiv(t2, asj, rasj); \
            double up = rdiv(Uc[i_], pur[i_], rpu[i_]); \
            double t4 = up * ccj; \
            t4 = rdiv(t4, a, ra); \
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

    /* ---- V: the same six tables at v-rows, d p_es / d theta --------- */
    to_v(pf, ny, nx, T0);
    recip(T0, plane, T1);
    to_v(baro, ny, nx, T2);
    to_v(pes, ny, nx, T3);
    recip(T3, plane, T4);
    for (j = 0; j < ny; j++) {
        const double *per = pes + j * nx;
        const double *peq = pes + wm(j + 1, ny) * nx;
        double *o = T5 + j * nx;
        for (i = 0; i < nx; i++) {
            double t = peq[i] - per[i];
            o[i] = rdiv(t, dth, rdth);
        }
    }
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jp1 = wm(j + 1, ny);
            const double *pvr = T0 + j * nx, *rpv = T1 + j * nx;
            const double *bvr = T2 + j * nx;
            const double *pev = T3 + j * nx, *rpe = T4 + j * nx;
            const double *ddr = T5 + j * nx;
            const double *Pc = phi_p + k * ps + j * nx;
            const double *Pp = phi_p + k * ps + jp1 * nx;
            const double *Gc = Phi + k * ps + j * nx;
            const double *Gp = Phi + k * ps + jp1 * nx;
            const double *Uc = U + k * ps + j * nx;
            const double *Uq = U + k * ps + jp1 * nx;
            double cvj = cot_v[j], ovj = omcos_v[j];
            double *o = tV + k * ps + j * nx;
#define AD_V(i_, p1_) do { \
            double t1 = Pp[i_] - Pc[i_]; \
            t1 = rdiv(t1, dth, rdth); \
            t1 = t1 * pvr[i_]; \
            t1 = rdiv(t1, a, ra); \
            double t2 = Gc[i_] + Gp[i_]; \
            t2 = t2 * 0.5; \
            t2 = t2 * b; \
            t2 = t2 + bvr[i_]; \
            t2 = rdiv(t2, pev[i_], rpe[i_]); \
            t2 = t2 * ddr[i_]; \
            t2 = rdiv(t2, a, ra); \
            double ub = Uc[i_] + Uc[p1_]; \
            ub = ub + Uq[i_]; \
            ub = ub + Uq[p1_]; \
            ub = ub * 0.25; \
            double t4 = rdiv(ub, pvr[i_], rpv[i_]); \
            t4 = t4 * cvj; \
            t4 = rdiv(t4, a, ra); \
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

    /* ---- Phi: col_sum / P, 1/p_es, the centred p_es differences ----- */
    for (e = 0; e < plane; e++)
        T0[e] = col_sum[e] / pf[e];
    recip(pes, plane, T1);
    for (j = 0; j < ny; j++) {
        const double *per = pes + j * nx;
        const double *pm = pes + wm(j - 1, ny) * nx;
        const double *pp = pes + wm(j + 1, ny) * nx;
        double *oy = T2 + j * nx;
        double *ox = T3 + j * nx;
        for (i = 0; i < nx; i++) {
            double t = pp[i] - pm[i];
            oy[i] = rdiv(t, dth2, rdth2);
        }
#define DLX(i_, m1_, p1_) do { \
            double t = per[p1_] - per[m1_]; \
            ox[i_] = rdiv(t, dlam2, rdlam2); \
        } while (0)
        DLX(0, nx - 1, 1);
        for (i = 1; i < nx - 1; i++)
            DLX(i, i - 1, i + 1);
        DLX(nx - 1, nx - 2, 0);
#undef DLX
    }
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jm1 = wm(j - 1, ny);
            const double *csr = T0 + j * nx;
            const double *per = pes + j * nx, *rpe = T1 + j * nx;
            const double *ddy = T2 + j * nx, *ddx = T3 + j * nx;
            const double *w0 = w_if + k * ps + j * nx;
            const double *w1 = w_if + (k + 1) * ps + j * nx;
            const double *Uc = U + k * ps + j * nx;
            const double *Vm = V + k * ps + jm1 * nx;
            const double *Vc = V + k * ps + j * nx;
            double sgk = sig_mid[k], rsgk = 1.0 / sgk;
            double asj = a_sin_c[j], rasj = 1.0 / asj;
            double *o = tPhi + k * ps + j * nx;
#define AD_P(i_, p1_) do { \
            double t1 = w0[i_] + w1[i_]; \
            t1 = t1 * 0.5; \
            t1 = rdiv(t1, sgk, rsgk); \
            t1 = t1 - csr[i_]; \
            double t2 = Vm[i_] + Vc[i_]; \
            t2 = t2 * 0.5; \
            t2 = rdiv(t2, per[i_], rpe[i_]); \
            t2 = t2 * ddy[i_]; \
            t2 = rdiv(t2, a, ra); \
            double t3 = Uc[i_] + Uc[p1_]; \
            t3 = t3 * 0.5; \
            t3 = rdiv(t3, per[i_], rpe[i_]); \
            t3 = t3 * ddx[i_]; \
            t3 = rdiv(t3, asj, rasj); \
            double v = t1 + t2; \
            v = v + t3; \
            o[i_] = v * coeff; \
        } while (0)
            for (i = 0; i < nx - 1; i++)
                AD_P(i, i + 1);
            AD_P(nx - 1, 0);
#undef AD_P
        }
    return 0;
}

/* ---- the vertical-integral diagnostics (serial / identity case) ------ */
/* Plane-sweep layout: the k loops are outermost and every inner loop is
   a contiguous streaming pass, so the prefix/suffix column sums become
   vectorized plane updates instead of strided per-column walks.  The
   prefix sums build in place inside pw and the suffix sums inside
   phi_prime before each is transformed to its final value.  True divides
   per point: 5 before (dlambda, dtheta, a sin theta_j, P, P^2) -> 3/nz
   after (1/P, 1/P^2 and bgrav/P, tabulated in tab planes 0-5).  pf (P)
   is an output.  Returns nonzero iff the surface pressure does not
   exceed the model top.                                                */
int vertical(const double *restrict U, const double *restrict V,
             const double *restrict Phi, const double *restrict psa,
             const double *restrict sin_v, const double *restrict a_sin_c,
             const double *restrict dsig, const double *restrict ratio,
             const double *restrict sig_if,
             double dlam, double dth, double bgrav, double p0, double pt,
             long nz, long ny, long nx, long ps,
             double *restrict pf,
             double *restrict div_p, double *restrict col_sum,
             double *restrict pw, double *restrict w,
             double *restrict sdot, double *restrict phi_prime,
             double *restrict tab)
{
    long k, j, i;
    long plane = ny * nx;
    double *pu2 = tab;           /* P staggered to u-points */
    double *pv2s = tab + ps;     /* P staggered to v-points, x sin_v */
    double *bf2 = tab + 2 * ps;  /* bgrav / P */
    double *rp = tab + 3 * ps;   /* 1 / P */
    double *p2 = tab + 4 * ps;   /* P^2 */
    double *rp2 = tab + 5 * ps;  /* 1 / P^2 */
    double rdlam = 1.0 / dlam, rdth = 1.0 / dth;

    if (p_factor(psa, p0, pt, plane, pf))
        return 1;
    to_u(pf, ny, nx, pu2);
    to_v(pf, ny, nx, pv2s);
    for (j = 0; j < ny; j++) {
        double svj = sin_v[j];
        double *o = pv2s + j * nx;
        for (i = 0; i < nx; i++)
            o[i] = o[i] * svj;
    }
    for (i = 0; i < plane; i++) {
        double p = pf[i], pp = p * p;
        bf2[i] = bgrav / p;
        rp[i] = 1.0 / p;
        p2[i] = pp;
        rp2[i] = 1.0 / pp;
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
            double asj = a_sin_c[j], rasj = 1.0 / asj;
            double *o = div_p + k * ps + j * nx;
#define DIVB(i_, p1_) do { \
            double fx = tu[p1_] * Uc[p1_] - tu[i_] * Uc[i_]; \
            fx = rdiv(fx, dlam, rdlam); \
            double fy = tv[i_] * Vc[i_] - tm[i_] * Vm[i_]; \
            fy = rdiv(fy, dth, rdth); \
            double dv = fx + fy; \
            o[i_] = rdiv(dv, asj, rasj); \
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
        double *pwk = pw + k * ps;
        double *wk = w + k * ps;
        double *sdk = sdot + k * ps;
        for (i = 0; i < plane; i++) {
            double t = sk * col_sum[i];
            t = t - pwk[i];
            pwk[i] = t;
            wk[i] = rdiv(t, pf[i], rp[i]);
            sdk[i] = rdiv(t, p2[i], rp2[i]);
        }
    }

    /* phi_prime: (hs - cphi/2) * bgrav/p, with cphi recomputed bitwise */
    for (k = 0; k < nz; k++) {
        const double *Pk = Phi + k * ps;
        double rk = ratio[k];
        double *o = phi_prime + k * ps;
        for (i = 0; i < plane; i++) {
            double c = rk * Pk[i];
            double t = c * 0.5;
            t = o[i] - t;
            o[i] = t * bf2[i];
        }
    }
    return 0;
}
"""
