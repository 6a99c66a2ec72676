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
``(TABLE_PLANES, ny, nx)`` block per call, from the rank's own workspace),
as do the ``ROW_BUFFERS`` row buffers that hold everything between the
fields and a tendency row: the library holds no static, heap or
variable-length-array storage, so ranks running as threads of one process
never share a byte of it.

``adaptation`` and ``advection`` evaluate one row of one field at a time
and have three *store modes* for it: the plain tendency, or — the update
being a radius-0 stage — the next iterate ``base + dt t`` or the midpoint
``((base + dt t) + base) / 2`` straight from the row buffer, the tendency
never reaching memory (see ``store_row``).

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
#: (``adaptation`` uses all of them, ``advection`` 8, ``vertical`` 7; one
#: shape, so a workspace pools one block for all three)
TABLE_PLANES = 9

#: rows of the flat row-buffer block ``advection`` takes as scratch: the
#: tendency row of a row that updates in place (all ``adaptation`` needs),
#: the zonal advecting velocity, and two rolling flux-row pairs per field
ROW_BUFFERS = 14

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

/* ---- the update, folded into a tendency's store ------------------------ */
/* The update is a radius-0 stage, so it rides the store of the tendency
   it consumes.  A tendency row is evaluated into one of two places.
   Store mode STORE_TEND, or a row the polar filter still has to rewrite
   (polar[j] != 0): the tendency array, raw.  Otherwise a row buffer that
   never leaves the cache, folded straight into the next iterate by
   store_row -- STORE_UPDATE: out = base + dt t (the two roundings of
   np.multiply / np.add); STORE_MIDPOINT: out = ((base + dt t) + base) / 2
   (the four of the update followed by ModelState.midpoint_into).  Only
   rows [j0, j1) of a slab are evaluated, and base / out are touched on
   the rows that update alone.                                          */
#define STORE_TEND 0
#define STORE_UPDATE 1
#define STORE_MIDPOINT 2

static void store_row(const double *restrict t, const double *restrict b,
                      double dt, int mode, long nx, double *restrict o)
{
    long i;
    if (mode == STORE_UPDATE)
        for (i = 0; i < nx; i++) {
            double p = t[i] * dt;
            o[i] = b[i] + p;
        }
    else
        for (i = 0; i < nx; i++) {
            double p = t[i] * dt;
            p = b[i] + p;
            p = b[i] + p;
            o[i] = p * 0.5;
        }
}

/* ---- advection: the row stages ---------------------------------------- */
/* L is evaluated per point, one row at a time, with everything between
   the prognostic fields and the tendency held in row buffers: the zonal
   advecting velocity of the row (ur), and the meridional mass flux
   v sin(theta) (vs) with the field's flux F v sin(theta) (fx) on the two
   interface rows around it -- two rolling pairs per field, each interface
   row computed once per level.                                          */

/* vs and fx on the v-row between Fc's centre row and Fn's (the next one).
   stag != 0: v = to_u(V) / pd with pd = to_u(to_v(P)) (U's frame); else
   v = V / pd with pd = to_v(P) (Phi's).                                 */
static void flux_row_c(const double *restrict Fc, const double *restrict Fn,
                       const double *restrict Vr,
                       const double *restrict pd, const double *restrict rpd,
                       double sj, int stag, long nx,
                       double *restrict vs, double *restrict fx)
{
    long i;
#define FLUX_C(i_, v_) do { \
        double t = (v_); \
        t = rdiv(t, pd[i_], rpd[i_]); \
        t = t * sj; \
        vs[i_] = t; \
        double f = Fc[i_] + Fn[i_]; \
        f = f * 0.5; \
        fx[i_] = f * t; \
    } while (0)
    if (stag) {
        FLUX_C(0, (Vr[nx - 1] + Vr[0]) * 0.5);
        for (i = 1; i < nx; i++)
            FLUX_C(i, (Vr[i - 1] + Vr[i]) * 0.5);
    } else
        for (i = 0; i < nx; i++)
            FLUX_C(i, Vr[i]);
#undef FLUX_C
}

/* the same on a centre row, for the v-row field V itself: from_v(V) is
   both the numerator of the advecting velocity and the flux average     */
static void flux_row_v(const double *restrict Vm, const double *restrict Vc,
                       const double *restrict pf, const double *restrict rpf,
                       double sj, long nx,
                       double *restrict vs, double *restrict fx)
{
    long i;
    for (i = 0; i < nx; i++) {
        double m = Vm[i] + Vc[i];
        m = m * 0.5;
        double t = rdiv(m, pf[i], rpf[i]);
        t = t * sj;
        vs[i] = t;
        fx[i] = m * t;
    }
}

/* -(L1 + L2 + L3) of one row of F into d.  Fa / Fb are the same row one
   level up / down -- the row itself at the model top / bottom, where
   (F + F) / 2 is the F the reference copies; fh / fl, vh / vl the flux
   rows the theta-difference takes (hi - lo); S0 / S1 the sigma-dot rows
   of the interfaces above and below, staggered to F's points as stag
   says (1: to_u; 2: to_v, with the next rows Q0 / Q1; 0: as they are). */
static void advection_row(const double *restrict Fr,
                          const double *restrict Fa, const double *restrict Fb,
                          const double *restrict ur,
                          const double *restrict fh, const double *restrict fl,
                          const double *restrict vh, const double *restrict vl,
                          const double *restrict S0, const double *restrict S1,
                          const double *restrict Q0, const double *restrict Q1,
                          int stag, double pj, double dj, double dk,
                          double d2, double dth, long nx, double *restrict d)
{
    long i;
    double rdj = 1.0 / dj, rdk = 1.0 / dk, rd2 = 1.0 / d2, rdth = 1.0 / dth;
#define ADV(i_, m1_, p1_, s0_, s1_) do { \
        double o = Fr[p1_] * ur[p1_] - Fr[m1_] * ur[m1_]; \
        o = rdiv(o, d2, rd2); \
        o = o * 2.0; \
        double t = ur[p1_] - ur[m1_]; \
        t = rdiv(t, d2, rd2); \
        t = Fr[i_] * t; \
        o = o - t; \
        o = o * pj; \
        double f = fh[i_] - fl[i_]; \
        f = rdiv(f, dth, rdth); \
        f = f * 2.0; \
        t = vh[i_] - vl[i_]; \
        t = rdiv(t, dth, rdth); \
        t = Fr[i_] * t; \
        f = f - t; \
        o = o + rdiv(f, dj, rdj); \
        double s0 = (s0_), s1 = (s1_); \
        double g0 = Fa[i_] + Fr[i_]; \
        g0 = g0 * 0.5; \
        g0 = s0 * g0; \
        double g1 = Fr[i_] + Fb[i_]; \
        g1 = g1 * 0.5; \
        g1 = s1 * g1; \
        double v = g1 - g0; \
        v = rdiv(v, dk, rdk); \
        t = s1 - s0; \
        t = rdiv(t, dk, rdk); \
        double u = Fr[i_] * 0.5; \
        u = u * t; \
        o = o + (v - u); \
        d[i_] = -o; \
    } while (0)
#define ADV_ROW(s0_, s1_, s0w_, s1w_) do { \
        ADV(0, nx - 1, 1, s0w_, s1w_); \
        for (i = 1; i < nx - 1; i++) \
            ADV(i, i - 1, i + 1, s0_, s1_); \
        i = nx - 1; \
        ADV(i, i - 1, 0, s0_, s1_); \
    } while (0)
    if (stag == 1)
        ADV_ROW((S0[i - 1] + S0[i]) * 0.5, (S1[i - 1] + S1[i]) * 0.5,
                (S0[nx - 1] + S0[0]) * 0.5, (S1[nx - 1] + S1[0]) * 0.5);
    else if (stag == 2)
        ADV_ROW((S0[i] + Q0[i]) * 0.5, (S1[i] + Q1[i]) * 0.5,
                (S0[0] + Q0[0]) * 0.5, (S1[0] + Q1[0]) * 0.5);
    else
        ADV_ROW(S0[i], S1[i], S0[0], S1[0]);
#undef ADV_ROW
#undef ADV
}

/* ---- the advection tendency ------------------------------------------ */
/* True divides per point: 27 before (6 by 2 dlam, 6 + 3 by dtheta and
   2a sin theta_j, 6 by dsigma_k, 6 by the P staggers) -> 4/nz after (the
   reciprocals of P and its three staggers, tabulated once per call in
   tab, planes 0-7); everything in the level loop is rdiv.  Arrays read /
   written per point: 5 / 3 (U, V, Phi, the sigma-dot bundle twice over;
   the three tendencies or iterates) -- before, 36 whole-array passes over
   five 3-D intermediates.  rows is ADVECTION_ROWS row buffers, trow one
   more (the tendency row of a row that updates in place).  Returns
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
              double *restrict tab, double *restrict rows,
              double *restrict trow,
              double *restrict tU, double *restrict tV,
              double *restrict tPhi,
              int mode, long j0, long j1,
              const unsigned char *restrict polar_c,
              const unsigned char *restrict polar_v, double dt,
              const double *restrict bU, const double *restrict bV,
              const double *restrict bPhi,
              double *restrict oU, double *restrict oV,
              double *restrict oPhi)
{
    long k, j, i;
    long plane = ny * nx;
    double d2 = 2.0 * dlam;
    double *pf = tab;            /* P at centres */
    double *pu2 = tab + ps;      /* P staggered to u-points */
    double *pv2 = tab + 2 * ps;  /* P staggered to v-points */
    double *b2 = tab + 3 * ps;   /* pv2 staggered back to u-points */
    double *rpf = tab + 4 * ps;  /* ... and their reciprocals */
    double *rpu2 = tab + 5 * ps;
    double *rpv2 = tab + 6 * ps;
    double *rb2 = tab + 7 * ps;
    double *ur = rows;           /* zonal advecting velocity of the row */
    double *uv[2] = {rows + nx, rows + 2 * nx};      /* U: vs at v-rows */
    double *uf[2] = {rows + 3 * nx, rows + 4 * nx};  /*    fx   j-1, j  */
    double *vv[2] = {rows + 5 * nx, rows + 6 * nx};  /* V: at centre    */
    double *vf[2] = {rows + 7 * nx, rows + 8 * nx};  /*    rows j, j+1  */
    double *pv[2] = {rows + 9 * nx, rows + 10 * nx}; /* Phi: at v-rows  */
    double *pq[2] = {rows + 11 * nx, rows + 12 * nx};/*    j-1, j       */

    if (p_factor(psa, p0, pt, plane, pf))
        return 1;
    to_u(pf, ny, nx, pu2);
    to_v(pf, ny, nx, pv2);
    to_u(pv2, ny, nx, b2);
    recip(pf, plane, rpf);
    recip(pu2, plane, rpu2);
    recip(pv2, plane, rpv2);
    recip(b2, plane, rb2);

    for (k = 0; k < nz; k++) {
        long ka = (k > 0 ? k - 1 : k) * ps, kb = (k < nz - 1 ? k + 1 : k) * ps;
        long kc = k * ps, kn = (k + 1) * ps;
        long c = 0;  /* which of each rolling pair holds the current row */
        {   /* prime the rolling rows: v-row j0 - 1, centre row j0 */
            long rm = wm(j0 - 1, ny), jm = rm * nx, jc = j0 * nx;
            flux_row_c(U + kc + jm, U + kc + jc, V + kc + jm,
                       b2 + jm, rb2 + jm, sin_v[rm], 1, nx, uv[1], uf[1]);
            flux_row_c(Phi + kc + jm, Phi + kc + jc, V + kc + jm,
                       pv2 + jm, rpv2 + jm, sin_v[rm], 0, nx, pv[1], pq[1]);
            flux_row_v(V + kc + jm, V + kc + jc, pf + jc, rpf + jc,
                       sin_c[j0], nx, vv[0], vf[0]);
        }
        for (j = j0; j < j1; j++, c ^= 1) {
            long rp = wm(j + 1, ny), jr = j * nx, jp = rp * nx;
            long p = c ^ 1;  /* the other buffer of each pair */
            const double *Ur = U + kc + jr, *Uq = U + kc + jp;
            const double *Vr = V + kc + jr, *Vq = V + kc + jp;
            const double *Gr = Phi + kc + jr, *Gq = Phi + kc + jp;
            const double *S0 = sdot + kc + jr, *S1 = sdot + kn + jr;
            double dk = dsig[k];
            int upd_c = mode != STORE_TEND && !polar_c[j];
            int upd_v = mode != STORE_TEND && !polar_v[j];
            double *d;

            /* ---- U: u = U / to_u(P) ---------------------------------- */
            {
                const double *pr = pu2 + jr, *rr = rpu2 + jr;
                for (i = 0; i < nx; i++)
                    ur[i] = rdiv(Ur[i], pr[i], rr[i]);
            }
            flux_row_c(Ur, Uq, Vr, b2 + jr, rb2 + jr, sin_v[j], 1, nx,
                       uv[c], uf[c]);
            d = upd_c ? trow : tU + kc + jr;
            advection_row(Ur, U + ka + jr, U + kb + jr, ur,
                          uf[c], uf[p], uv[c], uv[p], S0, S1, S0, S1, 1,
                          pre_c[j], tas_c[j], dk, d2, dth, nx, d);
            if (upd_c)
                store_row(d, bU + kc + jr, dt, mode, nx, oU + kc + jr);

            /* ---- V: u = u_to_v(U) / to_v(P) ---------------------------- */
            {
                const double *pr = pv2 + jr, *rr = rpv2 + jr;
#define UBAR(i_, p1_) do { \
                double t = Ur[i_] + Ur[p1_]; \
                t = t + Uq[i_]; \
                t = t + Uq[p1_]; \
                t = t * 0.25; \
                ur[i_] = rdiv(t, pr[i_], rr[i_]); \
            } while (0)
                for (i = 0; i < nx - 1; i++)
                    UBAR(i, i + 1);
                UBAR(nx - 1, 0);
#undef UBAR
            }
            flux_row_v(Vr, Vq, pf + jp, rpf + jp, sin_c[rp], nx,
                       vv[p], vf[p]);
            d = upd_v ? trow : tV + kc + jr;
            advection_row(Vr, V + ka + jr, V + kb + jr, ur,
                          vf[p], vf[c], vv[p], vv[c],
                          S0, S1, sdot + kc + jp, sdot + kn + jp, 2,
                          pre_v[j], tas_v[j], dk, d2, dth, nx, d);
            if (upd_v)
                store_row(d, bV + kc + jr, dt, mode, nx, oV + kc + jr);

            /* ---- Phi: u = from_u(U) / P ------------------------------ */
            {
                const double *pr = pf + jr, *rr = rpf + jr;
#define USTAG(i_, p1_) do { \
                double t = Ur[i_] + Ur[p1_]; \
                t = t * 0.5; \
                ur[i_] = rdiv(t, pr[i_], rr[i_]); \
            } while (0)
                for (i = 0; i < nx - 1; i++)
                    USTAG(i, i + 1);
                USTAG(nx - 1, 0);
#undef USTAG
            }
            flux_row_c(Gr, Gq, Vr, pv2 + jr, rpv2 + jr, sin_v[j], 0, nx,
                       pv[c], pq[c]);
            d = upd_c ? trow : tPhi + kc + jr;
            advection_row(Gr, Phi + ka + jr, Phi + kb + jr, ur,
                          pq[c], pq[p], pv[c], pv[p], S0, S1, S0, S1, 0,
                          pre_c[j], tas_c[j], dk, d2, dth, nx, d);
            if (upd_c)
                store_row(d, bPhi + kc + jr, dt, mode, nx, oPhi + kc + jr);
        }
    }
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
               double *restrict tab, double *restrict trow,
               double *restrict tU, double *restrict tV,
               double *restrict tPhi, double *restrict tpsa,
               int mode, long j0, long j1,
               const unsigned char *restrict polar_c,
               const unsigned char *restrict polar_v, double dt,
               const double *restrict bU, const double *restrict bV,
               const double *restrict bPhi, const double *restrict bpsa,
               double *restrict oU, double *restrict oV,
               double *restrict oPhi, double *restrict opsa)
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
    for (j = j0; j < j1; j++) {
        const double *c = psa + j * nx;
        const double *g = T0 + j * nx;
        const double *gm = T0 + wm(j - 1, ny) * nx;
        const double *csr = col_sum + j * nx;
        double ay = a2_sin_c[j], ray = 1.0 / ay;
        double ax = a2_sin2_c[j], rax = 1.0 / ax;
        int upd = mode != STORE_TEND && !polar_c[j];
        double *o = upd ? trow : tpsa + j * nx;
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
        if (upd)
            store_row(o, bpsa + j * nx, dt, mode, nx, opsa + j * nx);
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
        for (j = j0; j < j1; j++) {
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
            int upd = mode != STORE_TEND && !polar_c[j];
            double *o = upd ? trow : tU + k * ps + j * nx;
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
            if (upd)
                store_row(o, bU + k * ps + j * nx, dt, mode, nx,
                          oU + k * ps + j * nx);
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
        for (j = j0; j < j1; j++) {
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
            int upd = mode != STORE_TEND && !polar_v[j];
            double *o = upd ? trow : tV + k * ps + j * nx;
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
            if (upd)
                store_row(o, bV + k * ps + j * nx, dt, mode, nx,
                          oV + k * ps + j * nx);
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
        for (j = j0; j < j1; j++) {
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
            int upd = mode != STORE_TEND && !polar_c[j];
            double *o = upd ? trow : tPhi + k * ps + j * nx;
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
            if (upd)
                store_row(o, bPhi + k * ps + j * nx, dt, mode, nx,
                          oPhi + k * ps + j * nx);
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
    double *run = tab + 6 * ps;  /* running suffix sum of ratio*Phi */
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

    /* flux divergence, plane by plane, with the prefix sums of dsig*div
       riding the same pass: they build in place inside pw, level k + 1
       from level k (one plane back, still in cache).  np.cumsum copies
       the first element exactly (no 0+x, which would flip a -0.0)      */
    for (i = 0; i < plane; i++)
        pw[i] = 0.0;
    for (k = 0; k < nz; k++)
        for (j = 0; j < ny; j++) {
            long jm1 = wm(j - 1, ny);
            const double *Uc = U + k * ps + j * nx;
            const double *Vc = V + k * ps + j * nx;
            const double *Vm = V + k * ps + jm1 * nx;
            const double *tu = pu2 + j * nx;
            const double *tv = pv2s + j * nx;
            const double *tm = pv2s + jm1 * nx;
            const double *sk = pw + k * ps + j * nx;
            double asj = a_sin_c[j], rasj = 1.0 / asj;
            double dk = dsig[k];
            double *o = div_p + k * ps + j * nx;
            double *sn = pw + (k + 1) * ps + j * nx;
#define DIVB(i_, p1_, sum_) do { \
            double fx = tu[p1_] * Uc[p1_] - tu[i_] * Uc[i_]; \
            fx = rdiv(fx, dlam, rdlam); \
            double fy = tv[i_] * Vc[i_] - tm[i_] * Vm[i_]; \
            fy = rdiv(fy, dth, rdth); \
            double dv = fx + fy; \
            dv = rdiv(dv, asj, rasj); \
            o[i_] = dv; \
            dv = dk * dv; \
            sn[i_] = sum_; \
        } while (0)
            if (k == 0) {
                for (i = 0; i < nx - 1; i++)
                    DIVB(i, i + 1, dv);
                DIVB(nx - 1, 0, dv);
            } else {
                for (i = 0; i < nx - 1; i++)
                    DIVB(i, i + 1, sk[i] + dv);
                DIVB(nx - 1, 0, sk[nx - 1] + dv);
            }
#undef DIVB
        }
    for (i = 0; i < plane; i++)
        col_sum[i] = pw[nz * ps + i];

    /* suffix sums of ratio*Phi, bottom up, in one running plane; each
       level's phi_prime = (hs - cphi/2) * bgrav/p leaves in the same pass */
    for (i = 0; i < plane; i++)
        run[i] = 0.0;
    for (k = nz - 1; k >= 0; k--) {
        const double *Pk = Phi + k * ps;
        double rk = ratio[k];
        int bottom = k == nz - 1;  /* the sum starts with a copy, not 0+x */
        double *o = phi_prime + k * ps;
        for (i = 0; i < plane; i++) {
            double c = rk * Pk[i];
            double h = run[i] + c;
            h = bottom ? c : h;
            run[i] = h;
            double t = c * 0.5;
            t = h - t;
            o[i] = t * bf2[i];
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

    return 0;
}
"""
