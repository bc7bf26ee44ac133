"""Unbounded limited-memory BFGS, as L-BFGS-B runs it when no bound is set.

One call minimizes one smoothed annealing stage. The iteration is that of
L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995, *SIAM J. Sci. Comput.* 16:1190;
Zhu, Byrd, Lu & Nocedal 1997, *ACM TOMS* 23:550) with every variable free:

- the first iteration steps along -g, starting at step min(1/|g|, 1e10);
  later iterations step along -H g from step 1, where H is the compact
  limited-memory inverse Hessian of the last 10 pairs (Byrd, Nocedal &
  Schnabel 1994, *Math. Program.* 63:129);
- the step comes from the More-Thuente line search (More & Thuente 1994,
  *ACM TOMS* 20:286) with ftol 1e-3, gtol 0.9, xtol 0.1 and at most 20
  evaluations;
- a pair whose curvature s'y is not positive enough is skipped;
- a failed line search restores the previous iterate, and then either
  clears the memory and tries again along -g, or, with an empty memory,
  stops abnormally.

Stop tests and messages are L-BFGS-B's, so results read as scipy's
``minimize(method="L-BFGS-B")`` results do, without importing scipy.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OptimizeResult", "minimize"]

PGTOL_MESSAGE = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
FTOL_MESSAGE = "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"
MAXITER_MESSAGE = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
MAXFUN_MESSAGE = "STOP: TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT"
ABNORMAL_MESSAGE = "ABNORMAL: "

_EPS = float(np.finfo(float).eps)
#: Pairs kept in memory, L-BFGS-B's ``maxcor``.
_MEMORY = 10
#: Evaluations after which a run stops at the end of an iteration, ``maxfun``.
_MAX_EVALUATIONS = 15000
#: Line search evaluations allowed per iteration, ``maxls``.
_MAX_LINE_EVALUATIONS = 20
#: Relative decrease at which a run stops, L-BFGS-B's ``ftol`` (it tests
#: factr*epsmch with factr = ftol/eps, which at 1e-12 is 1e-12 exactly).
_DECREASE_TOL = 1e-12
#: Bounds of a line search step; the upper one is L-BFGS-B's ``big``.
_STPMIN, _STPMAX = 0.0, 1e10


@dataclass
class OptimizeResult:
    """Where a minimization stopped and why.

    ``fun`` and ``jac`` are the value and gradient at ``x``, and
    ``evaluation`` is what ``fun`` returned there. ``path`` holds the value
    at x0 and after every iteration, so it ends with ``fun``. ``status`` is 0
    when a tolerance test stopped the run, 1 at the iteration or evaluation
    limit and 2 when a line search failed with an empty memory.
    """

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nit: int
    nfev: int
    status: int
    message: str
    path: list[float]
    evaluation: tuple


def minimize(fun, x0, *, maxiter: int, gtol: float) -> OptimizeResult:
    """Minimize ``fun`` from ``x0``; ``fun(x)`` returns a sequence that starts
    with the value and the gradient, and may carry more.

    Stops when an iteration ends with max|g| <= ``gtol`` or with a decrease
    f_old - f <= 1e-12·max(|f_old|, |f|, 1) (tested in that order, after
    the iteration and evaluation limits), or when ``maxiter`` iterations are
    done, or when more than 15000 evaluations are done.
    """
    x = np.array(x0, dtype=float)
    evaluation = fun(x)
    f, g = float(evaluation[0]), evaluation[1]
    path = [f]
    nfev, nit = 1, 0

    def stop(status, message):
        return OptimizeResult(x, f, g, nit, nfev, status, message, path, evaluation)

    if np.abs(g).max() <= gtol:
        return stop(0, PGTOL_MESSAGE)
    memory = _Memory(x.size, _MEMORY)
    while True:
        d = -g if memory.k == 0 else memory.direction(g)
        step = min(1.0 / math.sqrt(float(d @ d)), _STPMAX) if nit == 0 else 1.0
        x_old, f_old, g_old, evaluation_old = x, f, g, evaluation
        gd_old = float(g @ d)
        accepted = False
        if gd_old < 0.0:
            search = _LineSearch(step, f, gd_old)
            # The step whose evaluation x, f and g hold: when the search asks
            # for it again, it is not evaluated again.
            evaluated = None
            for _ in range(_MAX_LINE_EVALUATIONS):
                if step != evaluated:
                    x = x_old + step * d
                    evaluation = fun(x)
                    f, g = float(evaluation[0]), evaluation[1]
                    nfev += 1
                    evaluated = step
                gd = float(g @ d)
                step, task = search.iterate(step, f, gd)
                if task != "FG":
                    accepted = True
                    break
                if not math.isfinite(step):
                    break
        if not accepted:
            x, f, g, evaluation = x_old, f_old, g_old, evaluation_old
            if memory.k == 0:
                return stop(2, ABNORMAL_MESSAGE)
            memory.clear()
            continue

        nit += 1
        path.append(f)
        if nit >= maxiter:
            return stop(1, MAXITER_MESSAGE)
        if nfev > _MAX_EVALUATIONS:
            return stop(1, MAXFUN_MESSAGE)
        if np.abs(g).max() <= gtol:
            return stop(0, PGTOL_MESSAGE)
        if f_old - f <= _DECREASE_TOL * max(abs(f_old), abs(f), 1.0):
            return stop(0, FTOL_MESSAGE)
        # s = step*d, so s'y = step*(g'd - g_old'd), as L-BFGS-B forms it.
        sy = (gd - gd_old) * step
        if sy > _EPS * (-gd_old * step):
            memory.add(step * d, g - g_old, sy)


class _Memory:
    """The last ``m`` pairs (s, y), oldest first, in compact form.

    The inverse Hessian is H = γI + [S γY] [[R⁻ᵀ(D + γY'Y)R⁻¹, -R⁻ᵀ], [-R⁻¹, 0]]
    [S'; γY'] (Byrd, Nocedal & Schnabel 1994, Theorem 2.2), where R is the
    upper triangle of S'Y, D its diagonal and γ = s'y/y'y of the newest pair.
    R⁻¹ and Y'Y are kept up to date one pair at a time: dropping the oldest
    pair drops their first row and column, and a new pair adds a last one.
    """

    def __init__(self, n: int, m: int):
        self.m = m
        self.s = np.empty((m, n))
        self.y = np.empty((m, n))
        #: Upper triangular; the entries below the diagonal stay zero.
        self.r_inv = np.zeros((m, m))
        self.yy = np.empty((m, m))
        self.diag = np.empty(m)
        self.k = 0
        self.gamma = 1.0

    def clear(self):
        self.k = 0
        self.gamma = 1.0

    def add(self, s: np.ndarray, y: np.ndarray, sy: float):
        """Append a pair whose curvature ``sy`` (s'y) is positive."""
        if self.k == self.m:
            for a in (self.s, self.y, self.diag):
                a[:-1] = a[1:]
            for a in (self.r_inv, self.yy):
                a[:-1, :-1] = a[1:, 1:]
            self.k -= 1
        k = self.k
        self.s[k], self.y[k] = s, y
        yy = self.y[:k + 1] @ y
        self.yy[k, :k + 1] = self.yy[:k + 1, k] = yy
        self.diag[k] = sy
        # R gains the column (S'y, sy), so R⁻¹ gains (-R⁻¹S'y/sy, 1/sy).
        self.r_inv[:k, k] = self.r_inv[:k, :k] @ (self.s[:k] @ y) / -sy
        self.r_inv[k, k] = 1.0 / sy
        self.k = k + 1
        self.gamma = sy / float(yy[k])

    def direction(self, g: np.ndarray) -> np.ndarray:
        """The search direction -H g."""
        k, gamma = self.k, self.gamma
        s, y, r_inv = self.s[:k], self.y[:k], self.r_inv[:k, :k]
        w = r_inv @ (s @ g)
        u = r_inv.T @ (self.diag[:k] * w + gamma * (self.yy[:k, :k] @ w - y @ g))
        return gamma * (y.T @ w - g) - s.T @ u


# The line search below is adapted from SciPy's Python port of MINPACK-2
# dcsrch and dcstep (scipy/optimize/_dcsrch.py, SciPy 1.17). It works on
# Python floats rather than numpy scalars, which are slower; where Python
# raises on a zero division, dcstep runs again on numpy scalars, which give
# inf or nan as the original does. The notice of the original file:
#
#     2023 - ported from minpack2.dcsrch, dcstep (Fortran) to Python
#     c     MINPACK-1 Project. June 1983.
#     c     Argonne National Laboratory.
#     c     Jorge J. More' and David J. Thuente.
#     c
#     c     MINPACK-2 Project. November 1993.
#     c     Argonne National Laboratory and University of Minnesota.
#     c     Brett M. Averick, Richard G. Carter, and Jorge J. More'.
#
# SciPy's license:
#
#     Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
#     All rights reserved.
#
#     Redistribution and use in source and binary forms, with or without
#     modification, are permitted provided that the following conditions
#     are met:
#
#     1. Redistributions of source code must retain the above copyright
#        notice, this list of conditions and the following disclaimer.
#
#     2. Redistributions in binary form must reproduce the above
#        copyright notice, this list of conditions and the following
#        disclaimer in the documentation and/or other materials provided
#        with the distribution.
#
#     3. Neither the name of the copyright holder nor the names of its
#        contributors may be used to endorse or promote products derived
#        from this software without specific prior written permission.
#
#     THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#     "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#     LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#     A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#     OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#     SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#     LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#     DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#     THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#     (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#     OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

_FTOL, _GTOL, _XTOL = 1e-3, 0.9, 0.1


class _LineSearch:
    """dcsrch: a step satisfying the strong Wolfe conditions.

    Constructed with the first trial step and the value and directional
    derivative at step 0 (negative; the caller checks). Each ``iterate``
    takes the value and derivative at the current trial step and returns
    the next step with the task: "FG" to evaluate there, "CONV" when the
    step satisfies both conditions, "WARN" when no better step can be
    found; either of the last two ends the search at the current step.
    """

    def __init__(self, stp, f, g):
        self.brackt = False
        self.stage = 1
        self.finit = f
        self.ginit = g
        self.gtest = _FTOL * g
        self.width = _STPMAX - _STPMIN
        self.width1 = self.width / 0.5
        # stx, fx, gx: the step, function and derivative at the best step.
        # sty, fy, gy: the same at the other endpoint of the interval.
        self.stx = 0.0
        self.fx = f
        self.gx = g
        self.sty = 0.0
        self.fy = f
        self.gy = g
        self.stmin = 0.0
        self.stmax = stp + 4.0 * stp

    def iterate(self, stp, f, g):
        p5 = 0.5
        p66 = 0.66
        xtrapl = 1.1
        xtrapu = 4.0

        # If psi(stp) <= 0 and f'(stp) >= 0 for some step, then the
        # algorithm enters the second stage.
        ftest = self.finit + stp * self.gtest
        if self.stage == 1 and f <= ftest and g >= 0:
            self.stage = 2

        # Test for warnings.
        task = "FG"
        if self.brackt and (stp <= self.stmin or stp >= self.stmax):
            task = "WARN"  # rounding errors prevent progress
        if self.brackt and self.stmax - self.stmin <= _XTOL * self.stmax:
            task = "WARN"  # xtol test satisfied
        if stp == _STPMAX and f <= ftest and g <= self.gtest:
            task = "WARN"  # stp = stpmax
        if stp == _STPMIN and (f > ftest or g >= self.gtest):
            task = "WARN"  # stp = stpmin

        # Test for convergence.
        if f <= ftest and abs(g) <= _GTOL * -self.ginit:
            task = "CONV"

        # Test for termination.
        if task != "FG":
            return stp, task

        # A modified function is used to predict the step during the
        # first stage if a lower function value has been obtained but
        # the decrease is not sufficient.
        if self.stage == 1 and f <= self.fx and f > ftest:
            # Define the modified function and derivative values.
            fm = f - stp * self.gtest
            fxm = self.fx - self.stx * self.gtest
            fym = self.fy - self.sty * self.gtest
            gm = g - self.gtest
            gxm = self.gx - self.gtest
            gym = self.gy - self.gtest

            # Call dcstep to update stx, sty, and to compute the new step.
            self.stx, fxm, gxm, self.sty, fym, gym, stp, self.brackt = _dcstep(
                self.stx, fxm, gxm, self.sty, fym, gym, stp, fm, gm,
                self.brackt, self.stmin, self.stmax,
            )

            # Reset the function and derivative values for f.
            self.fx = fxm + self.stx * self.gtest
            self.fy = fym + self.sty * self.gtest
            self.gx = gxm + self.gtest
            self.gy = gym + self.gtest
        else:
            # Call dcstep to update stx, sty, and to compute the new step.
            (self.stx, self.fx, self.gx, self.sty, self.fy, self.gy, stp,
             self.brackt) = _dcstep(
                self.stx, self.fx, self.gx, self.sty, self.fy, self.gy, stp, f, g,
                self.brackt, self.stmin, self.stmax,
            )

        # Decide if a bisection step is needed.
        if self.brackt:
            if abs(self.sty - self.stx) >= p66 * self.width1:
                stp = self.stx + p5 * (self.sty - self.stx)
            self.width1 = self.width
            self.width = abs(self.sty - self.stx)

        # Set the minimum and maximum steps allowed for stp.
        if self.brackt:
            self.stmin = min(self.stx, self.sty)
            self.stmax = max(self.stx, self.sty)
        else:
            self.stmin = stp + xtrapl * (stp - self.stx)
            self.stmax = stp + xtrapu * (stp - self.stx)

        # Force the step to be within the bounds stpmax and stpmin.
        stp = min(max(stp, _STPMIN), _STPMAX)

        # If further progress is not possible, let stp be the best
        # point obtained during the search.
        if (
            self.brackt
            and (stp <= self.stmin or stp >= self.stmax)
            or (self.brackt and self.stmax - self.stmin <= _XTOL * self.stmax)
        ):
            stp = self.stx

        # Obtain another function and derivative.
        return float(stp), "FG"


def _dcstep(*args):
    try:
        return _dcstep_ieee(*args)
    except ZeroDivisionError:
        with np.errstate(all="ignore"):
            *values, brackt = _dcstep_ieee(*map(np.float64, args))
        return (*map(float, values), bool(brackt))


def _sqrt(v):
    return math.sqrt(v) if v >= 0 else math.nan


def _sign(v):
    return (v > 0) - (v < 0)


def _dcstep_ieee(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """dcstep: a safeguarded trial step, and the interval that brackets a step
    satisfying the sufficient decrease and curvature conditions.

    stx is the step with the least function value so far, with fx and dx
    its value and derivative; sty, fy, dy the other endpoint of the
    interval; stp, fp, dp the current step. brackt tells whether a
    minimizer has been bracketed; the derivative at stx must be negative in
    the direction of the step. Returns the updated (stx, fx, dx, sty, fy,
    dy), the new trial step and brackt.
    """
    sgnd = _sign(dp) * _sign(dx)

    # First case: A higher function value. The minimum is bracketed.
    # If the cubic step is closer to stx than the quadratic step, the
    # cubic step is taken, otherwise the average of the cubic and
    # quadratic steps is taken.
    if fp > fx:
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * _sqrt((theta / s) * (theta / s) - (dx / s) * (dp / s))
        if stp < stx:
            gamma *= -1
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        r = p / q
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        if abs(stpc - stx) <= abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:
        # Second case: A lower function value and derivatives of opposite
        # sign. The minimum is bracketed. If the cubic step is farther from
        # stp than the secant step, the cubic step is taken, otherwise the
        # secant step is taken.
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * _sqrt((theta / s) * (theta / s) - (dx / s) * (dp / s))
        if stp > stx:
            gamma *= -1
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        r = p / q
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if abs(stpc - stp) > abs(stpq - stp):
            stpf = stpc
        else:
            stpf = stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # Third case: A lower function value, derivatives of the same sign,
        # and the magnitude of the derivative decreases.

        # The cubic step is computed only if the cubic tends to infinity
        # in the direction of the step or if the minimum of the cubic
        # is beyond stp. Otherwise the cubic step is defined to be the
        # secant step.
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))

        # The case gamma = 0 only arises if the cubic does not tend
        # to infinity in the direction of the step.
        gamma = s * _sqrt(max(0, (theta / s) * (theta / s) - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)

        if brackt:
            # A minimizer has been bracketed. If the cubic step is
            # closer to stp than the secant step, the cubic step is
            # taken, otherwise the secant step is taken.
            if abs(stpc - stp) < abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq

            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            # A minimizer has not been bracketed. If the cubic step is
            # farther from stp than the secant step, the cubic step is
            # taken, otherwise the secant step is taken.
            if abs(stpc - stp) > abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            stpf = min(max(stpf, stpmin), stpmax)

    else:
        # Fourth case: A lower function value, derivatives of the same sign,
        # and the magnitude of the derivative does not decrease. If the
        # minimum is not bracketed, the step is either stpmin or stpmax,
        # otherwise the cubic step is taken.
        if brackt:
            theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
            s = max(abs(theta), abs(dy), abs(dp))
            gamma = s * _sqrt((theta / s) * (theta / s) - (dy / s) * (dp / s))
            if stp > sty:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dy
            r = p / q
            stpc = stp + r * (sty - stp)
            stpf = stpc
        elif stp > stx:
            stpf = stpmax
        else:
            stpf = stpmin

    # Update the interval which contains a minimizer.
    if fp > fx:
        sty = stp
        fy = fp
        dy = dp
    else:
        if sgnd < 0:
            sty = stx
            fy = fx
            dy = dx
        stx = stp
        fx = fp
        dx = dp

    # Compute the new step.
    stp = stpf

    return stx, fx, dx, sty, fy, dy, stp, brackt
