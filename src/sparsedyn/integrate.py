"""Adaptive explicit Runge-Kutta integration with DOP853, in numpy only.

``integrate`` solves y' = fun(t, y) forward in time with Hairer's DOP853
pair, returns y at the requested output times, and can stop at a terminal
event.  It ports ``scipy.integrate.solve_ivp``'s DOP853 and keeps its
arithmetic in the same order: the initial step (Hairer, Norsett & Wanner,
*Solving ODEs I*, Sec. II.4), each stage, both error norms, the step
controller, and the extra stages and dense output at the output times.
Trajectories and evaluation counts therefore equal solve_ivp's bit for bit;
the tests hold it to that with solve_ivp as the oracle.  A terminal event is
checked at step ends, as solve_ivp does; in the step where it changes sign,
no root is sought: the output ends before the first of that step's output
times at which the event has left its sign (an output where it is exactly 0
is kept).  When the event crosses once in the step, these are the outputs
solve_ivp keeps up to its root.  The output times are evaluated in one pass
after the last step: each step that has outputs keeps its dense output
coefficients, and the Horner recurrence then runs once over all output times
(elementwise, so with the bits of one step at a time).  Two departures: a NaN
step size fails as "step too small", where solve_ivp loops forever (a
right-hand side that is NaN at the initial state), and a single output time
returns the initial state, where solve_ivp returns no sample.

DOP853 is Hairer's 8(5,3) pair with its 7th-order dense output (*Solving
ODEs I*, Sec. II.10); its coefficients are those of ``dop853.f`` by E. Hairer
and G. Wanner (http://www.unige.ch/~hairer/software.html).  The tableau and
the structure of the step follow SciPy's ``scipy.integrate._ivp``
(BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc. and 2003 onward, the
SciPy Developers).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

SAFETY = 0.9  # multiplies the asymptotic step-size estimate
MIN_FACTOR = 0.2  # largest decrease of the step size in one rejection
MAX_FACTOR = 10  # largest increase of the step size after one step
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


@dataclass(frozen=True)
class Trajectory:
    """``y[i]`` is the state at ``t[i]``; ``nfev`` counts right-hand sides.

    ``status`` is 0 when the end was reached, 1 when the event stopped the
    integration (``t`` then ends before the first output time at which the
    event has left its sign; one where it is exactly 0 is the last kept),
    and -1 when the step size fell below the float spacing at the current
    time (``message`` says so).
    """

    t: np.ndarray
    y: np.ndarray
    nfev: int
    status: int
    message: str = ""


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size**0.5


def _dense_rows(pairs, shape) -> np.ndarray:
    """A zero matrix with ``{row: {column: value}}`` entries set."""
    M = np.zeros(shape)
    for i, row in pairs.items():
        for j, value in row.items():
            M[i, j] = value
    return M


# The tableau: stages 0-11 make a step, stage 12 is the right-hand side at
# its end, and stages 13-15 are evaluated only for dense output.
_N_STAGES = 12
_ERROR_ORDER = 7  # the error estimate is of this order
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778,
])
_A = _dense_rows({
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
}, (16, 16))
_B = _A[12, :12]
_E3 = np.zeros(13)
_E3[:-1] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
]
# the last four of the seven interpolation coefficients
_D = _dense_rows({
    0: {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    1: {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    2: {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    3: {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
}, (4, 16))


def _error_norm(K, h, scale):
    """The scaled norm of a step's two error estimates, from its first 13
    stages ``K``."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
    err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / math.sqrt(denom * len(scale))


def _dense(K, h, y_old, y, f):
    """The seven dense-output coefficients of a step from ``y_old`` to ``y``
    (``f`` its right-hand side there), from all 16 stages ``K``."""
    F = np.empty((7, y.size))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(_D, K)
    return F


def _evaluate(steps, t_eval):
    """y at ``t_eval[:end]`` from the ``(first, end, t_old, h, y_old,
    coefficients)`` records of the steps that hold those output times."""
    # Horner's rule over all output times at once, one coefficient row at a
    # time; each operation is elementwise, so the bits are those of
    # evaluating one step at a time
    first, stop, t_old, h, y_old, F = map(np.array, zip(*steps))
    index = np.repeat(np.arange(len(steps)), stop - first)
    x = (t_eval[: stop[-1], None] - t_old[index, None]) / h[index, None]
    one_minus_x = 1 - x
    out = np.zeros((index.size, y_old.shape[1]))
    for i in range(7):
        out += F[index, 6 - i]
        out *= one_minus_x if i % 2 else x
    out += y_old[index]
    return out


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol) -> float:
    """Hairer, Norsett & Wanner's starting step (Sec. II.4); calls ``fun``
    once."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ORDER + 1))
    return min(100 * h0, h1, interval_length)


def _kept_before_event(event, g, t_out: np.ndarray, y_out: np.ndarray) -> int:
    """How many of the outputs ``(t_out, y_out)`` of the step in which the
    event changed sign come before it leaves ``g``'s strict sign; the first
    output at which it is exactly 0 is the last one kept."""
    sign = (g > 0, g < 0)
    for k, (t, y) in enumerate(zip(t_out.tolist(), y_out)):
        e = event(t, y)
        if e == 0 or (e > 0, e < 0) != sign:
            return k + 1 if e == 0 else k
    return len(t_out)


def integrate(
    fun: Callable[[float, np.ndarray], np.ndarray],
    t_eval: np.ndarray,
    y0: np.ndarray,
    rtol: float = 1e-3,
    atol: float = 1e-6,
    event: Callable[[float, np.ndarray], float] | None = None,
) -> Trajectory:
    """Integrate y' = fun(t, y) from ``t_eval[0]`` to ``t_eval[-1]`` and
    return y at each entry of the strictly increasing ``t_eval``.

    ``fun`` returns a float array of y's shape (n,).  ``event(t, y)``, if
    given, is terminal: the integration stops at the first step over which it
    changes sign, and the output ends before the first of that step's
    ``t_eval`` entries at which it has left its sign, or at the first where it
    is exactly 0.  The result is that of ``solve_ivp(fun, (t_eval[0],
    t_eval[-1]), y0, "DOP853", t_eval=t_eval, rtol=rtol, atol=atol,
    events=event)`` with the event marked terminal.
    """
    t_eval = np.asarray(t_eval, dtype=float)
    t, t_bound = float(t_eval[0]), float(t_eval[-1])
    y = np.asarray(y0, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state must be finite.")
    f = fun(t, y)
    if t == t_bound:
        return Trajectory(t_eval[:1].copy(), y[None, :].copy(), 1, 0)
    h_abs = _initial_step(fun, t, y, t_bound, f, rtol, atol)
    nfev = 2

    exponent = -1 / (_ERROR_ORDER + 1)
    K = np.empty((_C.size, y.size))
    stages = [(s, float(_C[s]), _A[s, :s], K[:s].T) for s in range(1, _N_STAGES)]
    extra = [(s, float(_C[s]), _A[s, :s], K[:s].T) for s in range(_N_STAGES + 1, _C.size)]
    K_b = K[:_N_STAGES].T
    K_err = K[: _N_STAGES + 1]

    times = t_eval.tolist()
    steps: list[tuple] = []  # the records of the steps with outputs
    n_out = 0
    g = None if event is None else event(t, y)
    status, message = None, ""
    while status is None:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # also ends a NaN step size
                status, message = -1, TOO_SMALL_STEP
                break
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            K[0] = f
            for s, c, a, K_s in stages:
                K[s] = fun(t + c * h, y + np.dot(K_s, a) * h)
            y_new = y + h * np.dot(K_b, _B)
            f_new = fun(t + h, y_new)
            K[_N_STAGES] = f_new
            nfev += _N_STAGES

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _error_norm(K_err, h, scale)
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err**exponent)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err**exponent)
            rejected = True
        if status is not None:
            break

        t_old, y_old, g_old = t, y, g
        t, y, f = t_new, y_new, f_new
        if t - t_bound >= 0:
            status = 0
        if event is not None:
            g = event(t, y)
            if (g_old <= 0 and g >= 0) or (g_old >= 0 and g <= 0):
                status = 1
        n_new = bisect_right(times, t)
        # like solve_ivp, evaluate (and count) the extra stages of the event's
        # step even when it holds no output time
        if n_new > n_out or status == 1:
            for s, c, a, K_s in extra:
                K[s] = fun(t_old + c * h, y_old + np.dot(K_s, a) * h)
            nfev += len(extra)
            coefficients = _dense(K, h, y_old, y, f)
            if status == 1 and n_new > n_out:
                # the step's own outputs, evaluated once, say where to cut
                t_out = t_eval[n_out:n_new]
                y_out = _evaluate([(0, t_out.size, t_old, h, y_old, coefficients)], t_out)
                n_new = n_out + _kept_before_event(event, g_old, t_out, y_out)
            if n_new > n_out:
                steps.append((n_out, n_new, t_old, h, y_old, coefficients))
                n_out = n_new

    states = _evaluate(steps, t_eval) if steps else np.empty((0, y.size))
    return Trajectory(t_eval[:n_out].copy(), states, nfev, status, message)
