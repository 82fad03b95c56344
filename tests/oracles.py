"""Independent oracles: the step-at-a-time forms that dacsim's vectorised
kernels replaced, kept word for word so the tests can hold the kernels to
them."""

import numpy as np


def fading_integral(grid, pi_udot_samples, blam):
    """int_0^{t_k} e^{-blam (t_k - tau)} f(tau) dtau at every grid point,
    by the composite trapezoid rule, one point at a time:
    I(t_k) = e^{-blam h_k} I(t_{k-1}) + trapezoid over [t_{k-1}, t_k]."""
    grid = np.asarray(grid, dtype=float)
    f = np.asarray(pi_udot_samples, dtype=float)
    h = np.diff(grid)
    decay = np.exp(-blam * h)
    trapezoids = 0.5 * h * (decay * f[:-1] + f[1:])
    integral = np.zeros_like(grid)
    acc = 0.0
    for k, (dec, inc) in enumerate(zip(decay.tolist(), trapezoids.tolist()), start=1):
        acc = dec * acc + inc
        integral[k] = acc
    return integral


def svg_points(xs, ys):
    """A polyline's points attribute: "x,y" pairs to two decimals, joined
    by single spaces."""
    return " ".join(map("%.2f,%.2f".__mod__, zip(np.asarray(xs).tolist(),
                                                  np.asarray(ys).tolist())))
