"""The tests' one textbook RK4, the reference the package's flows are checked against."""


def textbook_rk4(f, y, t0, h, steps):
    """Reference RK4 for dy/dt = f(t, y), written out with a new array per
    operation, independent of the package's buffered ``particle.rk4``; yields
    y after each step.  ``np.stack`` the rows where a run is needed."""
    for k in range(steps):
        t = t0 + k * h
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        yield y
