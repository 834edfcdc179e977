"""Closed-form benchmarks: self-similar profiles and a comparison ODE.

Everything here is exact arithmetic on formulas, independent of the
finite-volume solver, so it can serve as an oracle for it.  Three families:

* the Barenblatt source solution of the porous-medium equation,
* compactly supported sub/super profiles
      g(x, t) = amplitude * (shift + t)**(sign * rate_exp)
                * max(support_scale - |x - center|^2 / (shift + t)**spread_exp, 0)**shape_exp
  whose parameters are picked so that g bounds the cell density from below
  (all times) or from above (a short initial window); each profile carries
  the end of its window as valid_until,
* the scalar comparison ODE g' = C e^{-c t} g^m with an explicit blow-up
  dichotomy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConstructionError",
    "ProfileParams",
    "barenblatt",
    "barenblatt_support_radius",
    "select_lower_profile",
    "lower_profile_branches",
    "select_upper_profile",
    "BlowupResult",
    "classify_blowup",
]


class ConstructionError(RuntimeError):
    """A profile construction could not satisfy its inequalities."""


def barenblatt(x, t: float, m: float, n: int):
    """Source solution of u_t = Lap(u^m) in n dimensions, mass fixed by m, n.

    B(x, t) = (1+t)^{-k} (1 - k(m-1)/(2mn) |x|^2 (1+t)^{-2k/n})_+^{1/(m-1)}
    with k = 1/(m - 1 + 2/n).  For n = 2 the last axis of x holds the
    coordinates; a scalar x (n = 1) gives a numpy scalar.
    """
    if not (m > 1.0):
        raise ValueError("m must be > 1, got %r" % m)
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2, got %r" % n)
    if t < 0.0:
        raise ValueError("t must be >= 0, got %r" % t)
    x = np.asarray(x, dtype=float)
    if n == 2 and x.shape[-1] != 2:
        raise ValueError("last axis of x must have length 2")
    r2 = x * x if n == 1 else np.sum(x * x, axis=-1)
    k = 1.0 / (m - 1.0 + 2.0 / n)
    bracket = 1.0 - (k * (m - 1.0) / (2.0 * m * n)) * r2 * (1.0 + t) ** (-2.0 * k / n)
    return (1.0 + t) ** (-k) * np.clip(bracket, 0.0, None) ** (1.0 / (m - 1.0))


def barenblatt_support_radius(t: float, m: float, n: int) -> float:
    """Edge of the Barenblatt support at time t."""
    k = 1.0 / (m - 1.0 + 2.0 / n)
    return math.sqrt(2.0 * m * n / (k * (m - 1.0))) * (1.0 + t) ** (k / n)


@dataclass(frozen=True)
class ProfileParams:
    """Parameters of a compact self-similar comparison profile.

    kind 'lower': g = amplitude (1+t)^{-rate_exp} (support_scale - d2/(1+t)^spread_exp)_+^shape_exp
    kind 'upper': g = amplitude (shift+t)^{+rate_exp} (support_scale - d2/(shift+t)^spread_exp)_+^shape_exp
    where d2 = |x - center|^2 and shape_exp = 1/(m-1).  valid_until ends the
    window of t in which the profile bounds the density: infinite for a
    lower profile, the construction's finite t0 > 0 for an upper one.
    """

    kind: str
    amplitude: float
    support_scale: float
    spread_exp: float
    rate_exp: float
    time_shift: float
    center: tuple[float, ...]
    m: float
    valid_until: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.kind not in ("lower", "upper"):
            raise ValueError("kind must be 'lower' or 'upper', got %r" % self.kind)
        if not (self.amplitude > 0 and self.support_scale > 0):
            raise ValueError("amplitude and support_scale must be positive")
        if not (self.m > 1.0):
            raise ValueError("m must be > 1")
        if self.kind == "lower":
            if not (0.0 < self.spread_exp < 0.5):
                raise ValueError("lower profile needs spread_exp in (0, 1/2), got %g" % self.spread_exp)
            if abs(self.time_shift - 1.0) > 1e-12:
                raise ValueError("lower profile uses time shift 1")
            want = (1.0 - self.spread_exp) / (self.m - 1.0)
            if abs(self.rate_exp - want) > 1e-9 * max(1.0, abs(want)):
                raise ValueError("lower profile rate_exp must equal (1 - spread_exp)/(m - 1)")
            if self.valid_until != math.inf:
                raise ValueError("lower profile holds for all t, got valid_until %g" % self.valid_until)
        else:
            if not (0.0 < self.time_shift <= 1.0):
                raise ValueError("upper profile needs time_shift in (0, 1], got %g" % self.time_shift)
            if not (0.0 < self.valid_until < math.inf):
                raise ValueError("upper profile needs a finite valid_until > 0, got %g" % self.valid_until)

    @property
    def shape_exp(self) -> float:
        return 1.0 / (self.m - 1.0)

    def evaluate(self, d2, t: float):
        """Profile value at squared distances d2 from center (on a grid, its center_distance2) and time t >= 0."""
        if t < 0.0:
            raise ValueError("t must be >= 0")
        s = self.time_shift + t
        bracket = np.clip(self.support_scale - d2 * s ** (-self.spread_exp), 0.0, None)
        power = -self.rate_exp if self.kind == "lower" else self.rate_exp
        return self.amplitude * s ** power * bracket ** self.shape_exp


def select_lower_profile(
    m: float,
    n: int,
    mu: float,
    delta: float,
    seed_radius: float,
    seed_height: float,
    diam: float,
    c1: float,
    c2: float,
    center,
) -> ProfileParams:
    """Build the expanding sub-profile pinned under a seeded cell density.

    The density must dominate seed_height on the ball of seed_radius around
    center at t = 0; c1 and c2 bound the attractant gradient and Laplacian
    over the run; diam is the domain diameter.  The amplitude is the minimum
    of four closed-form branches and the spread exponent is
    4 * amplitude^{m-1} * m/(m-1), capped just below 1/2 (the cap keeps the
    strict-inequality hypothesis while the formula can land exactly on 1/2;
    a smaller spread only relaxes the remaining inequalities).
    Requires 1 <= delta < m and mu > 0.
    """
    if not (m > 1.0):
        raise ValueError("m must be > 1, got %g" % m)
    if not (1.0 <= delta < m):
        raise ValueError("lower profile requires 1 <= delta < m, got delta=%g m=%g" % (delta, m))
    if not (mu > 0.0):
        raise ValueError("lower profile requires mu > 0, got %g" % mu)
    if not (0.0 < seed_height <= 0.5):
        raise ValueError("seed_height must lie in (0, 1/2], got %g" % seed_height)
    if not (seed_radius > 0.0 and diam > 0.0):
        raise ValueError("seed_radius and diam must be positive")
    if not (c1 > 0.0 and c2 > 0.0):
        raise ValueError("gradient bounds c1, c2 must be positive")
    eta = seed_radius * seed_radius
    eps = min(lower_profile_branches(m, n, mu, delta, seed_radius, seed_height, diam, c1, c2))
    beta = min(4.0 * eps ** (m - 1.0) * m / (m - 1.0), 0.499)
    if not (eps > 0.0 and beta > 0.0):
        # a large m drives a branch's 8m(m-1) past the float range, or the spread below it
        raise ConstructionError(
            "no lower profile at m=%g: amplitude %g and spread %g must both be > 0" % (m, eps, beta)
        )
    kappa = (1.0 - beta) / (m - 1.0)
    return ProfileParams(
        kind="lower",
        amplitude=eps,
        support_scale=eta,
        spread_exp=beta,
        rate_exp=kappa,
        time_shift=1.0,
        center=center,
        m=m,
    )


def lower_profile_branches(m, n, mu, delta, seed_radius, seed_height, diam, c1, c2):
    """The four amplitude branches of the sub-profile; select_lower_profile takes their minimum."""
    d = 1.0 / (m - 1.0)
    return (
        (1.0 / (8.0 * n * m)) ** d,
        (1.0 / (8.0 * m * (m - 1.0) * c1 * diam)) ** d,
        seed_height / seed_radius ** (2.0 * d),
        (mu / (2.0 * c2)) ** (1.0 / (m - delta)),
    )


def select_upper_profile(
    m: float,
    mu: float,
    delta: float,
    r0: float,
    r1: float,
    sup_height: float,
    c1: float,
    c2: float,
    center,
) -> ProfileParams:
    """Build the super-profile covering the density on an initial window.

    The density is supported in the ball of radius r0 around center with sup
    at most sup_height, and the ball of radius r1 > r0 stays inside the
    domain.  Both spread and rate exponents equal 1; the amplitude makes the
    profile exactly sup_height on the edge of the r0 ball at t = 0.  The time
    shift tau is found by halving from 0.5 until three sufficient
    inequalities hold over the validity window (they are all increasing in
    tau, so halving terminates); below 1e-8 the construction gives up.

    The end t0 of the validity window is the profile's valid_until.
    """
    if not (m > 1.0):
        raise ValueError("m must be > 1, got %g" % m)
    if not (1.0 <= delta < m):
        raise ValueError("upper profile requires 1 <= delta < m, got delta=%g m=%g" % (delta, m))
    if not (0.0 < r0 < r1):
        raise ValueError("need 0 < r0 < r1, got r0=%g r1=%g" % (r0, r1))
    if not (sup_height > 0.0):
        raise ValueError("sup_height must be positive, got %g" % sup_height)
    if not (c1 > 0.0 and c2 > 0.0):
        raise ValueError("gradient bounds c1, c2 must be positive")

    d = 1.0 / (m - 1.0)
    beta = 1.0
    sigma = 1.0
    r2 = 0.5 * (r0 + r1)
    gap = r2 * r2 - r0 * r0

    tau = 0.5
    while tau >= 1e-8:
        eta = r2 * r2 / tau ** beta
        eps = sup_height / (tau ** (sigma - d * beta) * gap ** d)
        t0 = min(tau, tau * ((r1 / r2) ** (2.0 / beta) - 1.0))
        s = tau + t0  # all three bounds are monotone in tau + t, check the far end
        try:
            coeff = c2 + (m + eps * tau ** sigma * eta ** d) ** 2 * c1 * c1 * m
            ok = (
                (m - 1.0) * beta >= 8.0 * m * eps ** (m - 1.0) * s ** ((m - 1.0) * sigma - beta + 1.0)
                and 2.0 * sigma / 3.0 >= coeff * eps ** (m - 1.0) * s ** ((m - 1.0) * sigma + 1.0) * eta
                and sigma / 3.0
                >= mu * eps ** (delta - 1.0) * s ** ((delta - 1.0) * sigma + 1.0) * eta ** (d * (delta - 1.0))
            )
        except OverflowError:  # a right-hand side past the float range is not met
            ok = False
        if ok:
            return ProfileParams(
                kind="upper",
                amplitude=eps,
                support_scale=eta,
                spread_exp=beta,
                rate_exp=sigma,
                time_shift=tau,
                center=center,
                m=m,
                valid_until=t0,
            )
        tau *= 0.5
    raise ConstructionError(
        "no admissible time shift above 1e-8 for m=%g r0=%g r1=%g sup=%g c1=%g c2=%g"
        % (m, r0, r1, sup_height, c1, c2)
    )


# --- comparison ODE ---------------------------------------------------------


@dataclass(frozen=True)
class BlowupResult:
    outcome: str  # 'blows_up' | 'bounded' | 'marginal'
    time: float | None  # finite blow-up time when outcome == 'blows_up'


def classify_blowup(C: float, c: float, m: float, g0: float) -> BlowupResult:
    """Dichotomy for g' = C e^{-c t} g^m, g(0) = g0 > 0.

    Separating variables gives
        (g0^{1-m} - g(t)^{1-m})/(m-1) = (C/c)(1 - e^{-c t}),
    so the solution escapes to infinity in finite time exactly when
    c/C < (m-1) g0^{m-1}, with
        t* = -(1/c) ln(1 - c g0^{1-m} / (C (m-1))).
    Ratios within 1e-12 relative of the threshold are reported marginal.
    """
    if not (C > 0 and c > 0 and g0 > 0):
        raise ValueError("C, c and g0 must be positive")
    if not (m > 1.0):
        raise ValueError("m must be > 1, got %r" % m)
    threshold = (m - 1.0) * g0 ** (m - 1.0)
    ratio = c / C
    if abs(ratio - threshold) <= 1e-12 * max(abs(ratio), abs(threshold)):
        return BlowupResult("marginal", None)
    if ratio < threshold:
        t_star = -(1.0 / c) * math.log1p(-c * g0 ** (1.0 - m) / (C * (m - 1.0)))
        return BlowupResult("blows_up", t_star)
    return BlowupResult("bounded", None)
