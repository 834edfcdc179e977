"""Closed-form benchmarks: self-similar profiles and a comparison ODE.

Everything here is exact arithmetic on formulas, independent of the
finite-volume solver, so it can serve as an oracle for it.  Three families:

* the Barenblatt source solution of the porous-medium equation,
* compactly supported sub/super profiles
      g(x, t) = amplitude * (shift + t)**(sign * rate_exp)
                * max(support_scale - |x - center|^2 / (shift + t)**spread_exp, 0)**shape_exp
  whose parameters are picked in closed form, each bound compared by its
  log, so that g bounds the cell density from below (all times) or from
  above (a short initial window); each profile carries the end of its
  window as valid_until,
* the scalar comparison ODE g' = C e^{-c t} g^m with an explicit blow-up
  dichotomy.
"""

from __future__ import annotations

import math
import sys
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
    over the run; diam is the domain diameter.  The amplitude is the least
    of four closed-form branches, compared by their logs, and the spread
    exponent is 4 * amplitude^{m-1} * m/(m-1), capped just below 1/2 (the
    cap keeps the strict-inequality hypothesis while the formula can land
    exactly on 1/2; a smaller spread only relaxes the remaining
    inequalities).  Requires 1 <= delta < m and mu > 0.
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
    branches = lower_profile_branches(m, n, mu, delta, seed_radius, seed_height, diam, c1, c2)
    log_eps, amplitude = min(branches, key=lambda branch: branch[0])
    if not _in_float_range(log_eps, (m - 1.0) * log_eps):
        raise ConstructionError(
            "no lower profile at m=%g: amplitude e^%.6g or its power m-1 leaves the float range" % (m, log_eps)
        )
    eps = amplitude()
    beta = min(4.0 * eps ** (m - 1.0) * m / (m - 1.0), 0.499)
    return ProfileParams(
        kind="lower",
        amplitude=eps,
        support_scale=seed_radius * seed_radius,
        spread_exp=beta,
        rate_exp=(1.0 - beta) / (m - 1.0),
        time_shift=1.0,
        center=center,
        m=m,
    )


def lower_profile_branches(m, n, mu, delta, seed_radius, seed_height, diam, c1, c2):
    """The sub-profile's four amplitude branches as (natural log, function evaluating it) pairs; select_lower_profile
    evaluates only the branch of least log, as another may leave the float range."""
    d = 1.0 / (m - 1.0)
    return (
        (-d * math.log(8.0 * n * m), lambda: (1.0 / (8.0 * n * m)) ** d),
        (
            -d * (math.log(8.0 * m * c1 * diam) + math.log(m - 1.0)),
            lambda: (1.0 / (8.0 * m * (m - 1.0) * c1 * diam)) ** d,
        ),
        (math.log(seed_height) - 2.0 * d * math.log(seed_radius), lambda: seed_height / seed_radius ** (2.0 * d)),
        ((math.log(mu) - math.log(2.0 * c2)) / (m - delta), lambda: (mu / (2.0 * c2)) ** (1.0 / (m - delta))),
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
    shift tau is the largest power of two, at most 1/2, that meets three
    sufficient inequalities over the validity window [0, t0], t0 being the
    profile's valid_until.  With d = 1/(m-1), r2 = (r0+r1)/2, gap = r2^2 -
    r0^2 and the window's far end tau + t0 = k tau, each inequality reads
    tau <= B_i, in logs:

        log B1 = log((m-1) gap/(8m)) - (m-1)(log sup + log k)
        log B2 = log(2/(3 coeff)) - (m-1) log A - m log k
        log B3 = -log(3 mu) - (delta-1) log A - delta log k   (none when mu = 0)

    where A = sup (r2^2/gap)^d is the product eps tau eta^d, the same at
    every tau, and coeff = c2 + (m + A)^2 c1^2 m, which enters only through
    log B2.  Below 1e-8 the construction gives up, and so it does when the
    amplitude at tau leaves the float range.
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
    r2 = 0.5 * (r0 + r1)
    gap = r2 * r2 - r0 * r0
    stretch = (r1 / r2) ** 2.0 - 1.0  # t0 = tau * min(1, stretch)
    log_sup, log_gap, log_k = math.log(sup_height), math.log(gap), math.log1p(min(1.0, stretch))
    log_a = log_sup + d * (2.0 * math.log(r2) - log_gap)
    log_coeff = np.logaddexp(math.log(c2), 2.0 * np.logaddexp(math.log(m), log_a) + 2.0 * math.log(c1) + math.log(m))
    log_bound = min(
        math.log((m - 1.0) / (8.0 * m)) + log_gap - (m - 1.0) * (log_sup + log_k),
        math.log(2.0 / 3.0) - log_coeff - (m - 1.0) * log_a - m * log_k,
        -math.log(3.0 * mu) - (delta - 1.0) * log_a - delta * log_k if mu > 0.0 else math.inf,
    )
    # tau = 2^-ceil(p), the largest power of two at or below every bound, is at least 1e-8 while p <= 26
    p = -log_bound / math.log(2.0)
    if not p <= 26.0:  # a nan bound admits no tau either
        raise ConstructionError(
            "no admissible time shift above 1e-8 for m=%g r0=%g r1=%g sup=%g c1=%g c2=%g"
            % (m, r0, r1, sup_height, c1, c2)
        )
    tau = 2.0 ** -math.ceil(max(p, 1.0))
    powers = ((1.0 - d) * math.log(tau), d * log_gap)
    if not _in_float_range(*powers, sum(powers), log_sup - sum(powers)):
        raise ConstructionError(
            "no upper profile at m=%g: the amplitude at time shift %g leaves the float range" % (m, tau)
        )
    return ProfileParams(
        kind="upper",
        amplitude=sup_height / (tau ** (1.0 - d) * gap ** d),
        support_scale=r2 * r2 / tau,
        spread_exp=1.0,
        rate_exp=1.0,
        time_shift=tau,
        center=center,
        m=m,
        valid_until=min(tau, tau * stretch),
    )


# the natural logs of the least positive and the largest float, each pulled in by a margin far above the rounding
# of a computed log: a power, product or quotient whose log lies between them is a positive finite float
_LOG_FLOATS = (math.log(math.ulp(0.0)) + 1e-9, math.log(sys.float_info.max) - 1e-9)


def _in_float_range(*logs) -> bool:
    return all(_LOG_FLOATS[0] < x < _LOG_FLOATS[1] for x in logs)


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
