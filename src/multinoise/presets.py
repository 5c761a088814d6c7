"""Benchmark systems and fixed input schedules for the bundled experiments.

The 2-dimensional benchmark family: A has spectral radius rho (1.0 for the
consistency experiments), B = [0.8, 1]', and the noise covariances are a
fixed strictly-positive-definite pair.  Input means are drawn once from
U[0,1], input covariances once from a 1-dimensional Wishart W(0.1, 1), then
frozen (the schedule seeds below were fixed after checking the excitation
conditioning of the resulting population Gram matrices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .identifiability import equivalence_class
from .mals import design_inputs
from .moment_oracle import lift
from .system_model import (
    CovarianceNoise,
    FixedInitial,
    InputSchedule,
    ZeroNoise,
    augment_schedule,
    embed_additive_noise,
    make_system,
)

__all__ = [
    "PresetBundle",
    "PRESET_NAMES",
    "get_preset",
    "benchmark_sigma_a",
    "benchmark_sigma_b",
    "benchmark_sigma_a_alpha",
]

#: Fixed draw for the ell=4 schedule (means U[0,1], covariances W(0.1, 1)).
SCHEDULE_SEED_L4 = 48

#: Fixed draw for the ell=6 schedule of the additive-noise embedding.
SCHEDULE_SEED_L6 = 18

#: Additive-noise strength sigma^2 in w_t ~ (0, sigma^2 I).
ADDITIVE_SIGMA2 = 0.1


def benchmark_sigma_a():
    return np.array(
        [
            [8.0, -2.0, 0.0, 0.0],
            [-2.0, 16.0, 2.0, 0.0],
            [0.0, 2.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 8.0],
        ]
    ) / 40.0


def benchmark_sigma_b():
    return np.array([[5.0, -2.0], [-2.0, 20.0]]) / 40.0


def benchmark_sigma_a_alpha(alpha):
    """The equivalent covariance family in the benchmark's own scaling.

    alpha = -1 gives benchmark_sigma_a() back; alpha = +1 is the strictly
    positive member used in the equivalence demo.  (The raw class coordinate
    is alpha/40: the display absorbs the 1/40 normalization.)
    """
    a = float(alpha)
    return np.array(
        [
            [8.0, -2.0, 0.0, 1.0 + a],
            [-2.0, 16.0, 1.0 - a, 0.0],
            [0.0, 1.0 - a, 2.0, 0.0],
            [1.0 + a, 0.0, 0.0, 8.0],
        ]
    ) / 40.0


def _nominal(rho):
    A = np.array([[rho, 0.2], [0.0, rho]])
    B = np.array([[0.8], [1.0]])
    return A, B


@dataclass
class PresetBundle:
    """Everything an experiment needs: system, schedule, initial distribution."""

    name: str
    system: object
    schedule: InputSchedule
    init: object

    def with_input_law(self, law):
        """Same designed moments, different sampling law around them.

        The deterministic law zeroes the input covariances (that is its
        definition); stochastic laws reuse the frozen Ubar draw.
        """
        sched = self.schedule
        ubar = np.zeros_like(sched.ubar) if law == "deterministic" else sched.ubar
        new = InputSchedule(nu=sched.nu.copy(), ubar=ubar.copy(), law=law, seed=sched.seed)
        return PresetBundle(name=self.name, system=self.system, schedule=new, init=self.init)

    def equivalence(self):
        ld = lift(self.system)
        return equivalence_class(ld.sigma_a_tilde, ld.sigma_b_tilde, self.system.n, self.system.m)


PRESET_NAMES = (
    "paper-4.1",
    "paper-4.1-additive",
    "paper-4.2-rho0.6-nonoise",
    "paper-4.2-rho0.6",
    "paper-4.2-rho0.8",
    "paper-4.2-rho1.0",
)


def get_preset(name, noise_law="uniform"):
    """Build a named preset; unknown names raise ValueError."""
    init = FixedInitial(np.zeros(2))
    if name == "paper-4.1":
        A, B = _nominal(1.0)
        system = make_system(A, B, CovarianceNoise(benchmark_sigma_a(), benchmark_sigma_b(), law=noise_law))
        schedule = design_inputs(1, 4, seed=SCHEDULE_SEED_L4)
        return PresetBundle(name=name, system=system, schedule=schedule, init=init)
    if name == "paper-4.1-additive":
        A, B = _nominal(1.0)
        base = make_system(A, B, CovarianceNoise(benchmark_sigma_a(), benchmark_sigma_b(), law=noise_law))
        system = embed_additive_noise(base, ADDITIVE_SIGMA2 * np.eye(2), law=noise_law)
        schedule = augment_schedule(design_inputs(1, 6, seed=SCHEDULE_SEED_L6))
        return PresetBundle(name=name, system=system, schedule=schedule, init=init)
    if name.startswith("paper-4.2-rho"):
        rest = name[len("paper-4.2-rho"):]
        nonoise = rest.endswith("-nonoise")
        rho = float(rest[: -len("-nonoise")] if nonoise else rest)
        if rho not in (0.6, 0.8, 1.0):
            raise ValueError(f"unknown preset {name!r}")
        A, B = _nominal(rho)
        noise = ZeroNoise() if nonoise else CovarianceNoise(
            benchmark_sigma_a(), benchmark_sigma_b(), law=noise_law
        )
        system = make_system(A, B, noise)
        schedule = design_inputs(1, 4, seed=SCHEDULE_SEED_L4)
        return PresetBundle(name=name, system=system, schedule=schedule, init=init)
    raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
