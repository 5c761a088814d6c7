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
    """Build a named preset; a name not in PRESET_NAMES raises ValueError.

    A = [[rho, 0.2], [0, rho]] (rho 1.0 on paper-4.1), B = [0.8, 1]', the
    benchmark noise (none on -nonoise) and the ell=4 schedule; the additive
    preset embeds additive noise and takes the augmented ell=6 schedule.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    rho = float(name.removeprefix("paper-4.2-rho").removesuffix("-nonoise")) if name.startswith("paper-4.2") else 1.0
    A, B = np.array([[rho, 0.2], [0.0, rho]]), np.array([[0.8], [1.0]])
    if name.endswith("-nonoise"):
        noise = ZeroNoise()
    else:
        noise = CovarianceNoise(benchmark_sigma_a(), benchmark_sigma_b(), law=noise_law)
    system = make_system(A, B, noise)
    if name == "paper-4.1-additive":
        system = embed_additive_noise(system, ADDITIVE_SIGMA2 * np.eye(2), law=noise_law)
        schedule = augment_schedule(design_inputs(1, 6, seed=SCHEDULE_SEED_L6))
    else:
        schedule = design_inputs(1, 4, seed=SCHEDULE_SEED_L4)
    return PresetBundle(name=name, system=system, schedule=schedule, init=FixedInitial(np.zeros(2)))
