"""scipy is loaded only by the first Gaussian or truncated-normal draw.

Each check runs in a fresh interpreter, because this suite imports scipy
in-process (test_rngstream.py does so at module level).
"""

import pytest

from conftest import run_fresh

SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_bounded_laws_and_console_commands_never_load_scipy(tmp_path):
    loaded = run_fresh(
        f"""
        import json, sys
        loaded = {{}}

        def record(step):
            loaded[step] = {SCIPY_MODULES}

        import multinoise
        record("import multinoise")
        import multinoise.cli as cli
        record("import multinoise.cli")
        from multinoise import get_preset, mals
        bundle = get_preset("paper-4.1")
        for law in ("uniform", "deterministic"):
            schedule = bundle.with_input_law(law).schedule
            mals(bundle.system, schedule, bundle.init, n_r=1000, seed=1, truth=bundle.system)
            record(f"mals, {{law}} inputs")
        out = {str(tmp_path)!r}
        for argv in (
            ["oracle", "--preset", "paper-4.1", "--out", out],
            ["simulate", "--preset", "paper-4.1", "--n-r", "50", "--out", out],
            ["estimate", "--preset", "paper-4.1", "--rollouts", out + "/rollouts.json", "--out", out],
            ["bounds", "--preset", "paper-4.1", "--out", out],
        ):
            assert cli.main(argv) == 0, argv
            record("multinoise " + argv[0])
        from multinoise import rngstream as rs
        from multinoise import TruncatedGaussianInitial
        init = TruncatedGaussianInitial([0.1, 0.05], [[0.04, 0.01], [0.01, 0.02]], 2.0)
        init.second_moment, init.bounds()
        record("TruncatedGaussianInitial construction")
        rs.keyed_unit_variance(rs.step_keys(0, [0], 0), rs.ROLE_INPUT, 1, "gaussian")
        record("one Gaussian draw")
        print(json.dumps(loaded))
        """
    )
    assert "scipy.special" in loaded.pop("one Gaussian draw")
    assert loaded == {step: [] for step in loaded}
    assert len(loaded) == 9


FIRST_USES = {
    "truncated_normal": "out = rs.keyed_truncated_normal(rs.step_keys(5, np.arange(4), 2), rs.ROLE_X0, 3, 1.5)",
    "gaussian InputSchedule.sample": (
        "schedule = InputSchedule(nu=np.ones((2, 2)), ubar=np.stack([np.eye(2), 2 * np.eye(2)]), law='gaussian'); "
        "out = schedule.sample(9, np.arange(4), np.array([0, 1, 2]))"
    ),
    "TruncatedGaussianInitial": (
        "init = TruncatedGaussianInitial(np.ones(2), np.array([[2.0, 0.5], [0.5, 1.0]]), radius=2.0); "
        "out = np.concatenate([init.sample(7, np.arange(4)).ravel(), init.second_moment.ravel()])"
    ),
}


@pytest.mark.parametrize("use", sorted(FIRST_USES))
def test_first_scipy_use_gives_the_bits_of_an_up_front_import(use):
    def draw(prelude):
        return run_fresh(
            f"""
            import json, sys
            {prelude}
            import numpy as np
            from multinoise import rngstream as rs
            from multinoise.system_model import InputSchedule, TruncatedGaussianInitial
            before = {SCIPY_MODULES}
            {FIRST_USES[use]}
            print(json.dumps([before, out.dtype.str, out.shape, out.tobytes().hex()]))
            """
        )

    lazy, eager = draw(""), draw("import scipy.special, scipy.stats")
    assert lazy[0] == [] and "scipy.special" in eager[0]
    assert lazy[1:] == eager[1:]
