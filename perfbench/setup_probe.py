"""One fresh-interpreter set-up of mirrorpair, timed by the caller.

Usage: python3 setup_probe.py CONFIG

Imports the package, parses a sweep config, builds the linear system and
evaluates E(omega) at one point, as a user's first sweep does before its
grid loop.  Exits 1 if that point is not finite.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mirrorpair import cli, dynamics, entanglement  # noqa: E402

values = cli.parse_config_text(Path(sys.argv[1]).read_text(encoding="utf-8"))
spec = cli.SweepSpec.from_config(values)
lin = dynamics.build_linear_system(spec.params, require_stable=spec.require_stable)
noise = dynamics.NoiseModel(
    temperature=spec.temperatures[0], big_gamma=spec.params.big_gamma,
    big_omega=spec.params.big_omega, kernel=spec.brownian_kernel,
)
out = entanglement.degree_sweep(lin, noise, [spec.omega_min])
sys.exit(0 if math.isfinite(out["degree"][0]) else 1)
