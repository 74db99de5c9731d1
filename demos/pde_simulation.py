"""Direct time integration of the pulse and its feedback stabilization.

Integrates the full two-component reaction-diffusion system from a
perturbed pulse, once without control and once with a stabilizing
proportional term, and compares the fitted growth/decay rates of the
deviation norm against the spectral prediction.

The uncontrolled run integrates to t = 3 and the controlled run to t = 4
(the decaying envelope needs a few oscillation periods for a clean fit) on
the production grid (dx = eps/4, dt = eps/25); both runs take about 3 s.
"""

import numpy as np

from pulsectrl.model import ModelParams, PowerLawModel
from pulsectrl.pde_sim import SimConfig, run
from pulsectrl.spectral import assemble_spectrum

base = ModelParams(u_star=1.0, f_val=1.0, f_der=-3.0, to_log_der=8.0)
model = PowerLawModel.from_params(base)

for gain, t_end in ((0.0, 3.0), (-3.0, 4.0)):
    params = base.with_control_slope(gain)
    predicted = assemble_spectrum(params).max_real_part

    config = SimConfig(model=model, params=params, t_end=t_end,
                       eta=1e-4, perturbation_shape="even_bump")
    trace = run(config)

    label = "uncontrolled" if gain == 0.0 else f"slope {gain:+.1f}"
    print(f"{label}:")
    print(f"  samples: {len(trace.times)}, "
          f"final deviation {trace.deviation_norms[-1]:.3e}")
    print(f"  fitted rate {trace.fitted_rate:+.4f} "
          f"(r^2 = {trace.fit_r2:.5f}), spectral {predicted:+.4f}")
    if trace.early_exit:
        print(f"  early exit: {trace.early_exit}")

    # the dominant eigenvalue is a complex pair, so the norm oscillates
    # under an exponential envelope; the fit tracks the envelope
    rel_err = abs(trace.fitted_rate - predicted) / max(abs(predicted), 1e-12)
    print(f"  relative rate error {100.0 * rel_err:.1f}%")
    assert np.sign(trace.fitted_rate) == np.sign(predicted)
