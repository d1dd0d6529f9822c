"""Write tests/data/model_curves_reference.csv: the min-coherent values of
the default `xdwell models` grid (both widths, 8 depth nodes per panel) on a
16,384 + 32,768-sample Richardson pair.  A 32,768 + 65,536 pair moves them
by at most 2.2e-11, so they are converged in time far inside the 1e-5 that
tests/test_dwell.py pins the default rule to.

    PYTHONPATH=src python tests/make_model_curves_reference.py
"""

from pathlib import Path

from xdwell import MediumSpec, PulseSpec, min_coherent_model

REFERENCE = Path(__file__).parent / "data" / "model_curves_reference.csv"
HEADER = "sigma_t_ns,peak_od,tau0,tauL,tauT,tauT_over_tau0"
# the `[models]` defaults of `xdwell models`
OD_GRID = [0.01, 0.25, 0.5, 1, 1.5, 2, 3, 4]
SIGMAS_NS = (10, 50)
TAU_SP = 26.5e-9
N_SAMPLES = 32768


def main():
    medium = MediumSpec.from_lifetime(peak_od=1.0, tau_sp=TAU_SP)
    rows = [HEADER]
    for sigma in SIGMAS_NS:
        pulse = PulseSpec(intensity_rms=sigma * 1e-9)
        curve = min_coherent_model(pulse, medium, OD_GRID,
                                   n_samples=N_SAMPLES)
        for od, b in zip(OD_GRID, curve):
            if isinstance(b, Exception):
                raise b
            rows.append(",".join(repr(float(v)) for v in (
                sigma, od, b.tau0, b.tauL, b.tauT, b.tauT / b.tau0)))
    REFERENCE.write_text("\n".join(rows) + "\n")


if __name__ == "__main__":
    main()
