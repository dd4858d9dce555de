"""The three benchmark workloads: seeded configs, the subcommands of one
pass, and the correctness checks on what those subcommands write.

This module imports nothing from the simulator, so the parent process can
generate configs without loading numpy.  The checks read only the CLI's
output files.

Why each workload exists:

* ``sweep`` runs ``evolve``, ``rabi`` and ``ratio`` in the yield-ratio
  regime (acceptance 06).  Every point integrates the full default span
  and runs the spline quadrature on that grid, so the ODE loop, ``evolve``
  and ``emission_probabilities`` do nearly all the work.
* ``fit`` runs ``fit-dephasing`` in the dephasing-fit regime (acceptance
  05): hundreds of short pulse-window evolves with the closed-form tail,
  where per-evolve set-up and right-hand-side overhead dominate.
* ``tomo`` runs ``entangle`` at experiment-like counts, where the MLE
  iterates, and at high counts, where the linear inversion is already
  physical; tomography, linalg and timebin do nearly all the work.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

WORKLOADS = ("sweep", "fit", "tomo")

DOT = {"gamma_b": 0.004, "gamma_x": 0.002, "delta_x": 3.5}
SWEEP_DEPHASING = {"gamma_bg": 0.01, "gamma_i0": 0.0349, "n_p": 2}
# The quartic model describing the same first-cycle damping (acceptance 05).
QUARTIC_DEPHASING = {"gamma_bg": 0.01, "gamma_i0": 0.0219, "n_p": 4}

PLANTED_GAMMA_I0 = 0.0349
# sweeps.first_cycle_ratio(12.0, DephasingModel(0.0, 0.0349, 2),
# DecayRates(0.004, 0.002), delta_x=3.5) at tol 1e-8; a fixed target keeps
# the fit's work identical from run to run.
FIT_TARGET_RATIO = 2.9106995511630265

# Relative jitter of grid values drawn from the workload seed.  Small enough
# that every grid stays inside the acceptance regime and the work per pass
# stays the same.
JITTER = 0.03

# p_b <= p_x must hold up to the ~5e-5 low bias of full-span p_x (the
# e^-10 radiative tail the default span cuts off).
PX_BIAS_TOL = 1e-4


def _jitter(rng: random.Random, x: float, rel: float = JITTER) -> float:
    return x * (1.0 + rel * (2.0 * rng.random() - 1.0))


def build(workload: str, seed: int) -> dict:
    """Configs and subcommand lists for one workload and seed.

    Returns ``{"configs": {name: dict}, "warmup": [(sub, name)],
    "steps": [(sub, name)]}``.  The warm-up is a cheap run through the same
    modules; ``steps`` is one measured pass.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    window = {"dot": DOT, "pulse": {"sigma": 12.0, "area": 14.0},
              "dephasing": SWEEP_DEPHASING,
              "numerics": {"t_span": [-60.0, 60.0]}}
    if workload == "sweep":
        cfg = {
            "dot": DOT,
            "pulse": {"sigma": 12.0, "area": _jitter(rng, 20.0)},
            "dephasing": SWEEP_DEPHASING,
            "sweep": {
                "areas": [_jitter(rng, a) for a in (10.0, 19.0, 28.0)],
                "models": [SWEEP_DEPHASING, QUARTIC_DEPHASING],
                "energies": [_jitter(rng, e) for e in (2.0, 5.5, 9.0, 16.0)],
                "sigmas": [4.0, 12.0],
            },
        }
        return {"configs": {"sweep": cfg, "warm": window},
                "warmup": [("evolve", "warm")],
                "steps": [("evolve", "sweep"), ("rabi", "sweep"),
                          ("ratio", "sweep")]}
    if workload == "fit":
        cfg = {"dot": DOT, "pulse": {"sigma": 12.0},
               "sweep": {"fit": {"n_p": 2, "target_ratio": FIT_TARGET_RATIO}}}
        return {"configs": {"fit": cfg, "warm": window},
                "warmup": [("evolve", "warm")],
                "steps": [("fit-dephasing", "fit")]}

    def tomo_cfg(n_mean: float, n_seeds: int) -> dict:
        # v_coh is calibrated from one pulse-window evolve (about 0.93)
        return {"dot": DOT,
                "pulse": {"sigma": 12.0, "area": area},
                "dephasing": {"gamma_bg": 0.0, "gamma_i0": PLANTED_GAMMA_I0,
                              "n_p": 2},
                "timebin": {"phi_p": 0.0, "epsilon": 0.06,
                            "pairing_weight": 4.0},
                "tomography": {"n_mean": n_mean,
                               "seed": rng.randrange(2 ** 31),
                               "n_seeds": n_seeds}}

    area = _jitter(rng, 14.0)
    return {"configs": {"low": tomo_cfg(_jitter(rng, 500.0), 40),
                        "high": tomo_cfg(1e5, 40),
                        "warm": tomo_cfg(500.0, 2)},
            "warmup": [("entangle", "warm")],
            "steps": [("entangle", "low"), ("entangle", "high")]}


# --- correctness checks -----------------------------------------------------

def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _emission_ok(p_x: float, p_b: float) -> bool:
    return -1e-9 <= p_b <= p_x + PX_BIAS_TOL


def check(workload: str, outs: dict, configs: dict) -> dict:
    """Check one pass.  ``outs`` maps each step ``(subcommand, config
    name)`` to its output directory.

    Returns ``{"checks": {name: bool}, "fingerprint": {name: value}}``;
    the sweep adds its point and failed-point counts.
    """
    outs = {cfg if workload == "tomo" else sub: out
            for (sub, cfg), out in outs.items()}
    if workload == "sweep":
        return _check_sweep(outs)
    if workload == "fit":
        return _check_fit(outs)
    return _check_tomo(outs, configs)


def _check_sweep(outs: dict) -> dict:
    points = failures = 0
    bad_emission = 0
    for path in sorted(outs["rabi"].glob("rabi_*.csv")) + \
            sorted(outs["ratio"].glob("ratio_sigma*.csv")):
        for row in _rows(path):
            points += 1
            p_x, p_b = float(row["p_x"]), float(row["p_b"])
            if not (math.isfinite(p_x) and math.isfinite(p_b)):
                failures += 1
            elif not _emission_ok(p_x, p_b):
                bad_emission += 1
    last = _rows(outs["evolve"] / "trajectory.csv")[-1]
    peaks = {p["sigma"]: p for p in json.loads(
        (outs["ratio"] / "ratio_peaks.json").read_text())["peaks"]}
    short, long = peaks.get(4.0), peaks.get(12.0)
    both = short is not None and long is not None
    checks = {
        "no_failed_points": points > 0 and failures == 0,
        "0<=p_b<=p_x": bad_emission == 0
        and _emission_ok(float(last["p_x"]), float(last["p_b"])),
        "peaks_interior": both and short["interior"] and long["interior"],
        "peaks_in_4_16": both and all(
            p["peak_ratio"] is not None and 4.0 <= p["peak_ratio"] <= 16.0
            for p in (short, long)),
        "12ps_peak_above_4ps": both and None not in (
            short["peak_ratio"], long["peak_ratio"])
        and long["peak_ratio"] > short["peak_ratio"],
    }
    fingerprint = {"peak_ratio_4ps": short and short["peak_ratio"],
                   "peak_ratio_12ps": long and long["peak_ratio"]}
    return {"checks": checks, "fingerprint": fingerprint,
            "points": points, "point_failures": failures}


def _check_fit(outs: dict) -> dict:
    fitted = json.loads(
        (outs["fit-dephasing"] / "fit_dephasing.json").read_text())["gamma_i0"]
    rel = abs(fitted - PLANTED_GAMMA_I0) / PLANTED_GAMMA_I0
    return {"checks": {"gamma_i0_within_2%": rel < 0.02},
            "fingerprint": {"gamma_i0": fitted}}


def model_closed_forms(v_coh: float, epsilon: float,
                       pairing_weight: float) -> tuple[float, float]:
    """Concurrence and Bell fidelity of the X-shaped model state
    (1 - q) |ideal with contrast v_coh| + q I/4."""
    eps, w = epsilon, pairing_weight
    q = 0.0 if eps == 0.0 else w * eps ** 2 / (2 * eps * (1 - eps)
                                                + w * eps ** 2)
    concurrence = max(0.0, (1 - q) * v_coh - q / 2)
    fidelity = (1 - q) * (1 + v_coh) / 2 + q / 4
    return concurrence, fidelity


def _check_tomo(outs: dict, configs: dict) -> dict:
    reports = {name: json.loads((out / "entangle_report.json").read_text())
               for name, out in outs.items()}
    low, high = reports["low"], reports["high"]
    closed_ok = True
    for name, rep in reports.items():
        tb = configs[name]["timebin"]
        c, f = model_closed_forms(rep["v_coh"], tb["epsilon"],
                                  tb["pairing_weight"])
        m = rep["model_metrics"]
        closed_ok &= (abs(m["concurrence"] - c) < 1e-9
                      and abs(m["fidelity"] - f) < 1e-9)
    mle_fid = high["reconstruction"]["state_fidelity_to_model"]["mean"]
    scatter = low["reconstruction"]["fidelity"]["std"]
    checks = {"model_closed_forms_1e-9": closed_ok,
              "mle_fidelity_1e5>0.99": mle_fid > 0.99,
              "bell_scatter_500_in_0.01_0.09": 0.01 <= scatter <= 0.09}
    return {"checks": checks,
            "fingerprint": {"model_concurrence":
                            high["model_metrics"]["concurrence"],
                            "mle_fidelity_1e5": mle_fid,
                            "bell_fidelity_scatter_500": scatter}}
