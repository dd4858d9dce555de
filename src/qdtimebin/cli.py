"""Batch command line front end.

Subcommands regenerate the pulse-dynamics, Rabi-sweep, yield-ratio and
entanglement analyses as plot-ready data files.  A run is fully determined
by its config file, plus for ``entangle`` the ``--seed`` that overrides
``tomography.seed`` (no other subcommand takes it): on one numpy/BLAS
build, identical inputs give byte-identical outputs.  Across builds they
need not: DOP853's step-size control magnifies a rounding difference of
one step about 10^7-fold into the pulse times of the steps after it, so
``trajectory.csv``, written at 13 significant digits, can differ from
about its 9th.

Exit codes: 0 success, 2 config error, 3 numerical failure or an
allocation too large for memory.  A config error includes an
``entangle`` ``tomography.n_mean`` so low that a seed draws no count on the
time basis, which leaves its likelihood flat: the MLE's
``tomography.DegenerateDatasetError`` names that seed's index.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import sweeps, timebin, tomography
from .config import ConfigError, RunConfig, load_config
from .dynamics import (
    GROUND,
    IntegrationError,
    evolve,
    export_trajectory_csv,
    pulse_window,
)
from .linalg import state_fidelity
from .sweeps import export_sweep_csv

CONFIG_ERROR_EXIT = 2
NUMERICAL_ERROR_EXIT = 3


def _write_json(path: Path, data: dict, note: str = "") -> None:
    """Write a JSON report (sorted keys, indent 2) and say so on stdout."""
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}{note}")


def _write_curves(cfg: RunConfig, results: list, paths: list[Path]) -> None:
    """Write each sweep curve as CSV, noting its failed points on stderr."""
    for res, path in zip(results, paths):
        export_sweep_csv(res, path, extra_params={"config": cfg.resolved()})
        print(f"wrote {path}")
        if res.failures:
            print(f"  {len(res.failures)} point(s) failed integration",
                  file=sys.stderr)


def cmd_evolve(cfg: RunConfig, out: Path, args) -> None:
    cfg.require("dot", "pulse", "dephasing")
    drive, decay = cfg.pulse.drive(cfg.dot), cfg.dot.decay
    traj = evolve(GROUND, drive, decay, cfg.dephasing,
                  t_span=cfg.t_span(drive), tol=cfg.numerics.tol)
    path = out / "trajectory.csv"
    export_trajectory_csv(traj, decay, path, params=cfg.resolved())
    print(f"wrote {path} ({len(traj.times)} samples, "
          f"final rho_bb = {traj.populations[-1, 2]:.6f})")


def cmd_rabi(cfg: RunConfig, out: Path, args) -> None:
    cfg.require("dot", "pulse", "sweep")
    if cfg.sweep.areas is None or not cfg.sweep.models:
        raise ConfigError("rabi needs 'sweep.areas' and 'sweep.models'")
    results = sweeps.rabi_sweep(cfg.pulse.sigma, cfg.sweep.models,
                                cfg.dot.decay, cfg.sweep.areas,
                                tol=cfg.numerics.tol, delta_x=cfg.dot.delta_x,
                                delta_b=cfg.dot.delta_b)
    _write_curves(cfg, results, [out / f"rabi_model{i}_np{res.deph.n_p}.csv"
                                 for i, res in enumerate(results)])


def cmd_ratio(cfg: RunConfig, out: Path, args) -> None:
    cfg.require("dot", "dephasing", "sweep")
    if cfg.sweep.energies is None or not cfg.sweep.sigmas:
        raise ConfigError("ratio needs 'sweep.energies' and 'sweep.sigmas'")
    decay = cfg.dot.decay
    results = sweeps.ratio_sweep(cfg.sweep.sigmas, cfg.sweep.energies,
                                 cfg.dephasing, decay,
                                 delta_x=cfg.dot.delta_x,
                                 delta_b=cfg.dot.delta_b,
                                 tol=cfg.numerics.tol)
    _write_curves(cfg, results, [out / f"ratio_sigma{res.sigma:g}.csv"
                                 for res in results])
    _write_json(out / "ratio_peaks.json", {"config": cfg.resolved(), "peaks": [
        {"sigma": res.sigma, "peak_energy": res.peak_abscissa,
         "peak_ratio": res.peak_ratio, "interior": res.peak_interior}
        for res in results]})


def cmd_fit_dephasing(cfg: RunConfig, out: Path, args) -> None:
    cfg.require("dot", "pulse", "sweep")
    target = cfg.sweep.fit
    if target is None:
        raise ConfigError("fit-dephasing needs 'sweep.fit'")
    # The fit's area window (sweeps.coherent_first_max_area) assumes
    # two-photon resonance and delta_x > 0; with gamma_b = 0 no biexciton
    # photon is emitted, so the Rabi curve it fits is flat.
    for key, value, need in (("delta_x", cfg.dot.delta_x, "> 0"),
                             ("delta_b", cfg.dot.delta_b, "= 0"),
                             ("gamma_b", cfg.dot.decay.gamma_b, "> 0")):
        if not (value == 0 if need == "= 0" else value > 0):
            raise ConfigError(f"fit-dephasing needs 'dot.{key}' {need}, "
                              f"got {value}")
    try:
        fit = sweeps.fit_gamma_i0(
            target.n_p, target.target_ratio, cfg.pulse.sigma, cfg.dot.decay,
            gamma_bg=cfg.dephasing.gamma_bg if cfg.dephasing else 0.0,
            delta_x=cfg.dot.delta_x, tol=cfg.numerics.tol)
    except sweeps.UnreachableTargetError as exc:
        raise ConfigError(f"'sweep.fit.target_ratio': {exc}") from exc
    _write_json(out / "fit_dephasing.json",
                {"config": cfg.resolved(), "n_p": target.n_p,
                 "target_ratio": target.target_ratio,
                 "gamma_i0": fit.gamma_i0, "achieved_ratio": fit.ratio,
                 "bracket": list(fit.bracket),
                 "scan_samples": fit.scan_samples, "scan_tail": fit.scan_tail,
                 "evaluations": [{"gamma_i0": g, "ratio": r}
                                 for g, r in fit.evaluations]},
                f" (gamma_i0 = {fit.gamma_i0:.6g})")


def _state_metrics(rho: np.ndarray) -> dict:
    c = timebin.concurrence(rho)
    f, phi_opt = timebin.fidelity_bell(rho)
    coh, i, j = timebin.coherence_metric(rho)
    v_time, v_e0, v_e90 = timebin.visibilities(rho)
    return {"concurrence": c, "fidelity": f, "fidelity_phase": phi_opt,
            "coherence_re": coh.real, "coherence_im": coh.imag,
            "coherence_abs": abs(coh), "coherence_indices": [i, j],
            "visibility_time": v_time, "visibility_energy_0": v_e0,
            "visibility_energy_90": v_e90}


def _seed_metrics(rhos: np.ndarray, rho_model: np.ndarray) -> dict:
    """The metrics the report keeps for each seed's reconstruction, one
    array entry per matrix of the (S, 4, 4) stack ``rhos``: a subset of
    ``_state_metrics``, without the energy-basis fringes."""
    return {"concurrence": timebin.concurrence(rhos),
            "fidelity": timebin.fidelity_bell(rhos)[0],
            "coherence_abs": np.abs(timebin.coherence_metric(rhos)[0]),
            "visibility_time": timebin.time_visibility(rhos),
            "state_fidelity_to_model": state_fidelity(rhos, rho_model)}


def _batch_stats(values: np.ndarray) -> dict:
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return {"mean": float(arr.mean()), "std": std,
            "values": [float(v) for v in arr]}


def cmd_entangle(cfg: RunConfig, out: Path, args) -> None:
    cfg.require("timebin", "tomography")
    params = cfg.timebin
    if cfg.calibrate_v_coh:
        cfg.require("dot", "pulse", "dephasing")
        drive = cfg.pulse.drive(cfg.dot)
        traj = evolve(GROUND, drive, cfg.dot.decay, cfg.dephasing,
                      t_span=pulse_window(drive), tol=cfg.numerics.tol)
        try:
            v_coh = timebin.excitation_coherence(traj.states[-1])
        except ValueError as exc:
            raise ConfigError(f"'timebin.v_coh' is unset and the pulse "
                              f"cannot calibrate it: {exc}") from exc
        params = replace(params, v_coh=v_coh)
    rho_model = timebin.model_state(params)
    timebin.export_density_csv(rho_model, out / "model_state.csv")

    seed = args.seed if args.seed is not None else cfg.tomography.seed
    seeds = [int(s) for s in
             np.random.SeedSequence(seed).generate_state(cfg.tomography.n_seeds)]
    datasets = tomography.simulate_counts(
        rho_model, tomography.standard_settings(), cfg.tomography.n_mean,
        seeds)
    try:
        fits = tomography.reconstruct_mle_many(datasets)
    except tomography.DegenerateDatasetError as exc:
        raise ConfigError(
            f"'tomography.n_mean' = {cfg.tomography.n_mean} is too low: "
            f"{exc} (dataset i is that of seed index i)") from exc
    per_seed = _seed_metrics(np.array([mle.rho for mle in fits]), rho_model)
    mle_status = {key: [getattr(mle, key) for mle in fits]
                  for key in ("converged", "n_iter", "log_likelihood",
                              "deviance", "gap")}
    tomography.save_dataset(datasets[0], out / "tomography_counts.txt")
    timebin.export_density_csv(fits[0].rho, out / "reconstructed_state.csv")
    report = {
        "config": cfg.resolved(),
        "seed": seed,
        "v_coh": params.v_coh,
        "accidental_fraction": params.accidental_fraction(),
        "model_metrics": _state_metrics(rho_model),
        "reconstruction": {k: _batch_stats(v) for k, v in per_seed.items()},
        "mle": mle_status,
    }
    _write_json(out / "entangle_report.json", report)
    print(f"model: C = {report['model_metrics']['concurrence']:.4f}, "
          f"F = {report['model_metrics']['fidelity']:.4f}; "
          f"reconstruction F = "
          f"{report['reconstruction']['fidelity']['mean']:.4f}"
          f" +- {report['reconstruction']['fidelity']['std']:.4f}")


_COMMANDS = {
    "evolve": cmd_evolve,
    "rabi": cmd_rabi,
    "ratio": cmd_ratio,
    "entangle": cmd_entangle,
    "fit-dephasing": cmd_fit_dephasing,
}


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as ``tomography.seed``."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdtimebin",
        description="Quantum-dot two-photon excitation and time-bin "
                    "entanglement simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, type=Path,
                       help="JSON run configuration")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (created if missing)")
        if name == "entangle":
            p.add_argument("--seed", type=_seed, default=None,
                           help="override the tomography seed (>= 0)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR_EXIT
    except IntegrationError as exc:
        print(f"numerical failure at t = {exc.t:.6g}: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR_EXIT
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR_EXIT
    except MemoryError as exc:  # numpy's message names the size
        print(f"out of memory: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
