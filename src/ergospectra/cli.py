"""Command-line front end: config ingestion, scans, CSV/JSON/SVG output.

All randomness flows from the single config seed through counter-based
splittable generators, and scan results are merged by key, so outputs
are byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

import jsonschema
import numpy as np

from . import __version__
from .errors import ErgospectraError
from .model import (BaseDynamics, ConstantPotential, OperatorModel,
                    TrigBlockPotential, count_below, ids as ids_scan)
from .rotation import accumulated_phase
from .hyperbolicity import (DEFAULT_GAP_THRESHOLD, DEFAULT_N_ITER,
                            uh_test_many)
from .gaps import (LabelGroup, gap_records_csv, gaps_in_spectrum, label_gap,
                   restriction_spectrum, verify_ids_rot)
from .perturb import RandomDiagonalLaw, SpectralSet, check_bigstar, star
from .duality import TrigPolynomial, amo_dual_polynomial, build_dual, \
    check_factorization, check_ids_duality
from .scanengine import scan

_COMPLEX = {"type": "array", "items": {"type": "number"},
            "minItems": 2, "maxItems": 2}
_CMATRIX = {"type": "array", "items": {"type": "array", "items": _COMPLEX}}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    # a config describes a model directly, a dual construction, or a
    # pure set-arithmetic job
    "anyOf": [
        {"required": ["base", "potential", "m"]},
        {"required": ["dual_of"]},
        {"required": ["star"]},
    ],
    "properties": {
        "m": {"type": "integer", "minimum": 1},
        "C": _CMATRIX,
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type"],
            "properties": {
                "type": {"enum": ["free", "constant", "trig_blocks", "amo_dual"]},
                "block": _CMATRIX,
                "modes": {"type": "array", "items": {
                    "type": "object", "additionalProperties": False,
                    "required": ["k", "block"],
                    "properties": {"k": {"type": "array",
                                         "items": {"type": "integer"}},
                                   "block": _CMATRIX}}},
                "coupling": {"type": "number"},
            },
        },
        "base": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type"],
            "properties": {
                "type": {"enum": ["torus", "cat_map", "doubling"]},
                "alpha": {"type": "array", "items": {"type": "number"}},
            },
        },
        "dual_of": {
            "type": "object",
            "additionalProperties": False,
            "required": ["coeffs", "alpha"],
            "properties": {"coeffs": {"type": "array", "items": _COMPLEX},
                           "alpha": {"type": "number"}},
        },
        "scan": {
            "type": "object",
            "additionalProperties": False,
            "required": ["E_min", "E_max", "points", "N"],
            "properties": {"E_min": {"type": "number"},
                           "E_max": {"type": "number"},
                           "points": {"type": "integer", "minimum": 1},
                           "N": {"type": "integer", "minimum": 1}},
        },
        "seed": {"type": "integer"},
        "theta0": {"type": "array", "items": {"type": "number"}},
        "law": {
            "type": "object",
            "additionalProperties": False,
            "required": ["support", "realizations"],
            "properties": {"support": {"type": "array",
                                       "items": {"type": "number"},
                                       "minItems": 2},
                           "realizations": {"type": "integer", "minimum": 1}},
        },
        "star": {
            "type": "object",
            "additionalProperties": False,
            "required": ["A", "B"],
            "properties": {"A": {"type": "array"}, "B": {"type": "array"}},
        },
        "gaps": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"resolution": {"type": "integer", "minimum": 50},
                           "k_max": {"type": "integer", "minimum": 1},
                           "n_iter": {"type": "integer", "minimum": 1}},
        },
        "uh": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"n_iter": {"type": "integer", "minimum": 1},
                           "gap_threshold": {"type": "number"}},
        },
    },
}


class ConfigError(Exception):
    """Invalid or malformed run configuration (CLI exit code 2)."""


def _c(entry) -> complex:
    return complex(entry[0], entry[1])


def _matrix(data) -> np.ndarray:
    return np.array([[_c(e) for e in row] for row in data], dtype=complex)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation: {exc.message}") from exc
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def build_model(cfg: dict) -> OperatorModel:
    if "dual_of" in cfg:
        d = cfg["dual_of"]
        v = TrigPolynomial(tuple(_c(e) for e in d["coeffs"]), d["alpha"])
        return build_dual(v)
    m = cfg["m"]
    base_cfg = cfg["base"]
    kind = {"torus": "torus_rotation", "cat_map": "cat_map",
            "doubling": "doubling_map"}[base_cfg["type"]]
    base = BaseDynamics(kind, base_cfg.get("alpha"))
    C = _matrix(cfg["C"]) if "C" in cfg else np.eye(m, dtype=complex)
    pot_cfg = cfg["potential"]
    kind_p = pot_cfg["type"]
    if kind_p == "free":
        pot = ConstantPotential(np.zeros((m, m)))
    elif kind_p == "constant":
        pot = ConstantPotential(_matrix(pot_cfg["block"]))
    elif kind_p == "trig_blocks":
        coeffs = {tuple(mode["k"]): _matrix(mode["block"])
                  for mode in pot_cfg.get("modes", [])}
        pot = TrigBlockPotential(m, coeffs)
    else:  # amo_dual shortcut: scalar cosine dual at given coupling
        lam = pot_cfg.get("coupling", 1.0)
        alpha = base_cfg.get("alpha", [0.5 * (np.sqrt(5) - 1)])[0]
        return build_dual(amo_dual_polynomial(lam, alpha))
    try:
        return OperatorModel(m, C, pot, base)
    except ErgospectraError as exc:
        raise ConfigError(str(exc)) from exc


def _theta0(cfg: dict, model: OperatorModel) -> np.ndarray:
    if "theta0" in cfg:
        t = np.asarray(cfg["theta0"], dtype=float)
        if t.size != model.base.d:
            raise ConfigError("theta0 dimension does not match the base")
        return t
    return np.zeros(model.base.d)


def _grid(cfg: dict) -> np.ndarray:
    if "scan" not in cfg:
        raise ConfigError("this command requires a 'scan' section")
    s = cfg["scan"]
    if not s["E_max"] > s["E_min"]:
        raise ConfigError("empty energy range")
    return np.linspace(s["E_min"], s["E_max"], s["points"])


def _header(cfg: dict) -> str:
    return f"# ergospectra {__version__} config={config_hash(cfg)}\n"


def _write(path: pathlib.Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_json(path: pathlib.Path, cfg: dict, payload: dict):
    payload = {"_meta": {"version": __version__,
                         "config": config_hash(cfg)}, **payload}
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# the rot worker must live at module level so the process pool can
# pickle it; each payload carries the whole config for rebuilding and
# one contiguous chunk of the grid, which the worker tracks in one
# batched call from the standard frame, as rot_number does (each
# energy's value is bitwise that of tracking it alone)

def _rot_job(payload):
    cfg, chunk = payload
    model = build_model(cfg)
    N = cfg["scan"]["N"]
    acc = accumulated_phase(model, np.array(chunk), _theta0(cfg, model), N)
    return (acc / N).tolist()


def cmd_ids(cfg: dict, out: pathlib.Path) -> int:
    model = build_model(cfg)
    grid = _grid(cfg)
    vals = ids_scan(model, _theta0(cfg, model), cfg["scan"]["N"], grid)
    rows = "".join(f"{float(e)!r},{float(v)!r}\n" for e, v in zip(grid, vals))
    _write(out / "ids.csv", _header(cfg) + "E,ids\n" + rows)
    return 0


def cmd_rot(cfg: dict, out: pathlib.Path, workers: int) -> int:
    grid = _grid(cfg)
    chunks = [c.tolist() for c in np.array_split(grid, min(workers, grid.size))]
    result = scan(_rot_job, [(cfg, c) for c in chunks], workers=workers)
    if not result.ok:
        for key, trace in result.failures.items():
            print(f"failed chunk E={chunks[key]}:\n{trace}", file=sys.stderr)
        return 1
    rots = [r for chunk in result.ordered(range(len(chunks))) for r in chunk]
    N = cfg["scan"]["N"]
    rows = "".join(f"{float(e)!r},{r!r},{N}\n" for e, r in zip(grid, rots))
    _write(out / "rot.csv", _header(cfg) + "E,rot_turns,ledger_N\n" + rows)
    return 0


def cmd_uh(cfg: dict, out: pathlib.Path) -> int:
    grid = _grid(cfg)
    model = build_model(cfg)
    opts = cfg.get("uh", {})
    # one batched dichotomy sweep over the whole grid; each energy's
    # result equals its own uh_test call
    results = uh_test_many(
        model, grid, n_iter=opts.get("n_iter", DEFAULT_N_ITER),
        gap_threshold=opts.get("gap_threshold", DEFAULT_GAP_THRESHOLD),
        theta0=_theta0(cfg, model))
    rows = "".join(
        f"{float(e)!r},{int(flag)},{int(s.converged)},{s.gap!r}\n"
        for e, (flag, s) in zip(grid, results))
    _write(out / "uh.csv", _header(cfg) + "E,is_uh,converged,gap\n" + rows)
    return 0


def cmd_gaps(cfg: dict, out: pathlib.Path) -> int:
    model = build_model(cfg)
    grid = _grid(cfg)
    theta0 = _theta0(cfg, model)
    N = cfg["scan"]["N"]
    opts = cfg.get("gaps", {})
    # one restriction H^N feeds the gap search and the plotted IDS
    ev = restriction_spectrum(model, theta0, N)
    resolution = opts.get("resolution", max(50, grid.size))
    records = gaps_in_spectrum(model, ev,
                               np.linspace(grid[0], grid[-1], resolution),
                               theta0, opts.get("n_iter", DEFAULT_N_ITER))
    alpha = model.base.alpha
    if model.base.kind == "torus_rotation":
        label_alpha = model.meta.get("alpha")
        group = LabelGroup("torus",
                           (label_alpha,) if label_alpha is not None else tuple(alpha),
                           k_max=opts.get("k_max", 20))
    else:
        group = LabelGroup("integers")
    labelled = [label_gap(rec, group, model.m) for rec in records]
    if labelled:
        _, rots, dists = verify_ids_rot(
            model, np.array([rec.midpoint for rec in labelled]), N, group,
            theta0)
        for rec, rot_val, dist in zip(labelled, rots, dists):
            rec.rot_value = float(rot_val)
            rec.rot_distance = float(dist)
    d = model.base.d if model.base.kind == "torus_rotation" else 1
    table = gap_records_csv(labelled, model.m, alpha_dim=d)
    _write(out / "gaps.csv", _header(cfg) + table)
    vals = count_below(ev, grid) / ev.size
    bands = [r.interval for r in labelled if r.interior]
    _write(out / "ids.svg", _svg_plot(grid, vals, bands, cfg))
    return 0


def cmd_duality(cfg: dict, out: pathlib.Path) -> int:
    if "dual_of" not in cfg:
        raise ConfigError("duality command requires a 'dual_of' section")
    d = cfg["dual_of"]
    v = TrigPolynomial(tuple(_c(e) for e in d["coeffs"]), d["alpha"])
    rng = np.random.default_rng(cfg.get("seed", 0))
    worst = 0.0
    for _ in range(100):
        E = float(rng.normal(scale=3.0))
        th = float(rng.random())
        worst = max(worst, check_factorization(v, E, th))
    if "scan" in cfg:
        grid = _grid(cfg)
        diff, _, _ = check_ids_duality(v, grid, cfg["scan"]["N"])
    else:
        diff = None
    _write_json(out / "duality.json", cfg, {
        "degree": v.degree,
        "max_factorization_residual": worst,
        "max_ids_difference": diff,
    })
    return 0


def cmd_perturb(cfg: dict, out: pathlib.Path) -> int:
    if "law" not in cfg:
        raise ConfigError("perturb command requires a 'law' section")
    model = build_model(cfg)
    if "scan" not in cfg:
        raise ConfigError("perturb command requires a 'scan' section")
    law = RandomDiagonalLaw(tuple(cfg["law"]["support"]),
                            seed=cfg.get("seed", 0))
    report = check_bigstar(model, law, cfg["scan"]["N"],
                           cfg["law"]["realizations"],
                           theta0=_theta0(cfg, model))
    _write_json(out / "perturb.json", cfg, report)
    return 0


def cmd_star(cfg: dict, out: pathlib.Path) -> int:
    if "star" not in cfg:
        raise ConfigError("star command requires a 'star' section")
    A = SpectralSet.from_json(cfg["star"]["A"])
    B = SpectralSet.from_json(cfg["star"]["B"])
    _write_json(out / "star.json", cfg, {
        "A": A.to_json(), "B": B.to_json(),
        "result": star(A, B).to_json(),
    })
    return 0


def _svg_plot(xs, ys, bands, cfg, width=800, height=400, margin=50) -> str:
    """Minimal SVG line plot with shaded gap bands; no plotting deps."""
    x0, x1 = float(xs[0]), float(xs[-1])
    y0, y1 = 0.0, 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">',
        f'<!-- ergospectra {__version__} config={config_hash(cfg)} -->',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for lo, hi in bands:
        parts.append(
            f'<rect x="{sx(lo):.2f}" y="{margin}" '
            f'width="{max(sx(hi) - sx(lo), 1.0):.2f}" '
            f'height="{height - 2 * margin}" fill="#cce" opacity="0.6"/>')
    pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
                   for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="black" '
                 f'stroke-width="1"/>')
    ax = (f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
          f'y2="{height - margin}" stroke="black"/>'
          f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
          f'y2="{height - margin}" stroke="black"/>')
    parts.append(ax)
    parts.append(f'<text x="{margin}" y="{height - margin + 20}" '
                 f'font-size="12">{x0:.6g}</text>')
    parts.append(f'<text x="{width - margin}" y="{height - margin + 20}" '
                 f'font-size="12" text-anchor="end">{x1:.6g}</text>')
    parts.append(f'<text x="{margin - 5}" y="{height - margin}" font-size="12" '
                 f'text-anchor="end">0</text>')
    parts.append(f'<text x="{margin - 5}" y="{margin + 5}" font-size="12" '
                 f'text-anchor="end">1</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_COMMANDS = {
    "ids": cmd_ids,
    "rot": cmd_rot,
    "gaps": cmd_gaps,
    "uh": cmd_uh,
    "duality": cmd_duality,
    "perturb": cmd_perturb,
    "star": cmd_star,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergospectra",
        description="Spectral scans for ergodic block Schrodinger operators")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for rot (at least 1); the "
                        "other commands run in one process")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    try:
        cfg = load_config(args.config)
        out = pathlib.Path(args.out)
        if args.command == "rot":
            return cmd_rot(cfg, out, args.workers)
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ErgospectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
