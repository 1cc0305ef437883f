"""JSON-configured experiment harness: ``grassflow <subcommand>``.

Subcommands: chart, flow, berry, holonomy, synthesize, selftest.  flow, berry
and holonomy are one frame-first ``berry_maps`` run each; berry and holonomy
add checks of the closed loop (holonomy against the Pancharatnam oracle).
Each run echoes its configuration, writes per-node CSV rows
(t,projector_defect,isometry_defect,horizontality_defect,energy) and a final
JSON report with keys config, holonomy_dynamical, holonomy_geometric,
fiber_gap, berry_phase_arg, closure_residual, defect_max, wall_time_s.
Complex entries are serialized as {re, im} pairs, matrices as nested
row-major arrays.  Exit codes: 0 ok, 1 usage/config error, 2 invariant failure
above tolerance, 3 numerical condition (NotClosed / GapTooSmall / NonFinite).
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import os
import sys
import time

import numpy as np

from .bundle import curvature_generators, frame_defect
from .dynamics import (SYNTHESIS_CURVATURE_CONSTANT, FramePath, TimeGrid, _frame_oracle,
                       _graph_section, _orbit_schedule, _parallelogram_loop, _require_closed,
                       _section_transport, _transport_block, berry_maps, bloch_projector,
                       constant_schedule, horizontality_defects, rotating_schedule,
                       sampled_schedule)
from .errors import (GapTooSmall, GrassflowError, InvalidArgument, NonFinite,
                     NotAntiHermitian, NotClosed)
from .grassmann import (BasePoint, ChartTangent, Projector, _adapted_basis, _random_base,
                        _require_generator as _checked_generator, chart_from_proj,
                        chart_transport, proj_from_chart)
from .linalg import (Tolerances, dag, frob, isometrize, mat_exp, random_antihermitian,
                     random_complex, random_frame)

CSV_HEADER = "t,projector_defect,isometry_defect,horizontality_defect,energy"
# the CSV body is _CSV_ROW * rows % values, each float as f"{x:.17g}" prints it; _csv_block
# renders those bytes from exact 17-digit integers, _CSV_BLOCK rows at a time
_CSV_ROW = ",".join(["%.17g"] * len(CSV_HEADER.split(","))) + "\n"
_CSV_BLOCK = 512  # rows a block: its temporaries peak near 0.6 MiB
_CSV_TIE = 2.0 ** -40  # scaled fractions this near 1/2 may be ties, left to Python's dtoa

_DEFAULT_CONFIG = {
    "version": 1,
    "n": 2,
    "m": 1,
    "seed": 0,
    "grid": {"t0": 0.0, "t1": 1.0, "steps": 2000},
    "schedule": {"kind": "rotating"},
    "tolerances": {},
    "output": None,
}
_CONFIG_KEYS = set(_DEFAULT_CONFIG) | {"synthesize"}
# the keys each schedule kind reads; an unset theta, omega or norm takes its default
_ANGLE_KEYS = {"kind", "theta", "omega"}
_SCHEDULE_KEYS = {"rotating": _ANGLE_KEYS, "geometric_from_curve": _ANGLE_KEYS,
                  "constant": {"kind", "matrix", "norm"}, "sampled": {"kind", "values"}}


class UsageError(Exception):
    """Bad command line or config; mapped to exit code 1."""


# ---------------------------------------------------------------- serialization

def _ser_matrix(a) -> list:
    return [[{"re": z.real, "im": z.imag} for z in row]
            for row in np.asarray(a, dtype=complex).tolist()]


def _deser_matrix(obj) -> np.ndarray:
    try:
        return np.array([[complex(z["re"], z["im"]) for z in row] for row in obj])
    except (TypeError, KeyError, ValueError) as exc:
        raise UsageError("matrices must be nested arrays of {re, im} pairs") from exc


# ---------------------------------------------------------------- configuration

def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _number(value, name: str, integer: bool = False):
    """A config scalar: an int when ``integer``, else a finite float; UsageError otherwise."""
    if not isinstance(value, bool):
        if integer and isinstance(value, int):
            return value
        if (not integer and isinstance(value, (int, float))
                and abs(value) <= sys.float_info.max):
            return float(value)
    kind = "an integer" if integer else "a finite number"
    raise UsageError(f"{name} must be {kind}, got {value!r}")


def _require_keys(section: dict, allowed: set, name: str):
    unknown = set(section) - allowed
    if unknown:
        raise UsageError(f"unknown {name} keys: {sorted(unknown)}")


def load_config(args) -> dict:
    cfg = copy.deepcopy(_DEFAULT_CONFIG)
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("config must be a JSON object")
        if loaded.get("version", 1) != 1:
            raise UsageError(f"unsupported config version {loaded.get('version')!r}")
        cfg = _merge(cfg, loaded)
    _require_keys(cfg, _CONFIG_KEYS, "config")
    for section in ("grid", "schedule", "tolerances", "synthesize"):
        if not isinstance(cfg.get(section, {}), dict):
            raise UsageError(f"config section {section!r} must be a JSON object")
    _require_keys(cfg["grid"], set(_DEFAULT_CONFIG["grid"]), "grid")
    kind = cfg["schedule"].get("kind")
    if not isinstance(kind, str) or kind not in _SCHEDULE_KEYS:
        raise UsageError(f"unknown schedule kind {kind!r}")
    _require_keys(cfg["schedule"], _SCHEDULE_KEYS[kind], "schedule")
    for key in ("theta", "omega", "norm"):  # the matrices are checked where they are read
        if key in cfg["schedule"]:
            _number(cfg["schedule"][key], f"schedule.{key}")
    syn = cfg.get("synthesize", {})
    _require_keys(syn, {"scale", "w"}, "synthesize")
    if not 0.0 <= _number(syn.get("scale", 0.1), "synthesize.scale") <= 0.5:
        raise UsageError("synthesize.scale must lie in [0, 0.5]")
    if not (cfg["output"] is None or isinstance(cfg["output"], str)):
        raise UsageError("output must be a string prefix or null")
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.steps is not None:
        cfg["grid"]["steps"] = args.steps
    if args.out is not None:
        cfg["output"] = args.out
    folder = os.path.dirname(cfg["output"] or "")
    if folder and not os.path.isdir(folder):
        raise UsageError(f"output directory {folder!r} does not exist")

    n, m = _number(cfg["n"], "n", integer=True), _number(cfg["m"], "m", integer=True)
    if not 1 <= m < n <= 256:
        raise UsageError(f"dimensions must satisfy 1 <= m < n <= 256, got n={n}, m={m}")
    if _number(cfg["seed"], "seed", integer=True) < 0:
        raise UsageError("seed must be >= 0")
    build_grid(cfg)
    return cfg


def build_tolerances(cfg: dict) -> Tolerances:
    overrides = cfg.get("tolerances", {})
    _require_keys(overrides, {"structural", "ode", "comparison"}, "tolerance")
    try:
        return Tolerances(**{key: _number(value, f"tolerances.{key}")
                             for key, value in overrides.items()})
    except ValueError as exc:
        raise UsageError(f"bad tolerances: {exc}") from exc


def build_grid(cfg: dict) -> TimeGrid:
    g = cfg["grid"]
    t0, t1 = _number(g["t0"], "grid.t0"), _number(g["t1"], "grid.t1")
    steps = _number(g["steps"], "grid.steps", integer=True)
    if steps < 2:
        raise UsageError("grid.steps must be >= 2")
    return TimeGrid(t0, t1, steps)  # InvalidArgument unless t1 > t0


def build_setup(cfg: dict, tol: Tolerances):
    """Schedule, initial projector and start frame from the config."""
    n, m = cfg["n"], cfg["m"]
    sched_cfg = cfg["schedule"]
    kind = sched_cfg["kind"]  # kind and keys are checked by load_config
    grid = build_grid(cfg)

    if kind == "rotating":
        if (n, m) != (2, 1):
            raise UsageError("rotating schedule requires n=2, m=1")
        theta = float(sched_cfg.get("theta", np.pi / 2))  # numbers, by load_config
        omega = float(sched_cfg.get("omega", 2 * np.pi))
        schedule = rotating_schedule(omega)
        p0 = bloch_projector(theta)
    elif kind == "constant":
        rng = _seeded(cfg)
        if "matrix" in sched_cfg:
            h_mat = _deser_matrix(sched_cfg["matrix"])
        else:
            h_mat = random_antihermitian(n, rng)
            norm = float(sched_cfg.get("norm", 2.0))
            h_mat *= norm / max(np.linalg.norm(h_mat), 1e-300)
        schedule = constant_schedule(
            _require_generator(h_mat, n, tol, "constant schedule matrix"))
        p0 = Projector.from_frame(random_frame(n, m, rng))
    elif kind == "sampled":
        raw = sched_cfg.get("values")
        if not isinstance(raw, list) or len(raw) != grid.steps + 1:
            raise UsageError("sampled schedule needs a list of grid.steps + 1 values")
        values = np.array([_require_generator(_deser_matrix(v), n, tol,
                                              "sampled schedule value")
                           for v in raw])
        schedule = sampled_schedule(grid, values)
        p0 = Projector.from_frame(random_frame(n, m, _seeded(cfg)))
    else:
        p0, schedule = _geometric_setup(sched_cfg, n, m, grid, cfg, tol)

    sigma = _adapted_basis(p0, tol, coframe=False)[0]  # from_projector's frame, no coframe
    return schedule, p0, sigma, grid


def _seeded(cfg: dict) -> np.random.Generator:
    """The run's seeded generator; only runs that draw make one.

    The first use of ``np.random`` imports it, about 10 ms of a run.
    """
    return np.random.default_rng(int(cfg["seed"]))


def _require_generator(h_mat, n, tol, name):
    """A config generator as an n x n anti-Hermitian matrix, checked before integrating."""
    try:
        return _checked_generator(h_mat, n, tol, name)
    except (NotAntiHermitian, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _geometric_setup(sched_cfg, n, m, grid, cfg, tol):
    """The loop Q(t) = e^{X(t)} P e^{-X(t)}, X(t0) = 0, as P and its ``_orbit_schedule``."""
    span = grid.t1 - grid.t0
    # theta and omega shape the latitude loop; the seeded random loop reads neither
    if "theta" in sched_cfg and (n, m) != (2, 1):
        raise UsageError("schedule.theta (a latitude loop) requires n=2, m=1")
    if "omega" in sched_cfg and "theta" not in sched_cfg:
        raise UsageError("schedule.omega requires schedule.theta")
    if "theta" in sched_cfg:
        theta = float(sched_cfg["theta"])
        omega = float(sched_cfg.get("omega", 2 * np.pi / span))
        p0, turn = bloch_projector(theta), np.diag([0.0, 1j])

        def exponent(t):  # X = omega (t - t0) diag(0, i): the azimuth omega (t - t0)
            return (np.multiply.outer(omega * (t - grid.t0), turn),
                    np.broadcast_to(omega * turn, t.shape + turn.shape))
    else:
        rng = _seeded(cfg)
        a = random_antihermitian(n, rng)
        b = random_antihermitian(n, rng)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        p0 = Projector.standard(n, m)

        def exponent(t):  # X = sin(s) a + (1 - cos s) b, s = 2 pi (t - t0) / span
            s = 2 * np.pi * (t[:, np.newaxis, np.newaxis] - grid.t0) / span
            return (np.sin(s) * a + (1.0 - np.cos(s)) * b,
                    (2 * np.pi / span) * (np.cos(s) * a + np.sin(s) * b))

    return p0, _orbit_schedule(p0.matrix, exponent, tol)


# ---------------------------------------------------------------- reporting

def write_report(cfg: dict, table: np.ndarray, json_payload: dict):
    """Write PREFIX.csv and PREFIX.json, or the JSON to stdout without a prefix.

    ``table`` holds the (rows, 5) CSV floats. ``_csv_block`` renders them, 512 rows at a
    time, as the bytes of ``_CSV_ROW * rows % values``; both files are written in binary
    mode. Strict JSON: NonFinite on inf or NaN.
    """
    try:
        json_text = json.dumps(json_payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFinite(f"report: {exc}") from None
    prefix = cfg.get("output")
    if prefix:
        _write(prefix + ".csv", b"".join(
            [CSV_HEADER.encode() + b"\n"]
            + [_csv_block(table[i:i + _CSV_BLOCK]) for i in range(0, len(table), _CSV_BLOCK)]))
        _write(prefix + ".json", json_text.encode())
        print(f"wrote {prefix}.csv ({len(table)} rows) and {prefix}.json")
    else:
        sys.stdout.write(json_text)


def _write(path: str, data: bytes):
    """Write one report file; UsageError (exit 1) if it cannot be written."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise UsageError(f"cannot write report: {exc}") from None


def _split(v):
    """Veltkamp's split of v into halves of 26 bits, v = vh + vl exactly."""
    c = (2.0 ** 27 + 1.0) * v
    vh = c - (c - v)
    return vh, v - vh


def _dekker(x, hh, hl, lo):
    """x (hh + hl + lo) as p + q: p = fl(x (hh + hl)), q = its exact error (Dekker 1971)
    plus fl(x lo)."""
    xh, xl = _split(x)
    p = x * (hh + hl)
    return p, (((xh * hh - p) + xh * hl) + xl * hh) + xl * hl + x * lo


@functools.cache  # built on first use, not at import
def _csv_tables():
    """The lookup tables of ``_csv_block``, built on its first call.

    - 10^k as hh + hl + lo (hh + hl = hi, Veltkamp's split) for k = 0..218, to 2^-105;
    - the ASCII bytes of each 4-digit chunk 0000..9999, as a little-endian uint32;
    - by decimal exponent e = -201..16: the mantissa's integer digits (1 in scientific
      notation), and a 30-byte row holding the "0.000" prefix or the "e-dd" suffix;
    - by 18 * integer digits + significant digits: the masks taking each mantissa byte
      from digit j, from digit j - 1 (after the point), or the point itself.
    """
    big = [10 ** (22 * a) for a in range(10)]  # 10^k = 10^(k % 22) 10^(22 (k // 22))
    hi = np.array(big, dtype=float)
    lo = np.array([b - int(h) for b, h in zip(big, hi.tolist())], dtype=float)
    k = np.arange(219)
    p, q = _dekker(np.array([10.0 ** b for b in range(22)])[k % 22], *_split(hi[k // 22]),
                   lo[k // 22])
    hi = p + q
    two = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), "<u2").astype("<u4")
    ascii4 = (two[:, None] | two << 16).ravel()  # little-endian: the bytes in reading order
    e = np.arange(-201, 17)
    ints = np.maximum(e + 1, 0) + (e < -4)  # 1 in scientific notation
    rows = np.zeros((218, 30), np.uint8)
    for width in range(2, 6):  # 0.1 <= x < 1 down to 1e-4 <= x < 1e-3
        rows[202 - width, 1:1 + width] = np.frombuffer(b"0.000"[:width], np.uint8)
    rows[:197, 24:26] = 101, 45  # "e-" for e < -4; %.17g is fixed for -4 <= e < 17
    rows[:197, 26:29] = ascii4.view(np.uint8).reshape(-1, 4)[201:4:-1, 1:]
    rows[102:197, 26] = 0  # e > -100: two exponent digits
    j, n_int, n_sig = np.arange(18), np.arange(18)[:, None, None], np.arange(18)[:, None]
    point = (n_sig > n_int) & (n_int > 0)
    masks = np.array([(j < n_int) | (n_int == 0) & (j < n_sig),
                      point & (j > n_int) & (j <= n_sig), 46 * (point & (j == n_int))],
                     dtype=np.uint8).reshape(3, 324, 18)
    return np.array([*_split(hi), q - (hi - p)]), ascii4, ints, rows, masks


def _python_17g(values: np.ndarray) -> np.ndarray:
    """Python's "%.17g" of each value, as zero-padded rows of 29 bytes."""
    return np.array([b"%.17g" % v for v in values.tolist()], "S29").view(np.uint8).reshape(-1, 29)


def _csv_block(block: np.ndarray) -> bytes:
    """The CSV text of a block of rows, byte for byte ``_CSV_ROW * rows % values``.

    For 1e-200 <= |x| < 1e16, x 10^(16 - e) = p + q is exact within 2^-46, and its nearest
    integer is the 17 digits; within _CSV_TIE of a tie, and outside that range (NaN, inf,
    subnormal, huge), ``_python_17g`` renders x.  Each value is a 30-byte row: sign, "0.000"
    prefix, mantissa with its point, exponent and separator, zero-padded then compressed.
    """
    powers, ascii4, ints, rows, masks = _csv_tables()
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= 1e-200) & (a < 1e16)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)  # the decimal exponent, or one off it
    p, q = _dekker(a, *powers.take(16 - e, axis=1))
    shift = ((p - 1e17) + q >= 0).astype(np.int64) - ((p - 1e16) + q < 0)
    off = np.flatnonzero(shift)
    if len(off):  # next to a power of ten: rescale into [1e16, 1e17)
        e[off] += shift[off]
        p[off], q[off] = _dekker(a[off], *powers.take(16 - e[off], axis=1))
    r = np.rint(q)
    tie = np.abs(np.abs(q - r) - 0.5) < _CSV_TIE
    n = p.astype(np.int64) + r.astype(np.int64)
    carry = n == 10 ** 17  # rounded up into the next decade
    n[carry] = 10 ** 16
    e += carry
    chunks = np.empty((len(x), 4), np.int64)  # the 16 digits after the lead, 4 at a time
    for place in (3, 2, 1, 0):
        rest = n // 10 ** 4
        chunks[:, place] = n - rest * 10 ** 4
        n = rest
    digits = np.zeros(18 * len(x) + 1, np.uint8)  # digit j of value i at 18 i + j + 1
    left = digits[1:].reshape(-1, 18)
    left[:, 0] = n + 48
    left[:, 1:17] = ascii4.take(chunks).view(np.uint8)
    sig = 17 - np.argmax(left[:, 16::-1] != 48, axis=1)  # up to the last nonzero digit
    out = rows.take(e + 201, axis=0)
    code = ints.take(e + 201) * 18 + sig
    mant = left * masks[0].take(code, axis=0)
    mant += digits[:-1].reshape(-1, 18) * masks[1].take(code, axis=0)  # digit j - 1
    mant += masks[2].take(code, axis=0)
    out[:, 6:24] = mant
    out[:, 0] = np.signbit(x) * np.uint8(45)
    out[:, 29] = 44
    out[block.shape[1] - 1::block.shape[1], 29] = 10
    out[x == 0, 6] = 48
    slow = np.flatnonzero(tie | ~fast & (x != 0))
    if len(slow):
        out[slow, :29] = _python_17g(x[slow])
    return out.tobytes().translate(None, b"\0")


def _phase_arg(holonomy: np.ndarray, m: int):
    """arg det of the fiber map; reported only in the abelian (m=1) case."""
    if m != 1:
        return None
    det = np.linalg.det(holonomy)
    # an imaginary part within eps |det| is roundoff: a holonomy of -1 reports pi, whatever its sign
    return float(np.angle(det.real if abs(det.imag) <= np.finfo(float).eps * abs(det) else det))


def _finish(cfg: dict, table: np.ndarray, bound: float, message: str, *, defect_max: float,
            wall_time_s: float, extras: dict, dynamical=None, geometric=None, fiber_gap=None,
            berry_phase_arg=None, closure_residual=None) -> int:
    """Write the report, its common keys then ``extras``; exit 2 with ``message`` on stderr
    when defect_max exceeds ``bound``, else 0."""
    payload = {
        "config": cfg,
        "holonomy_dynamical": None if dynamical is None else _ser_matrix(dynamical),
        "holonomy_geometric": None if geometric is None else _ser_matrix(geometric),
        "fiber_gap": None if fiber_gap is None else _ser_matrix(fiber_gap),
        "berry_phase_arg": berry_phase_arg,
        "closure_residual": closure_residual,
        "defect_max": float(defect_max),
        "wall_time_s": float(wall_time_s),
        **extras,
    }
    write_report(cfg, table, payload)
    if payload["defect_max"] > bound:
        print(message, file=sys.stderr)
        return 2
    return 0


def _berry_maps_report(cfg: dict, tol: Tolerances, message: str,
                       more_extras=None) -> int:
    """Report berry_maps on the configured schedule (flow, berry and holonomy).

    ``more_extras(cfg, res, tol)`` may reject the run, or returns the
    report keys that follow the common ones.
    """
    start = time.perf_counter()
    schedule, p0, sigma, grid = build_setup(cfg, tol)
    res = berry_maps(schedule, p0, sigma, grid, tol)
    extras = {"closed": res.closed, "horizontality_defect": res.horizontality_defect}
    if more_extras is not None:
        extras.update(more_extras(cfg, res, tol))

    table = np.column_stack((grid.times, res.projector_defects, res.isometry_defects,
                             res.horizontality_defects, res.energies))
    return _finish(
        cfg, table, tol.ode, message,
        dynamical=res.dynamical,
        geometric=res.geometric,
        fiber_gap=res.fiber_gap,
        berry_phase_arg=_phase_arg(res.geometric, cfg["m"]) if res.closed else None,
        closure_residual=res.closure_residual,
        defect_max=max(res.projector_defect, res.isometry_defect),
        wall_time_s=time.perf_counter() - start,
        extras=extras,
    )


# ---------------------------------------------------------------- subcommands

def cmd_chart(cfg: dict, tol: Tolerances) -> int:
    """seeded chart round-trip and equivariance checks"""
    start = time.perf_counter()
    n, m = cfg["n"], cfg["m"]
    trials = build_grid(cfg).steps + 1
    rng = _seeded(cfg)

    table = np.zeros((trials, 5))  # no horizontality or energy
    max_roundtrip = 0.0
    max_equivariance = 0.0
    # a trial holds about 16 n x n arrays, four times a transport node: peak memory stays fixed
    size = max(1, _transport_block(n) // 4)
    for first in range(0, trials, size):
        draws = []  # u, block and g of each trial, in the order a trial-by-trial run draws them
        for _ in range(min(size, trials - first)):
            u, blk = random_complex(n, n, rng), random_complex(n - m, m, rng)
            blk *= float(rng.uniform(0.0, 10.0)) / max(np.linalg.norm(blk), 1e-300)
            draws.append((u, blk, random_complex(n, n, rng)))
        u, blk, g = map(np.array, zip(*draws))
        u, g = isometrize(np.array([u, g]), tol)
        base = _random_base(u, m, tol)
        f = ChartTangent(base=base, block=blk)
        q = proj_from_chart(base, f)
        max_roundtrip = max(max_roundtrip, *map(frob, chart_from_proj(base, q, tol).block - blk))
        moved = chart_transport(g, f, tol)
        gaps = proj_from_chart(moved.base, moved).matrix - g @ q.matrix @ dag(g)
        max_equivariance = max(max_equivariance, *map(frob, gaps))
        table[first:first + len(blk), :3] = np.transpose(  # t is the trial number
            (np.arange(first, first + len(blk)), q.defect(), frame_defect(base.frame)))

    return _finish(
        cfg, table, tol.comparison, "chart errors exceed the comparison tolerance",
        defect_max=max(max_roundtrip, max_equivariance),
        wall_time_s=time.perf_counter() - start,
        extras={"max_roundtrip_error": max_roundtrip,
                "max_equivariance_error": max_equivariance,
                "trials": trials},
    )


def cmd_flow(cfg: dict, tol: Tolerances) -> int:
    """integrate a Hamiltonian flow and its lifts"""
    return _berry_maps_report(cfg, tol, "flow defects exceed the ode tolerance")


def _closed_oracle(res, tol: Tolerances) -> np.ndarray:
    """The Pancharatnam oracle on the nodes phi_k phi_k* of a run; NotClosed if open."""
    frames = res.frame_path.samples
    _require_closed(res.closure_residual, frames.shape[-1], tol)  # the rank m of the run
    return _frame_oracle(frames, tol)


def _berry_extras(cfg: dict, res, tol: Tolerances) -> dict:
    """Closed-loop checks of a berry run: fiber gap, oracle, analytic phase k pi (1 - cos theta)."""
    m = cfg["m"]
    oracle = _closed_oracle(res, tol)
    extras = {"fiber_gap_deviation": frob(res.fiber_gap - np.eye(m)),
              "oracle_phase_arg": _phase_arg(oracle, m),
              "oracle_deviation": frob(res.geometric - oracle)}

    if cfg["schedule"].get("kind") == "rotating" and m == 1:
        phase = _phase_arg(res.geometric, m)
        theta = float(cfg["schedule"].get("theta", np.pi / 2))
        # the loop is closed, so it winds k = omega (t1 - t0) / 2 pi times, to roundoff
        span = cfg["grid"]["t1"] - cfg["grid"]["t0"]
        turns = round(float(cfg["schedule"].get("omega", 2 * np.pi)) * span / (2 * np.pi))
        reference = float(turns * np.pi * (1.0 - np.cos(theta)))
        # compare phases on the circle: the holonomy angle is defined mod 2 pi
        deviation = min(
            abs(np.angle(np.exp(1j * (phase - reference)))),
            abs(np.angle(np.exp(1j * (phase + reference)))),
        )
        extras["analytic_reference"] = reference
        extras["analytic_deviation"] = float(deviation)
    return extras


def cmd_berry(cfg: dict, tol: Tolerances) -> int:
    """closed-loop Berry holonomy with analytic reference"""
    return _berry_maps_report(cfg, tol, "berry run defects exceed the ode tolerance",
                              _berry_extras)


def _holonomy_extras(cfg: dict, res, tol: Tolerances) -> dict:
    return {"oracle_deviation": frob(res.geometric - _closed_oracle(res, tol))}


def cmd_holonomy(cfg: dict, tol: Tolerances) -> int:
    """loop holonomy with the discrete-projection oracle"""
    return _berry_maps_report(cfg, tol, "holonomy run defects exceed the ode tolerance",
                              _holonomy_extras)


def cmd_synthesize(cfg: dict, tol: Tolerances) -> int:
    """first-order holonomy synthesis from curvature data"""
    start = time.perf_counter()
    n, m = cfg["n"], cfg["m"]
    syn = cfg.get("synthesize", {})
    scale = float(syn.get("scale", 0.1))  # a number in [0, 0.5], by load_config
    if "w" in syn:
        w = _require_generator(_deser_matrix(syn["w"]), m, tol, "synthesize.w")
    else:
        w = random_antihermitian(m, _seeded(cfg))
        w /= max(np.linalg.norm(w), 1e-300)

    base = BasePoint.standard(n, m)
    pairs = curvature_generators(w, n, tol)
    per_side = max(2, build_grid(cfg).steps // (4 * max(1, len(pairs))))
    # the loop of synthesize_holonomy_step, carried by its graph-frame section
    blocks = _parallelogram_loop(pairs, scale, base, per_side)
    section = FramePath(TimeGrid(0.0, 1.0, len(blocks) - 1), _graph_section(base, blocks))
    grid = section.grid
    # echo the grid the loop actually used, so rows == steps + 1 holds
    cfg = copy.deepcopy(cfg)
    cfg["grid"] = {"t0": grid.t0, "t1": grid.t1, "steps": grid.steps}
    predicted = mat_exp(SYNTHESIS_CURVATURE_CONSTANT * scale ** 2 * w)

    closure = section.closure_residual()
    _require_closed(closure, m, tol)
    p_defects = section.projector_defects()
    # psi_k = phi_k g_k, written over the section frames once their defects are taken
    frames = FramePath(grid, _section_transport(section.samples, tol))
    holonomy = dag(frames.samples[0]) @ frames.samples[-1]
    iso_defects = frames.frame_defects()
    table = np.column_stack((grid.times, p_defects, iso_defects,
                             horizontality_defects(frames), np.zeros(len(p_defects))))
    return _finish(
        cfg, table, tol.ode, "synthesis defects exceed the ode tolerance",
        geometric=holonomy,
        berry_phase_arg=_phase_arg(holonomy, m),
        closure_residual=closure,
        defect_max=max(float(p_defects.max()), float(iso_defects.max())),
        wall_time_s=time.perf_counter() - start,
        extras={"scale": scale,
                "generator": _ser_matrix(w),
                "predicted_holonomy": _ser_matrix(predicted),
                "synthesis_deviation": frob(holonomy - predicted)},
    )


def cmd_selftest(cfg: dict, tol: Tolerances) -> int:
    """run the invariant suite of every module"""
    from . import selftest  # imported here: no other subcommand compiles it
    results, report = selftest.run_all(tol)
    sys.stdout.write(report)
    prefix = cfg.get("output")
    if prefix:
        _write(prefix + ".txt", report.encode())
    return 0 if all(r.passed for r in results) else 2


_COMMANDS = {
    "chart": cmd_chart,
    "flow": cmd_flow,
    "berry": cmd_berry,
    "holonomy": cmd_holonomy,
    "synthesize": cmd_synthesize,
    "selftest": cmd_selftest,
}


# ---------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassflow", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Hamiltonian flows and holonomy on complex Grassmannians\n\ncommands:\n"
        + "".join(f"  {name:<12}{command.__doc__}\n" for name, command in _COMMANDS.items()))
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="see above")
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--out", metavar="PREFIX",
                        help="output file prefix (writes PREFIX.csv, PREFIX.json)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--steps", type=int, help="override grid.steps")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; the contract says 1
        return 0 if exc.code in (0, None) else 1

    try:
        cfg = load_config(args)
        tol = build_tolerances(cfg)
        return _COMMANDS[args.command](cfg, tol)
    except (UsageError, InvalidArgument) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a grid too large to allocate, before any file is written
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (NotClosed, GapTooSmall, NonFinite) as exc:
        print(f"numerical condition: {exc}", file=sys.stderr)
        return 3
    except GrassflowError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
