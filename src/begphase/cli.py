"""Command-line interface: every solver and sweep with machine-readable output.

Subcommands map one-to-one onto library operations.  Output is CSV (default)
or JSON; every numeric flag is echoed into the output header for provenance,
floats are serialized with 12 significant digits (round-half-even), and
identical invocations produce byte-identical artifacts.  Exit codes: 0 on
success, 2 on a domain error (message names the violated precondition),
64 on usage errors.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import canonical, diagram, limits, micro
from .core import CanonicalParams, DomainError, MicroParams

USAGE_EXIT = 64
DOMAIN_EXIT = 2

#: Most points a grid spec may give per axis.
MAX_GRID_POINTS = 10 ** 6

_NON_BINDING_FLAGS = {"fn", "cmd", "format", "out", "curves_out"}


def _bindings(args) -> dict:
    """The command and every parameter flag set, echoed into output headers
    for provenance.  Grid specs must parse, checked before any computation
    runs."""
    bindings = {"command": args.cmd}
    for key, val in sorted(vars(args).items()):
        if key in _NON_BINDING_FLAGS or val is None or val is False:
            continue
        if key.endswith("grid"):
            _parse_grid(val)   # well-formed, of at most MAX_GRID_POINTS
        bindings[key] = val
    return bindings


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def fmt(x) -> str:
    """12 significant digits, round-half-even; empty string for None."""
    if type(x) is float:   # most cells; inf, nan and -0.0 format alike
        return f"{x:.12g}"
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.12g}"


def _round12(obj):
    if isinstance(obj, float):
        return float(fmt(obj)) if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _csv_row(values):
    return ",".join(v if isinstance(v, str) else fmt(v) for v in values)


def _emit(args, columns, rows, payload=None):
    """Write csv or json.  The csv comment header holds the command and
    every parameter flag, then the payload entries, each block sorted by
    key; the column row and the data rows follow."""
    payload = payload or {}
    if args.format == "json":
        doc = {"command": args.cmd, "params": _round12(args.bindings),
               "rows": [dict(zip(columns, _round12(list(r)))) for r in rows]}
        doc.update(_round12(payload))
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        items = sorted(args.bindings.items()) + sorted(payload.items())
        lines = [f"# {key}={_csv_row([val])}" for key, val in items]
        lines.append(",".join(columns))
        lines.extend(_csv_row(r) for r in rows)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_grid(spec: str) -> list:
    """Parse 'start:stop:step' into an inclusive grid of at most
    MAX_GRID_POINTS points, counted before the grid is built."""
    try:
        start, stop, step = (float(p) for p in spec.split(":"))
    except ValueError as exc:
        raise DomainError(f"grid spec must be start:stop:step, got {spec!r}") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise DomainError(f"grid spec needs finite start, stop and step, got {spec!r}")
    if step <= 0 or stop < start:
        raise DomainError(f"grid spec needs step > 0 and stop >= start, got {spec!r}")
    span = (stop - start) / step + 1e-12   # the point count less one, or inf
    if span >= MAX_GRID_POINTS:
        raise DomainError(f"grid spec {spec!r} gives more than "
                          f"{MAX_GRID_POINTS} points")
    return [start + i * step for i in range(int(span) + 1)]


def _parse_ns(spec: str) -> list:
    """Parse a comma-separated list of integer system sizes."""
    ns = []
    for item in spec.split(","):
        try:
            ns.append(int(item))
        except ValueError as exc:
            raise DomainError(
                f"--ns items must be integers, got {item!r} in {spec!r}") from exc
    return ns


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_canon(args):
    params = CanonicalParams(args.beta, args.K)
    sol = canonical.solve_canonical(params)
    free = canonical.free_energy_at(params, sol.macrostates[0])
    payload = {"phase": sol.phase_label, "min_value": sol.min_value,
               "free_energy": free}
    cols = ("z", "w", "nu_minus", "nu_zero", "nu_plus", "type")
    rows = [(z, w, m.nu_minus, m.nu_zero, m.nu_plus, r)
            for z, w, m, r in zip(sol.z_points, sol.w_points, sol.macrostates,
                                  sol.types)]
    _emit(args, cols, rows, payload)


def _cmd_canon_critical(args):
    # one row of diagram-canon --curves-out
    _, _, cols, curve_row = _DIAGRAMS["diagram-canon"]
    _emit(args, cols, [curve_row(canonical.canonical_criticals(args.beta))])


def _cmd_micro(args):
    params = MicroParams(args.u, args.K)
    sol = micro.solve_micro(params)
    payload = {"phase": sol.phase_label, "entropy": sol.entropy,
               "tied": sol.tied}
    cols = ("z", "nu_minus", "nu_zero", "nu_plus")
    rows = [(z, m.nu_minus, m.nu_zero, m.nu_plus)
            for z, m in zip(sol.z_points, sol.macrostates)]
    _emit(args, cols, rows, payload)


def _cmd_micro_critical(args):
    # one row of diagram-micro --curves-out, and the region of --K
    _, _, cols, curve_row = _DIAGRAMS["diagram-micro"]
    crit = micro.micro_criticals(args.u, args.K)
    _emit(args, (*cols, "region"), [(*curve_row(crit), crit.region or "")])


def _pad_roots(zs):
    return list(zs) + [None] * (3 - len(zs))


# command: (sweep in diagram, row columns, curve columns, curve record -> row);
# the first row column names the outer grid flag.  The sweep is looked up by
# name when the command runs, so a rebound diagram attribute is the one called.
_DIAGRAMS = {
    "diagram-canon": (
        "sweep_canonical",
        ("beta", "K", "branch", "z1", "z2", "z3", "G_min"),
        ("beta", "Kc2", "K1", "Kc1", "K2", "w1"),
        lambda c: (c.beta, c.k_second_order, c.k_tangent, c.k_first_order,
                   c.k_spinodal, c.w_tangent)),
    "diagram-micro": (
        "sweep_micro",
        ("u", "K", "branch", "z1", "z2", "z3", "entropy"),
        ("u", "Kc2", "Kc1", "C"),
        lambda c: (c.u, c.k_second_order, c.k_first_order, c.k_convexity)),
}


def _cmd_diagram(args):
    """Format one library sweep over the whole grid: its rows and, with
    --curves-out, the critical record of each outer value."""
    sweep_name, cols, curve_cols, curve_row = _DIAGRAMS[args.cmd]
    outer = _parse_grid(getattr(args, f"{cols[0]}_grid"))
    Ks = _parse_grid(args.K_grid)
    rows, curves = getattr(diagram, sweep_name)(outer, Ks)
    _emit(args, cols, [(*r.control, r.branch, *_pad_roots(r.minimizers),
                        r.value) for r in rows])
    if args.curves_out:
        with open(args.curves_out, "w") as fh:
            fh.write(",".join(curve_cols) + "\n")
            fh.writelines(_csv_row(curve_row(c)) + "\n" for c in curves)


def _cmd_equivalence(args):
    gaps = diagram.nonequivalence_gap(args.K)
    payload = {"verdict": "nonequivalent" if gaps else "equivalent",
               "gap_measure": sum(hi - lo for lo, hi in gaps)}
    _emit(args, ("gap_lo", "gap_hi"), list(gaps), payload)


def _cmd_limits(args):
    params = CanonicalParams(args.beta, args.K)
    if args.mode == "ks":
        ns = _parse_ns(args.ns)
        dists = limits.convergence_diagnostic(ns, params)
        _emit(args, ("n", "distance"), list(zip(ns, dists)))
    elif args.mode == "conditioned":
        ns = _parse_ns(args.ns)
        dists = [limits.conditioned_clt_check(n, params, j=args.j, a=args.a)
                 for n in ns]
        _emit(args, ("n", "distance"), list(zip(ns, dists)))
    elif args.mode == "classify":
        sol = canonical.solve_canonical(params)
        rows = []
        for z in sol.z_points:
            rep = limits.classify_minimum(params, z)
            rows.append((z, rep.r, *rep.derivative_values, rep.sigma2))
        _emit(args, ("z", "r", "G2", "G4", "G6", "sigma2"), rows)
    else:  # metropolis; the exact law first, so a refused n runs no chain
        pmf = limits.exact_spin_pmf(args.n, params)
        res = limits.metropolis_sampler(args.n, params, args.steps, args.seed)
        tv = 0.5 * float(np.abs(res.s_probs - pmf.probabilities).sum())
        payload = {"tv_vs_exact": tv, "acceptance_rate": res.acceptance_rate,
                   "freq_minus": res.spin_freq.nu_minus,
                   "freq_zero": res.spin_freq.nu_zero,
                   "freq_plus": res.spin_freq.nu_plus}
        rows = [(int(k), p) for k, p in zip(pmf.spins, res.s_probs) if p > 0]
        _emit(args, ("S", "empirical_probability"), rows, payload)


def _cmd_pmf(args):
    params = CanonicalParams(args.beta, args.K)
    pmf = limits.exact_spin_pmf(args.n, params)
    rows = list(zip((int(k) for k in pmf.spins), pmf.probabilities,
                    pmf.log_weights))
    _emit(args, ("k", "probability", "log_weight"), rows)


def _cmd_oracle(args):
    minima, value = diagram.simplex_oracle(
        args.kind, beta=args.beta, u=args.u, K=args.K, tol=args.tol,
        grid_step=args.grid_step)
    payload = {"min_value": value, "n_minima": len(minima)}
    rows = [(m.nu_minus, m.nu_zero, m.nu_plus) for m in minima]
    _emit(args, ("nu_minus", "nu_zero", "nu_plus"), rows, payload)


_BETA = ("--beta", {"type": float, "required": True})
_U = ("--u", {"type": float, "required": True})
_K = ("--K", {"type": float, "required": True})
_GRID = {"required": True, "metavar": "START:STOP:STEP"}

# the output flags of every command; --threads is inert (the sweeps are
# serial): still parsed, and echoed when set, only because the perfbench/
# diagram workload passes --threads 1
_COMMON = (("--format", {"choices": ("csv", "json"), "default": "csv"}),
           ("--out", {"help": "output path (default stdout)"}),
           ("--threads", {"type": int, "help": argparse.SUPPRESS}))

# command: (help, handler, its flags as (name, add_argument keywords)), in
# the order of --help; every command also takes the _COMMON flags
_COMMANDS = {
    "canon": ("equilibrium macrostates at (beta, K)", _cmd_canon, (_BETA, _K)),
    "canon-critical": ("critical couplings at beta", _cmd_canon_critical,
                       (_BETA,)),
    "micro": ("equilibrium macrostates at (u, K)", _cmd_micro, (_U, _K)),
    "micro-critical": ("critical couplings at u", _cmd_micro_critical, (
        _U, ("--K", {"type": float, "help": "optional coupling to place "
                     "above/below the convexity curve"}))),
    "diagram-canon": ("canonical sweep over a grid", _cmd_diagram, (
        ("--beta-grid", _GRID), ("--K-grid", _GRID), ("--curves-out", {}))),
    "diagram-micro": ("microcanonical sweep over a grid", _cmd_diagram, (
        ("--u-grid", _GRID), ("--K-grid", _GRID), ("--curves-out", {}))),
    "equivalence": ("order-parameter sets realized by both ensembles at K",
                    _cmd_equivalence, (_K,)),
    "limits": ("limit-law diagnostics at (beta, K)", _cmd_limits, (
        _BETA, _K,
        ("--mode", {"choices": ("ks", "conditioned", "classify", "metropolis"),
                    "default": "ks"}),
        ("--ns", {"default": "500,1000,2000",
                  "help": "comma-separated system sizes"}),
        ("--j", {"choices": ("+", "-"), "default": "+"}),
        ("--a", {"type": float, "help": "conditioning window half-width"}),
        ("--n", {"type": int, "default": 50, "help": "metropolis system size"}),
        ("--steps", {"type": int, "default": 10**6}),
        ("--seed", {"type": int, "default": 0}))),
    "pmf": ("exact total-spin distribution", _cmd_pmf,
            (("--n", {"type": int, "required": True}), _BETA, _K)),
    "oracle": ("brute-force simplex scan", _cmd_oracle, (
        ("--kind", {"choices": ("canonical", "micro"), "required": True}),
        ("--beta", {"type": float}), ("--u", {"type": float}), _K,
        ("--tol", {"type": float, "default": 5e-4}),
        ("--grid-step", {"type": float, "default": 5e-4}))),
}


def build_parser(cmd=None) -> argparse.ArgumentParser:
    """The begphase parser with every subcommand or, where cmd names one,
    with that one alone: it parses an argv that starts with cmd as the full
    parser does, and its usage line names every command as well."""
    p = _Parser(prog="begphase",
                description="Equilibrium macrostates, critical couplings and "
                            "limit-law diagnostics for the mean-field spin-1 model.")
    names = [cmd] if cmd in _COMMANDS else list(_COMMANDS)
    sub = p.add_subparsers(dest="cmd", required=True, metavar=(
        None if len(names) > 1 else "{" + ",".join(_COMMANDS) + "}"))
    for name in names:
        help_, fn, flags = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_)
        for flag, kwargs in flags + _COMMON:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        args.bindings = _bindings(args)
        args.fn(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
