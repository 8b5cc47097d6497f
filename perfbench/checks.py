"""Output checks of the benchmark workloads, against independent references.

Each check takes a workload output (already reduced to plain numbers) plus
references computed outside the timed region, and returns a list of
failure messages; an empty list means the output is correct.  The checks
never raise on a wrong output, so one bad call counts in ``failed`` and the
run goes on.
"""

import math

from tracing import origin_band_top

#: Same value as begphase.diagram.GAP_CLUSTER_TOL; restated so a change to
#: the package constant cannot silently loosen this check.
GAP_CLUSTER_TOL = 1e-3

# criterion 3 of the acceptance suite: dual route against the potential route
DUAL_VALUE_TOL = 1e-9
DUAL_ARGMIN_TOL = 1e-8
# criterion 4: per-component distance to the simplex oracle
ORACLE_TOL = 2e-3
# test_convexity_threshold: C(u) against the closed-form origin-band top
BAND_REL_TOL = 5e-3
# criterion 9 (pinned there at n = 4000)
VARIANCE_REL_TOL = 0.05
# criterion 11 bound, applied here at twice its steps
SAMPLER_TV_TOL = 0.02
# closed forms printed with 12 significant digits
CLOSED_FORM_REL_TOL = 1e-10


def canonical_kc2(beta):
    return math.exp(beta) / (4.0 * beta) + 1.0 / (2.0 * beta)


def micro_kc2(u):
    return 1.0 / (2.0 * u * math.log(2.0 * (1.0 - u) / u))


def _rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def check_nonequivalent(verdict, gaps, z_jump):
    """K = 1.0817 (criterion 10): one gap from ~0 up to the canonical jump."""
    out = []
    if verdict != "nonequivalent":
        out.append(f"verdict {verdict!r}, expected 'nonequivalent'")
    if len(gaps) != 1:
        out.append(f"{len(gaps)} gap intervals, expected exactly one: {gaps}")
        return out
    lo, hi = gaps[0]
    if not lo < 2e-3:
        out.append(f"gap starts at {lo}, expected below 2e-3")
    if not abs(hi - z_jump) <= 2.0 * GAP_CLUSTER_TOL:
        out.append(f"gap ends at {hi}, expected within {2 * GAP_CLUSTER_TOL} "
                   f"of the dual-route jump magnetization {z_jump}")
    return out


def check_equivalent(verdict, gaps):
    """K = 1.5 (criterion 10): equivalent, no gap."""
    out = []
    if verdict != "equivalent":
        out.append(f"verdict {verdict!r}, expected 'equivalent'")
    if gaps:
        out.append(f"gap intervals {gaps}, expected none")
    return out


# ---------------------------------------------------------------------------
# diagram
# ---------------------------------------------------------------------------

def _opt(x):
    return None if x == "" else float(x)


def check_canon_curves(rows, beta_c):
    """rows: dicts with the --curves-out columns beta, Kc2, K1, Kc1, K2."""
    out = []
    for r in rows:
        beta = float(r["beta"])
        kc2, k1, kc1, k2 = (_opt(r[c]) for c in ("Kc2", "K1", "Kc1", "K2"))
        closed = canonical_kc2(beta)
        for label, val in (("Kc2", kc2), ("K2", k2)):
            if val is not None and _rel(val, closed) > CLOSED_FORM_REL_TOL:
                out.append(f"beta={beta}: {label}={val} vs closed form {closed}")
        if beta > beta_c:
            if None in (k1, kc1, k2) or not k1 < kc1 < k2:
                out.append(f"beta={beta}: expected K1 < Kc1 < K2, got "
                           f"{k1}, {kc1}, {k2}")
        elif kc2 is None:
            out.append(f"beta={beta}: Kc2 missing below log 4")
    return out


def check_micro_curves(rows):
    """rows: dicts with the --curves-out columns u, Kc2, Kc1, C."""
    out = []
    for r in rows:
        u = float(r["u"])
        kc2, kc1, c = (_opt(r[k]) for k in ("Kc2", "Kc1", "C"))
        closed = micro_kc2(u)
        if kc2 is None or _rel(kc2, closed) > CLOSED_FORM_REL_TOL:
            out.append(f"u={u}: Kc2={kc2} vs closed form {closed}")
        if kc1 is not None and kc2 is not None and not kc1 < kc2:
            out.append(f"u={u}: expected Kc1 < Kc2, got {kc1}, {kc2}")
        if u <= 1.0 / 3.0:
            top = origin_band_top(u)
            if c is None or _rel(c, top) > BAND_REL_TOL:
                out.append(f"u={u}: C={c} vs origin-band top {top} "
                           f"(relative tolerance {BAND_REL_TOL})")
    return out


def check_canon_row(row, dual_value, dual_args):
    """A diagram-canon row (z1..z3, G_min) against dual_route_minimum."""
    zs = sorted(float(row[c]) for c in ("z1", "z2", "z3") if row[c] != "")
    where = f"(beta, K) = ({row['beta']}, {row['K']})"
    out = []
    if abs(float(row["G_min"]) - dual_value) >= DUAL_VALUE_TOL:
        out.append(f"{where}: G_min {row['G_min']} vs dual route {dual_value}")
    if len(zs) != len(dual_args):
        out.append(f"{where}: minimizers {zs} vs dual route {dual_args}")
    elif any(abs(a - b) >= DUAL_ARGMIN_TOL for a, b in zip(zs, dual_args)):
        out.append(f"{where}: minimizers {zs} vs dual route {dual_args}")
    return out


def shell_lift(u, K, z):
    """(nu_minus, nu_zero, nu_plus) of magnetization z on the energy shell."""
    q = u + K * z * z
    return (0.5 * (q - z), 1.0 - q, 0.5 * (q + z))


def check_micro_row(row, oracle_states):
    """A diagram-micro row against the simplex oracle: every state has a
    neighbour within ORACLE_TOL per component, in both directions."""
    u, K = float(row["u"]), float(row["K"])
    states = [shell_lift(u, K, float(row[c])) for c in ("z1", "z2", "z3")
              if row[c] != ""]

    def close(a, b):
        return all(abs(x - y) <= ORACLE_TOL for x, y in zip(a, b))

    if (all(any(close(s, o) for o in oracle_states) for s in states)
            and all(any(close(o, s) for s in states) for o in oracle_states)):
        return []
    return [f"(u, K) = ({u}, {K}): states {states} vs oracle {oracle_states}"]


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

def check_ladder(label, values):
    """Criterion 8: distances strictly decreasing along the n ladder."""
    if all(a > b for a, b in zip(values, values[1:])):
        return []
    return [f"{label} ladder not strictly decreasing: {values}"]


def check_variance(n, var, sigma2):
    """Criterion 9: n Var(S_n / n) within 5% of the limit variance."""
    gap = abs(var / n - sigma2) / sigma2
    if gap < VARIANCE_REL_TOL:
        return []
    return [f"variance identity at n={n}: relative gap {gap} >= "
            f"{VARIANCE_REL_TOL}"]


def check_sampler(tv):
    """Criterion 11 bound on the sampler's total variation to the exact law."""
    if tv < SAMPLER_TV_TOL:
        return []
    return [f"sampler total variation {tv} >= {SAMPLER_TV_TOL}"]
