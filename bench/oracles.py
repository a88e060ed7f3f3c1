"""Checks of CLI outputs against oracles that hold for any seed.

The oracles take another route to each value: networkx for graph structure,
numpy / scipy linear algebra for determinants, distances and the magnitude
solve, and closed forms for the extremal and continuum results.  networkx is
used here only; the program never imports it.
"""

import math
from fractions import Fraction

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import shortest_path

# Connected labeled graphs on n vertices (OEIS A001187).
CONNECTED_LABELED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}

# Mean distance between two uniform points (length) and 2 - E[d(a, b)] / r for
# two uniform points on a small metric sphere of radius r (cluster).
CLOSED_FORMS = {
    ("torus2", "length"): (math.sqrt(2) + math.log(1 + math.sqrt(2))) / 6,
    # mean distance from the centre of the unit cube to a uniform point in it
    ("torus3", "length"): 0.4802959782275265,
    # pi R / 2 with R = 1 / (2 sqrt(pi)), the radius of the unit-area sphere
    ("sphere_area1", "length"): math.sqrt(math.pi) / 4,
    ("torus2", "cluster"): 2 - 4 / math.pi,
    ("torus3", "cluster"): 2 / 3,
    ("sphere_area1", "cluster"): 2 - 4 / math.pi,
}
STANDARD_ERRORS = 5
# Exact determinants are also checked modulo these primes: a log agrees to
# 1e-9 only, which cannot tell tree_count from tree_count + 1.
PRIMES = (2_147_483_647, 2_147_483_629)

# Functionals that need a connected graph (undefined otherwise).
NEEDS_CONNECTED = ("wiener_index", "distance_variance", "mean_centrality", "magnitude",
                   "tree_count")
AUDIT_ROWS = ("length_lower", "length_upper_order", "length_lower_density",
              "length_upper_diameter", "length_upper_independence", "length_lower_trace",
              "chromatic_vs_arboricity", "wiener_spanning_trees")


class Checks:
    """Counts checks attempted and records the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def equal(self, got, want, what):
        self.expect(got == want, f"{what}: got {got!r}, want {want!r}")

    def close(self, got, want, rel, what):
        ok = got is not None and math.isclose(got, want, rel_tol=rel, abs_tol=0.0)
        self.expect(ok, f"{what}: got {got!r}, want {want!r} (rel {rel})")


def nx_graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def read_nx_edge_list(path):
    n, edges = None, []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if n is None:
                n = int(parts[1])
            else:
                edges.append((int(parts[0]), int(parts[1])))
    return nx_graph(n, edges)


def _fraction(value):
    """A rational as the CLI writes it: {num, den} or 'num/den'."""
    if isinstance(value, dict):
        return Fraction(int(value["num"]), int(value["den"]))
    return Fraction(value)


def _hop_distances(g):
    adjacency = nx.to_scipy_sparse_array(g, nodelist=range(g.number_of_nodes()),
                                         format="csr")
    return shortest_path(adjacency, method="D", unweighted=True)


def _char_length(g, dist):
    """Mean over ordered pairs within each component, averaged over components."""
    comps = [sorted(c) for c in nx.connected_components(g)]
    if not comps:
        return Fraction(0)
    total = Fraction(0)
    for comp in comps:
        k = len(comp)
        if k >= 2:
            total += Fraction(int(dist[np.ix_(comp, comp)].sum()), k * (k - 1))
    return total / len(comps)


def _mean_cluster(g):
    n = g.number_of_nodes()
    if n == 0:
        return Fraction(0)
    triangles = nx.triangles(g)
    total = Fraction(0)
    for v, d in g.degree():
        if d >= 2:
            total += Fraction(2 * triangles[v], d * (d - 1))
    return total / n


def _euler_char(g):
    return sum((-1) ** (len(c) - 1) for c in nx.enumerate_all_cliques(g))


def det_mod(matrix, p):
    """Determinant of an integer matrix modulo a prime p < 2^31 (Gaussian elimination)."""
    a = np.array(matrix, dtype=np.int64) % p
    n = len(a)
    det = 1
    for k in range(n):
        rows = np.nonzero(a[k:, k])[0]
        if rows.size == 0:
            return 0
        pivot = k + int(rows[0])
        if pivot != k:
            a[[k, pivot]] = a[[pivot, k]]
            det = -det
        det = det * int(a[k, k]) % p
        factors = a[k + 1:, k] * pow(int(a[k, k]), -1, p) % p
        a[k + 1:, k:] = (a[k + 1:, k:] - factors[:, None] * a[k, k:]) % p
    return det % p


def _logdet(matrix):
    sign, logdet = np.linalg.slogdet(matrix)
    return logdet if sign > 0 else None


# -- exact_er200: analyze and audit -------------------------------------------

def exact_oracle(g, caps):
    """Reference values for `analyze` and `audit` on the networkx graph `g`."""
    n = g.number_of_nodes()
    connected = n >= 1 and nx.is_connected(g)
    lap = nx.laplacian_matrix(g, nodelist=range(n)).toarray()
    forest, trees = lap + np.eye(n, dtype=lap.dtype), lap[1:, 1:]
    out = {"n": n, "m": g.number_of_edges(), "connected": connected, "caps": caps,
           "forest_log": _logdet(forest), "forest_mod": [det_mod(forest, p) for p in PRIMES]}
    if connected:
        dist = _hop_distances(g)
        out["wiener"] = int(dist.sum())
        out["diameter"] = nx.diameter(g)
        out["tree_log"] = _logdet(trees)
        out["tree_mod"] = [det_mod(trees, p) for p in PRIMES]
        ones = np.ones(n)
        out["magnitude"] = float(np.linalg.solve(np.exp(-dist), ones).sum())
    return out


def expected_status(name, oracle):
    caps = oracle["caps"]
    capped = {"independence_number": caps.independence, "chromatic_number": caps.chromatic,
              "arboricity": caps.arboricity}
    if name in capped:
        return "skipped" if oracle["n"] > capped[name] else "ok"
    if name in NEEDS_CONNECTED:
        return "ok" if oracle["connected"] else "undefined"
    if name == "complexity" and oracle["connected"]:
        # n * tree count is the product of the nonzero eigenvalues
        overflow = math.log(oracle["n"]) + oracle["tree_log"] >= 700
        return "undefined" if overflow else "ok"
    return "ok"


def check_analyze(doc, oracle, checks):
    """`doc` is the parsed JSON report of `netfunc analyze`."""
    entries = doc["functionals"]
    graph = doc["graph"]
    checks.equal((graph["n"], graph["m"]), (oracle["n"], oracle["m"]), "analyze graph size")
    for name, entry in entries.items():
        if name == "complexity" and not oracle["connected"]:
            continue
        checks.equal(entry["status"], expected_status(name, oracle), f"status of {name}")

    def value(name):
        entry = entries.get(name, {})
        return entry.get("value") if entry.get("status") == "ok" else None

    def exact(name, key, what):
        got = value(name)
        got = int(got) if got is not None else None
        checks.close(math.log(got) if got else None, oracle[f"{key}_log"], 1e-9,
                     f"log {name} against slogdet of {what}")
        checks.equal([got % p if got is not None else None for p in PRIMES],
                     oracle[f"{key}_mod"], f"{name} modulo primes against det of {what}")

    exact("forest_complexity", "forest", "L + I")
    if not oracle["connected"]:
        return
    n = oracle["n"]
    exact("tree_count", "tree", "the reduced Laplacian")
    checks.close(value("log_complexity"), math.log(n) + oracle["tree_log"], 1e-9,
                 "log_complexity against log(n) + slogdet")
    length = value("char_length")
    wiener = value("wiener_index")
    checks.equal(_fraction(length) * n * (n - 1) if length else None, wiener,
                 "char_length * n(n-1) against wiener_index")
    checks.equal(wiener, oracle["wiener"], "wiener_index against networkx distances")
    checks.close(value("magnitude"), oracle["magnitude"], 1e-9,
                 "magnitude against numpy.linalg.solve on exp(-D)")


def check_audit(rows, oracle, checks):
    """`rows` is the parsed JSON of `netfunc audit`."""
    checks.equal(tuple(r["name"] for r in rows), AUDIT_ROWS, "audit rows")
    for row in rows:
        checks.expect(row["holds"] is True or (row["holds"] is None and row["note"]),
                      f"audit row {row['name']} neither holds nor is skipped: {row}")
    by_name = {r["name"]: r for r in rows}
    if oracle["connected"]:
        checks.equal(by_name["length_upper_diameter"]["rhs"], oracle["diameter"],
                     "audit diameter against networkx")
        checks.equal(by_name["wiener_spanning_trees"]["lhs"], oracle["wiener"],
                     "audit Wiener index against networkx distances")


# -- sweeps --------------------------------------------------------------------

def sweep_oracle(g):
    """Reference fields and flags of one sweep record for the networkx graph `g`."""
    n, m = g.number_of_nodes(), g.number_of_edges()
    dist = _hop_distances(g)
    cluster = _mean_cluster(g)
    second = (dist == 2).sum(axis=1)
    degree = [d for _, d in sorted(g.degree())]
    mean_degree = 2 * m / n if n else 0.0
    mean_second = int(second.sum()) / n if n else 0.0
    flags = {}
    if cluster in (0, 1):
        flags["cluster_length_ratio_flag"] = "nu_zero" if cluster == 0 else "nu_one"
    if not any(d >= 1 and s >= 1 for d, s in zip(degree, second)):
        flags["curvature_action_flag"] = "no_admissible_vertices"
    if n and (mean_degree == 0 or mean_second == 0 or mean_degree == mean_second):
        flags["length_estimate_flag"] = ("zero_degree" if mean_degree == 0 else
                                         "zero_second_sphere" if mean_second == 0 else
                                         "equal_spheres")
    fields = {
        "n": n,
        "m": m,
        "char_length": float(_char_length(g, dist)),
        "mean_cluster": float(cluster),
        "euler_char": _euler_char(g),
        "mean_degree": mean_degree,
        "edge_density": float(Fraction(2 * m, n * (n - 1))) if n >= 2 else 0.0,
    }
    return fields, flags


def check_sweep(records, specs, oracles, checks):
    """`records` is the parsed JSON of `netfunc sweep`; one spec and oracle per record."""
    checks.equal(len(records), len(specs), "sweep record count")
    for record, spec, (fields, flags) in zip(records, specs, oracles):
        label = spec.describe()
        checks.equal(record["model"], label, "sweep record order")
        for name, value in fields.items():
            checks.equal(record[name], value, f"{name} of {label}")
        got = {k: v for k, v in record.items() if k.endswith("_flag") and v is not None}
        checks.equal(got, flags, f"flags of {label}")


# -- extremal ------------------------------------------------------------------

def check_extremal(doc, n, checks):
    """`doc` is the parsed JSON of `netfunc extremal --n n` (all functionals)."""
    connected = CONNECTED_LABELED[n]
    checks.equal(doc["total_masks"], 1 << (n * (n - 1) // 2), "extremal masks")
    checks.equal(doc["connected_count"], connected, "extremal connected count")
    results = doc["results"]
    for name, res in results.items():
        checks.equal(res["evaluated"] + res["undefined"], connected,
                     f"extremal {name} evaluated + undefined")
    length = results["char_length"]
    # K_n has mean distance 1 and the path the largest, (n + 1) / 3
    checks.equal(_fraction(length["min"]), Fraction(1), "extremal length min")
    checks.equal(_fraction(length["max"]), Fraction(n + 1, 3), "extremal length max")
    checks.equal(len(length["min_witness_edges"]), n * (n - 1) // 2,
                 "extremal length min witness is complete")
    path = nx_graph(n, length["max_witness_edges"])
    checks.expect(nx.is_tree(path) and max(d for _, d in path.degree()) <= 2,
                  "extremal length max witness is a path")
    # every tree has one spanning tree, K_n has n^(n-2) (Cayley)
    logc = results["log_complexity"]
    checks.close(logc["min"], math.log(n), 1e-12, "extremal log_complexity min")
    checks.close(logc["max"], (n - 1) * math.log(n), 1e-12, "extremal log_complexity max")
    if n >= 4:
        # only K_n lacks a vertex at distance 2; s(x) lies in [-log(n-2), log(n-2)]
        # and both ends are reached (K_n minus an edge, the star)
        curv = results["curvature_action"]
        checks.equal(curv["undefined"], 1, "extremal curvature undefined count")
        checks.close(curv["min"], -math.log(n - 2), 1e-12, "extremal curvature min")
        checks.close(curv["max"], math.log(n - 2), 1e-12, "extremal curvature max")


# -- continuum -----------------------------------------------------------------

def check_continuum(results, samples, checks):
    """`results` maps (space, quantity) to the parsed JSON of `netfunc continuum`."""
    for key, doc in results.items():
        label = "continuum {} {}".format(*key)
        checks.equal(doc["samples"], samples, f"{label} samples")
        err = doc["std_error"]
        checks.expect(err > 0 and abs(doc["estimate"] - CLOSED_FORMS[key])
                      <= STANDARD_ERRORS * err,
                      f"{label}: {doc['estimate']!r} not within {STANDARD_ERRORS} "
                      f"standard errors ({err!r}) of {CLOSED_FORMS[key]!r}")
