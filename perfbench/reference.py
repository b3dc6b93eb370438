"""Reference computations the benchmark checks the program against.

Nothing here imports spillnet: each routine is written from the model's
definition, so an error in a package kernel cannot cancel out of a check.

- `integrate`: classic RK4 on raw qualities q, rescaled to unit sum after
  every step (the scale is carried in a log, and alpha is divided by it,
  which is exact because shares are homogeneous of degree zero).
- `reachability`, `strong_components`, `weak_components`: BFS, Tarjan and
  union-find on adjacency lists.
- `perron_check`: the Perron root and Perron vector of diag((s S)^nu) F
  on a support, and the allocation at that vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def shares(p: np.ndarray, nu: float) -> np.ndarray:
    """s_i = p_i^(1/(1-nu)) / sum_j p_j^(1/(1-nu)) for p >= 0, not all 0."""
    w = (p / p.max()) ** (1.0 / (1.0 - nu))
    return w / w.sum()


@dataclass(frozen=True)
class Samples:
    times: np.ndarray
    shares: np.ndarray
    sector_growth: np.ndarray


def integrate(f, q0, nu, alpha, s_total, t_end, step, sample_every=10) -> Samples:
    """Raw-coordinate RK4 of qdot = (s S)^nu (F q + alpha).

    Samples every `sample_every` steps and at `t_end`, which must be a
    whole number of steps. Returns shares and the sector growth rate
    sum(qdot) / sum(q) at each sample.
    """
    f = np.asarray(f, dtype=float)
    n_steps = int(round(t_end / step))
    if abs(n_steps * step - t_end) > 1e-9 * t_end:
        raise ValueError("t_end must be a whole number of steps")

    def field(q, a):
        p = f @ q + a
        if p.min() < 0.0:
            raise ValueError("negative productivity in the reference integration")
        return (shares(p, nu) * s_total) ** nu * p

    def observe(q, log_scale):
        p = f @ q + alpha * math.exp(-log_scale)
        s = shares(p, nu)
        return s, float(((s * s_total) ** nu * p).sum())

    q = np.asarray(q0, dtype=float)
    log_scale = math.log(q.sum())
    q = q / q.sum()
    times, sh, growth = [0.0], [], []
    s, g = observe(q, log_scale)
    sh.append(s)
    growth.append(g)
    for k in range(1, n_steps + 1):
        a = alpha * math.exp(-log_scale)
        k1 = field(q, a)
        k2 = field(q + 0.5 * step * k1, a)
        k3 = field(q + 0.5 * step * k2, a)
        k4 = field(q + step * k3, a)
        q = q + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        total = q.sum()
        q = q / total
        log_scale += math.log(total)
        if k % sample_every == 0 or k == n_steps:
            s, g = observe(q, log_scale)
            times.append(t_end if k == n_steps else k * step)
            sh.append(s)
            growth.append(g)
    return Samples(np.array(times), np.vstack(sh), np.array(growth))


def window_means(samples: Samples, window: float) -> tuple[np.ndarray, float]:
    """Mean shares and mean sector growth over the samples with
    t >= t_end - window."""
    keep = samples.times >= samples.times[-1] - window
    return samples.shares[keep].mean(axis=0), float(samples.sector_growth[keep].mean())


def out_edges(f: np.ndarray) -> list[list[int]]:
    """Edge j -> i iff f[i, j] != 0 (row i receives from column j)."""
    nz = np.asarray(f) != 0
    return [np.flatnonzero(nz[:, j]).tolist() for j in range(nz.shape[0])]


def reachability(f: np.ndarray) -> np.ndarray:
    """reach[i, j] iff a path of length >= 1 leads from j to i, by BFS."""
    adj = out_edges(f)
    n = len(adj)
    reach = np.zeros((n, n), dtype=bool)
    for j in range(n):
        seen = set()
        frontier = list(adj[j])
        while frontier:
            i = frontier.pop()
            if i not in seen:
                seen.add(i)
                frontier.extend(adj[i])
        reach[list(seen), j] = True
    return reach


def strong_components(f: np.ndarray) -> list[frozenset[int]]:
    """Tarjan's strongly connected components, iteratively."""
    adj = out_edges(f)
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, pos = work.pop()
            if pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            if pos < len(adj[v]):
                work.append((v, pos + 1))
                w = adj[v][pos]
                if index[w] < 0:
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.add(w)
                    if w == v:
                        break
                comps.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def weak_components(f: np.ndarray) -> list[frozenset[int]]:
    """Components with edge direction ignored, by union-find."""
    n = f.shape[0]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in np.argwhere(np.asarray(f) != 0):
        parent[find(int(i))] = find(int(j))
    groups: dict[int, set[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in groups.values()]


def cores(f: np.ndarray) -> set[frozenset[int]]:
    """Cycles that can drive growth: components of size >= 2 and
    technologies with a positive self-spillover."""
    found = {c for c in strong_components(f) if len(c) >= 2}
    found |= {frozenset({i}) for i in range(f.shape[0]) if f[i, i] > 0}
    return found


def irreducible(f: np.ndarray) -> bool:
    comps = strong_components(f)
    if f.shape[0] == 1:
        return bool(f[0, 0] != 0)
    return len(comps) == 1


def perron_check(f, support, shares_inf, growth, nu, s_total) -> tuple[float, float]:
    """For M = diag((s S)^nu) F on the support, s the asymptotic shares:
    (|g - rho| / rho, max |shares(F v) - s|), with rho the Perron root of M
    and v its Perron vector, which is z* up to scale. The second number is
    zero exactly when s is the allocation at the fixed point z* = v."""
    idx = sorted(support)
    sub = np.asarray(f, dtype=float)[np.ix_(idx, idx)]
    s = np.asarray(shares_inf, dtype=float)[idx]
    m = np.diag((s * s_total) ** nu) @ sub
    vals, vecs = np.linalg.eig(m)
    k = int(np.argmax(vals.real))
    rho = float(vals[k].real)
    v = np.abs(vecs[:, k].real)
    return abs(growth - rho) / rho, float(np.abs(shares(sub @ v, nu) - s).max())


def witness_holds(f: np.ndarray, k: int, tol: float = 1e-9) -> bool:
    """F^k >= -tol on the unit max-norm scale, by one direct power."""
    p = np.linalg.matrix_power(np.asarray(f, dtype=float), k)
    scale = np.abs(p).max()
    return bool(scale == 0.0 or p.min() / scale >= -tol)
