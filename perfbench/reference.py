"""Independent reference for every output the benchmark checks.

Written from the documented definitions (the Philox stream key
``(master_seed, stream_id)``, the DGP equations, the statistic formulas and
the limit functionals), without calling breaklab, so that a faster program
that computes something else cannot pass the checks.  Everything is batched
across replications or draws with plain numpy.
"""

import math

import numpy as np

#: stream-id offset of limit-process draws (breaklab.rng)
LIMIT_OFFSET = 2**63

#: relative tolerance for statistics and quantiles recomputed here; the two
#: implementations differ only in summation order
RTOL = 1e-9


def stream(master_seed, stream_id):
    key = np.array([master_seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def type1_quantile(sorted_values, level):
    n = sorted_values.shape[0]
    idx = min(max(int(math.ceil(level * n)) - 1, 0), n - 1)
    return float(sorted_values[idx])


# ---------------------------------------------------------------------------
# data-generating processes
# ---------------------------------------------------------------------------

def _coefs(cfg):
    T = cfg["T"]
    c = float(cfg.get("c", 0.0))
    pre = cfg.get("beta_pre")
    post = cfg.get("beta_post")
    if pre is None and post is None and cfg["family"] == "ar1":
        pre = post = [1.0 + c / T]
    pre = pre if pre is not None else (post if post is not None else [0.0])
    post = post if post is not None else pre
    return np.asarray(pre, float), np.asarray(post, float)


def _break_index(T, s):
    if s == 0.0:
        return 0
    if s == 1.0:
        return T
    return min(max(math.floor(T * s), 1), T - 1)


def _ar(shocks, rho, start):
    """x_t = rho x_{t-1} + shock_t along the last axis, x_0 = start."""
    out = np.empty_like(shocks)
    prev = np.broadcast_to(np.asarray(start, float), shocks.shape[:-1]).copy()
    for t in range(shocks.shape[-1]):
        prev = rho * prev + shocks[..., t]
        out[..., t] = prev
    return out


def samples(cfg, master_seed, reps):
    """(y, X) for replications ``reps`` of one DGP, stacked: (R, T), (R, T, p)."""
    family, T = cfg["family"], int(cfg["T"])
    se2 = float(cfg.get("sigma_eps_sq", 1.0))
    su2 = float(cfg.get("sigma_u_sq", 1.0))
    seu = float(cfg.get("sigma_eps_u", 0.0))
    c, mu, x0 = float(cfg.get("c", 0.0)), float(cfg.get("mu", 0.0)), float(cfg.get("x0", 0.0))
    pre, post = _coefs(cfg)
    k = _break_index(T, float(cfg.get("s", 0.0)))
    coef = np.where(np.arange(T)[:, None] < k, pre, post)  # (T, p)
    R, p = len(reps), pre.shape[0]

    def pairs(n):
        a = math.sqrt(se2)
        b = seu / a
        cc = math.sqrt(max(su2 - seu * seu / se2, 0.0))
        z = np.stack([stream(master_seed, r).standard_normal((n, 2)) for r in reps])
        return a * z[..., 0], b * z[..., 0] + cc * z[..., 1]

    if family == "location":
        eps = math.sqrt(se2) * np.stack([stream(master_seed, r).standard_normal(T) for r in reps])
        return coef[:, 0] + eps, np.ones((R, T, 1))
    if family == "linear_regression":
        X = np.ones((R, T, p))
        eps = np.empty((R, T))
        for i, r in enumerate(reps):
            g = stream(master_seed, r)
            if p > 1:
                X[i, :, 1:] = g.standard_normal((T, p - 1))
            eps[i] = math.sqrt(se2) * g.standard_normal(T)
        return np.sum(X * coef, axis=2) + eps, X
    if family == "cointegration":
        eps, u = pairs(T)
        x = _ar(eps, 1.0, x0)
        return coef[:, 0] * x + u, x[..., None]
    if family == "predictive_lur":
        eps, u = pairs(T + 1)
        eps, u = eps[:, 1:], u[:, 1:]
        x = _ar(u, 1.0 + c / T, x0)
        x_lag = np.concatenate([np.full((R, 1), x0), x[:, :-1]], axis=1)
        y = mu + coef[:, 0] * x_lag + eps
        return y, np.stack([np.ones((R, T)), x_lag], axis=2)
    if family == "ar1":
        u = math.sqrt(su2) * np.stack([stream(master_seed, r).standard_normal(T) for r in reps])
        if 0 < k < T:
            seg1 = _ar(u[:, :k], pre[0], x0)
            z = np.concatenate([seg1, _ar(u[:, k:], post[0], seg1[:, -1])], axis=1)
        else:
            z = _ar(u, pre[0] if k == T else post[0], x0)
        z_lag = np.concatenate([np.full((R, 1), x0), z[:, :-1]], axis=1)
        return z, z_lag[..., None]
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# break statistics, one sup value per replication
# ---------------------------------------------------------------------------

def _k_range(T, p, nu):
    k_lo = max(int(math.floor(nu * T + 1e-9)), p)
    return np.arange(k_lo, T - k_lo + 1)


def stat_paths(y, X, stat, nu):
    """Candidate indices and the statistic path of each sample: (m,), (R, m)."""
    R, T, p = X.shape
    G = np.einsum("rti,rtj->rij", X, X)
    b = np.einsum("rti,rt->ri", X, y)
    beta = np.linalg.solve(G, b[..., None])[..., 0]
    res = y - np.einsum("rti,ri->rt", X, beta)
    s2 = np.mean(res * res, axis=1)
    ks = _k_range(T, p, nu)
    if stat in ("cusum", "cusumsq"):
        v = res if stat == "cusum" else res * res
        S = np.cumsum(v, axis=1)
        centered = S[:, ks - 1] - (ks / T) * S[:, -1:]
        scale = s2 if stat == "cusum" else np.mean((v - v.mean(axis=1, keepdims=True)) ** 2, axis=1)
        return ks, centered / (np.sqrt(scale) * math.sqrt(T))[:, None]
    if stat == "wald":
        G1 = np.cumsum(np.einsum("rti,rtj->rtij", X, X), axis=1)[:, ks - 1]
        b1 = np.cumsum(X * y[..., None], axis=1)[:, ks - 1]
        G2 = G[:, None] - G1
        b2 = b[:, None] - b1
        d = np.linalg.solve(G1, b1[..., None]) - np.linalg.solve(G2, b2[..., None])
        V = np.linalg.inv(G1) + np.linalg.inv(G2)
        W = np.einsum("rki,rki->rk", d[..., 0], np.linalg.solve(V, d)[..., 0])
        return ks, W / s2[:, None]
    raise ValueError(f"no reference for statistic {stat!r}")


def sup_statistics(y, X, stats, nus):
    """Sup of each statistic for a batch of samples (absolute for the CUSUMs)."""
    out = {}
    for stat in stats:
        _, path = stat_paths(y, X, stat, nus[stat])
        out[stat] = np.max(path if stat == "wald" else np.abs(path), axis=1)
    return out


# ---------------------------------------------------------------------------
# limit functionals
# ---------------------------------------------------------------------------

def _trim(n, nu, interior):
    j_lo = int(math.ceil(nu * n - 1e-9))
    j_hi = int(math.floor((1.0 - nu) * n + 1e-9))
    if interior:
        j_lo, j_hi = max(j_lo, 1), min(j_hi, n - 1)
    return max(j_lo, 1), j_hi


def _bridge(z):
    n = z.shape[-1]
    w = np.cumsum(z, axis=-1) / math.sqrt(n)
    return w - (np.arange(1, n + 1) / n) * w[..., -1:]


def limit_draws(kind, master_seed, n_draws, n_steps, p=1, nu=0.0, c=None, corr=None, block=512):
    """Draws of one limit functional, draw i from limit stream i."""
    n = n_steps
    out = np.empty(n_draws)
    for lo in range(0, n_draws, block):
        ids = range(lo, min(lo + block, n_draws))
        shape = {"supqp": (p, n), "supabslurcusum": (2, n)}.get(kind, (n,))
        z = np.stack([stream(master_seed, LIMIT_OFFSET + i).standard_normal(shape) for i in ids])
        if kind == "supabsbb":
            j_lo, j_hi = _trim(n, nu, interior=False)
            vals = np.max(np.abs(_bridge(z)[:, j_lo - 1 : j_hi]), axis=1)
        elif kind == "supqp":
            j_lo, j_hi = _trim(n, nu, interior=True)
            frac = np.arange(j_lo, j_hi + 1) / n
            sq = np.sum(_bridge(z) ** 2, axis=1)[:, j_lo - 1 : j_hi]
            vals = np.max(sq / (frac * (1.0 - frac)), axis=1)
        elif kind == "supabslurcusum":
            dt = 1.0 / n
            dbe = z[:, 0] * math.sqrt(dt)
            dbu = (corr * z[:, 0] + math.sqrt(1.0 - corr * corr) * z[:, 1]) * math.sqrt(dt)
            decay = math.exp(c * dt)
            lam = 1.0 if c == 0.0 else math.sqrt((math.exp(2 * c * dt) - 1.0) / (2 * c * dt))
            J = _ar(lam * dbu, decay, 0.0)
            J_prev = np.concatenate([np.zeros((len(ids), 1)), J[:, :-1]], axis=1)
            int_jsq = np.maximum(np.sum(J_prev * J_prev, axis=1) * dt, 1e-300)
            corr_path = (np.cumsum(J_prev * dbu, axis=1) / int_jsq[:, None]) * np.cumsum(J_prev, axis=1) * dt
            we = np.cumsum(dbe, axis=1)
            frac = np.arange(1, n + 1) / n
            path = (we - frac * we[:, -1:]) - (corr_path - frac * corr_path[:, -1:])
            vals = np.max(np.abs(path), axis=1)
        elif kind == "cvmp1trace":
            bb = _bridge(z)
            vals = np.sum(bb[:, :-1] ** 2, axis=1) / n
        else:
            raise ValueError(f"unknown functional kind {kind!r}")
        out[lo : lo + len(ids)] = vals
    return out


def quantiles(kind, levels, master_seed, n_draws, n_steps, **params):
    draws = np.sort(limit_draws(kind, master_seed, n_draws, n_steps, **params))
    return {float(lv): type1_quantile(draws, lv) for lv in levels}
