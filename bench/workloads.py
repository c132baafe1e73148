"""The four workloads: their seeded inputs, the CLI calls they time, and the checks.

A workload makes whole rounds of one kind of call to ``hfcopula.cli.main``.
Call ``k`` of a run is fixed by the run's seed and ``k``; call 0 is the
untimed first call.  After every call the workload reads what the call
wrote and checks it against ``oracles``, or against a property the method
must have; ``finish`` checks what only the pooled calls can show.

Checks return a list of problems (empty when the output is right) and a
count of failed operations, so that a test can feed them a perturbed
output and see them object.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import norm

import oracles

Z975 = float(norm.ppf(0.975))
# u + v - 1 rounds: at v = 1 it can exceed u by an ulp
FRECHET_TOL = 1e-12


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV with a header row, as float arrays."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path.name}: {data.shape[1]} columns under a header of {len(header)}")
    return {name: data[:, i] for i, name in enumerate(header)}


class Workload:
    """Base class: one kind of CLI call, repeated in whole rounds."""

    name = ""
    # nominal seconds per call on a 2-core box; sets the round count of a
    # traced run, which must not depend on timing
    call_s = 1.0
    # timed calls a run makes however short ``--seconds`` is: the pooled
    # checks need the first call and at least this many more
    min_calls = 1
    items_per_call = 1
    ops_per_call = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rng = np.random.default_rng(seed)
        # largest kernel error against the oracle over the points checked
        self.kernel_err = 0.0
        # (s, t, values) of psi_grid calls a traced run captured
        self.grid_calls: list[tuple[float, float, np.ndarray]] = []

    def argv(self, k: int, out: Path) -> list[str]:
        raise NotImplementedError

    def input_bytes(self) -> int:
        return 0

    def check_call(self, k: int, out: Path) -> tuple[int, list[str]]:
        """(failed operations, problems) for what call ``k`` wrote to ``out``."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks on everything the run's calls wrote together."""
        return []

    def note_err(self, err) -> None:
        err = np.asarray(err, dtype=float)
        if err.size:
            self.kernel_err = max(self.kernel_err, float(np.max(err)))


class BlockedStudy(Workload):
    """Calls that are consecutive slices of one fixed Monte Carlo study.

    Seeds 0..STUDY-1 are cut into blocks of ``REPS`` replications; call k
    runs block (start + k) mod (STUDY / REPS) with ``--seed block*REPS``,
    where the run's seed picks ``start``.
    """

    REPS = 1
    STUDY = 1

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.blocks = self.STUDY // self.REPS
        self.start = int(self.rng.integers(self.blocks))

    def block(self, k: int) -> int:
        return (self.start + k) % self.blocks


class QqCir(BlockedStudy):
    """The paper's QQ study: CIR defaults, n = 10^4, (s,t,u,v) = (0.3,0.7,0.7,0.3).

    The calls of a run are slices of the one 1000-replication study that
    criteria 5-7 judge.
    """

    name = "qq_cir"
    REPS = 25
    STUDY = 1000
    N = 10_000
    S, T, U, V = 0.3, 0.7, 0.7, 0.3
    # pooled CLT checks use at most this many calls: every window of 1-26
    # consecutive blocks of the study passes them, and some of 27-36 do not
    POOL_CALLS = 24
    SAMPLED = 3
    call_s = 1.7
    items_per_call = REPS
    ops_per_call = REPS

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.pooled: dict[int, dict[str, np.ndarray]] = {}

    def argv(self, k: int, out: Path) -> list[str]:
        return ["--command", "qq", "--n", str(self.N), "--replications", str(self.REPS),
                "--seed", str(self.block(k) * self.REPS),
                "--s", str(self.S), "--t", str(self.T), "--u", str(self.U), "--v", str(self.V),
                "--workers", "1", "--out", str(out)]

    def check_call(self, k: int, out: Path) -> tuple[int, list[str]]:
        problems = []
        reps = read_csv(out / "qq_replications.csv")
        stats = read_csv(out / "qq_statistics.csv")
        meta = json.loads((out / "qq_meta.json").read_text(encoding="utf-8"))
        if reps["replication"].size != self.REPS or not np.array_equal(
                reps["replication"], np.arange(self.REPS)):
            return self.REPS, [f"qq call {k}: replications column is not 0..{self.REPS - 1}"]
        if meta["spec"]["seed"] != self.block(k) * self.REPS:
            problems.append(f"qq call {k}: meta seed {meta['spec']['seed']}")
        kept = np.isfinite(reps["statistic"])
        failed = int(self.REPS - kept.sum())
        c_hat, c_true, v_hat = reps["c_hat"][kept], reps["c_true"][kept], reps["v_hat"][kept]
        if not np.all(v_hat > 0.0):
            problems.append(f"qq call {k}: kept replication with v_hat <= 0")
        stat = np.sqrt(self.N / v_hat) * (c_hat - c_true)
        if not np.allclose(reps["statistic"][kept], stat, rtol=1e-9, atol=1e-12):
            problems.append(f"qq call {k}: statistic is not sqrt(n/v_hat)(c_hat - c_true)")
        m = int(kept.sum())
        if stats["statistic"].size != m or not np.array_equal(
                stats["statistic"], np.sort(reps["statistic"][kept])):
            problems.append(f"qq call {k}: qq_statistics.csv is not the sorted kept statistics")
        elif not np.allclose(stats["normal_quantile"],
                             norm.ppf((np.arange(1, m + 1) - 0.5) / m), rtol=0, atol=1e-9):
            problems.append(f"qq call {k}: normal quantiles off the (k - 0.5)/m plotting positions")
        if meta["kept"] != m:
            problems.append(f"qq call {k}: meta kept {meta['kept']} != {m}")
        if len(self.pooled) < self.POOL_CALLS:
            self.pooled.setdefault(self.block(k), reps)
        return failed, problems

    def finish(self) -> list[str]:
        return self.clt_problems() + self.sampled_problems()

    def clt_problems(self) -> list[str]:
        """Criteria 5-7 on the pooled replications.

        The criteria's bands are set for the study's 1000 replications;
        for m pooled replications each band widens by sqrt(1000/m), which
        keeps its width in standard errors.
        """
        if not self.pooled:
            return ["qq: no replications pooled"]
        rep = {c: np.concatenate([r[c] for r in self.pooled.values()])
               for c in ("c_hat", "c_true", "v_hat", "statistic")}
        kept = np.isfinite(rep["statistic"])
        m = int(kept.sum())
        if m < 2:
            return [f"qq: only {m} kept replications pooled"]
        widen = math.sqrt(self.STUDY / m)
        stat = rep["statistic"][kept]
        problems = []
        coverage = float(np.mean(np.abs(stat) <= Z975))
        if not 0.95 - 0.03 * widen <= coverage <= 0.95 + 0.02 * widen:
            problems.append(f"qq: coverage {coverage:.4f} outside the band for m={m}")
        ks = oracles.normal_ks(stat)
        if not ks < 0.06 * widen:
            problems.append(f"qq: KS distance {ks:.4f} >= {0.06 * widen:.4f} for m={m}")
        scaled_err = math.sqrt(self.N) * (rep["c_hat"][kept] - rep["c_true"][kept])
        ratio = float(np.var(scaled_err, ddof=1) / np.mean(rep["v_hat"][kept]))
        if not abs(ratio - 1.0) <= 0.15 * widen:
            problems.append(f"qq: empirical/feasible variance ratio {ratio:.4f} for m={m}")
        return problems

    def sampled_problems(self) -> list[str]:
        """Recompute a few pooled replications from their simulated paths."""
        from hfcopula.simulate import DEFAULT_CIR, SimConfig, simulate_scenario

        problems = []
        pick = np.random.default_rng(self.seed + 1)
        blocks = sorted(self.pooled)
        for _ in range(self.SAMPLED):
            b = blocks[int(pick.integers(len(blocks)))]
            r = int(pick.integers(self.REPS))
            row = {c: float(v[r]) for c, v in self.pooled[b].items()}
            scn = simulate_scenario(DEFAULT_CIR, SimConfig(n=self.N, seed=b * self.REPS + r))
            x = np.asarray(scn.path.values)
            i_s, i_t = (self.N * 3) // 10, (self.N * 7) // 10
            (rv_s, rv_t), (q_s, q_t) = oracles.realized_measures(x, self.N, (i_s, i_t))
            c_true = oracles.copula(scn.true_T[i_s], scn.true_T[i_t], self.U, self.V)[0]
            c_hat = oracles.copula(rv_s, rv_t, self.U, self.V)[0]
            v_hat = float(oracles.plackett_variance(rv_s, rv_t, q_s, q_t, self.U, self.V))
            errs = [abs(row["c_true"] - c_true), abs(row["c_hat"] - c_hat)]
            self.note_err(errs)
            seed = b * self.REPS + r
            if max(errs) > 1e-8:
                problems.append(f"qq seed {seed}: c_true/c_hat off the oracle by {max(errs):.2e}")
            if not abs(row["v_hat"] - v_hat) <= 1e-6 * v_hat:
                problems.append(f"qq seed {seed}: v_hat {row['v_hat']!r} vs Plackett {v_hat!r}")
        return problems


class RhoConst(BlockedStudy):
    """Criterion 4's settings: constant variance 1, n in (2500, 10000), 19 times, 101^2 grid.

    The calls of a run are slices of the 200-replication study of criterion 4.
    """

    name = "rho_const"
    REPS = 2
    STUDY = 200
    N_LIST = (2500, 10_000)
    TIMES = tuple(range(2, 21))  # clock times k/20, k = 2..20: tau 0.1, step 0.05
    SUB_PAIRS = 12
    SUB_UV = np.arange(10, 100, 10)  # cells u, v = 0.1..0.9 of the 101-point grid
    call_s = 3.3
    min_calls = 5  # every window of 6 or more blocks passes the ratio check
    items_per_call = REPS * len(N_LIST)
    ops_per_call = REPS * len(N_LIST)

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.samples: dict[int, dict[int, np.ndarray]] = {}

    def argv(self, k: int, out: Path) -> list[str]:
        return ["--command", "rho", "--constant-vol", "1",
                "--n-list", ",".join(str(n) for n in self.N_LIST),
                "--replications", str(self.REPS), "--seed", str(self.block(k) * self.REPS),
                "--tau", "0.1", "--st-step", "0.05", "--uv-grid", "101",
                "--workers", "1", "--out", str(out)]

    def check_call(self, k: int, out: Path) -> tuple[int, list[str]]:
        problems = []
        failed = 0
        meta = json.loads((out / "rho_meta.json").read_text(encoding="utf-8"))
        per_n = {}
        for n in self.N_LIST:
            tab = read_csv(out / f"rho_samples_n{n}.csv")
            rho = tab["rho"]
            if rho.size != self.REPS or not np.array_equal(tab["replication"],
                                                           np.arange(self.REPS)):
                return self.ops_per_call, [f"rho call {k}: n={n} table is not {self.REPS} rows"]
            bad = ~(np.isfinite(rho) & (rho > 0.0) & (rho <= 1.0))
            failed += int(bad.sum())
            if bad.any():
                problems.append(f"rho call {k}: n={n} samples outside (0, 1]: {rho[bad]}")
            if meta["per_n"][str(n)]["median_rho"] != float(np.median(rho)):
                problems.append(f"rho call {k}: n={n} meta median is not the samples' median")
            per_n[n] = rho
        self.samples.setdefault(self.block(k), per_n)
        return failed, problems

    def finish(self) -> list[str]:
        problems = []
        if not self.samples:
            return ["rho: no samples pooled"]
        med = {n: float(np.median(np.concatenate([s[n] for s in self.samples.values()])))
               for n in self.N_LIST}
        ratio = med[self.N_LIST[0]] / med[self.N_LIST[1]]
        if not 1.5 <= ratio <= 2.7:
            problems.append(f"rho: pooled median ratio n=2500/n=10000 is {ratio:.3f}")
        return problems + self.subgrid_problems() + self.kernel_problems()

    def subgrid_problems(self) -> list[str]:
        """The sup over the full grid is at least the sup over a subgrid, recomputed."""
        from hfcopula.simulate import ConstantVol, SimConfig, simulate_scenario

        pick = np.random.default_rng(self.seed + 1)
        b = sorted(self.samples)[int(pick.integers(len(self.samples)))]
        r = int(pick.integers(self.REPS))
        n = self.N_LIST[int(pick.integers(len(self.N_LIST)))]
        scn = simulate_scenario(ConstantVol(1.0), SimConfig(n=n, seed=b * self.REPS + r))
        x = np.asarray(scn.path.values)
        idx = [(n * k) // 20 for k in self.TIMES]
        rv = oracles.realized_measures(x, n, idx)[0]
        true_t = [i / n for i in idx]
        pairs = [(i, j) for i in range(len(idx)) for j in range(i + 1, len(idx))]
        chosen = pick.choice(len(pairs), size=self.SUB_PAIRS, replace=False)
        uu, vv = np.meshgrid(self.SUB_UV / 100.0, self.SUB_UV / 100.0, indexing="ij")
        worst = 0.0
        for c in chosen:
            i, j = pairs[c]
            est = oracles.copula(rv[i], rv[j], uu.ravel(), vv.ravel())
            true = oracles.copula(true_t[i], true_t[j], uu.ravel(), vv.ravel())
            worst = max(worst, float(np.max(np.abs(est - true))))
        sample = float(self.samples[b][n][r])
        if sample < worst - 1e-8:
            return [f"rho seed {b * self.REPS + r} n={n}: statistic {sample!r} below the "
                    f"subgrid recomputation {worst!r}"]
        return []

    def kernel_problems(self) -> list[str]:
        """Grid kernel values the traced run captured, against the oracle."""
        problems = []
        sub = np.ix_(self.SUB_UV, self.SUB_UV)
        uu, vv = np.meshgrid(self.SUB_UV / 100.0, self.SUB_UV / 100.0, indexing="ij")
        for s, t, grid in self.grid_calls:
            err = np.abs(grid[sub].ravel() - oracles.copula(s, t, uu.ravel(), vv.ravel()))
            self.note_err(err)
            if err.max() > 1e-8:
                problems.append(f"rho: psi_grid at ({s!r}, {t!r}) off the oracle "
                                f"by {err.max():.2e}")
        return problems


class EstimateCli(Workload):
    """``--command estimate`` on a 10^5-step path with constant variance 1.

    Every call reads the same path and one of ``SETS`` query files, in
    turn.  Each file holds ``INTERIOR`` random queries, ``BOUNDARY`` on the
    edge of the unit square and the fixed ``TAIL`` queries with v ~ 1e-12,
    whose kernel value the scalar route gets wrong (it is accurate to
    1e-10 absolute only), so each of them counts as a failed operation.
    """

    name = "estimate_cli"
    N = 100_000
    SETS = 4
    INTERIOR = 182
    BOUNDARY = 10
    TAIL = ((0.3, 0.7, 0.5, 1e-12), (0.3, 0.7, 0.2, 1e-12), (0.3, 0.7, 0.8, 1e-12),
            (0.1, 0.9, 0.5, 1e-12), (0.5, 0.6, 0.5, 1e-12), (0.2, 0.4, 0.9, 2e-12),
            (0.6, 0.95, 0.3, 5e-13), (0.05, 0.5, 0.6, 1e-12))
    TAIL_RTOL = 1e-3
    MIN_GAP = 5000  # grid steps between s and t
    call_s = 0.7
    items_per_call = INTERIOR + BOUNDARY + len(TAIL)
    ops_per_call = items_per_call

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        n = self.N
        self.x = np.concatenate(([0.0], np.cumsum(self.rng.standard_normal(n) / math.sqrt(n))))
        self.path_csv = work / "path.csv"
        with open(self.path_csv, "w", encoding="utf-8") as fh:
            fh.write("time,X\n")
            fh.writelines(f"{i / n!r},{float(v)!r}\n" for i, v in enumerate(self.x))
        self.query_sets = [self._queries() for _ in range(self.SETS)]
        self.q_csvs = [work / f"queries{i}.csv" for i in range(self.SETS)]
        for path, queries in zip(self.q_csvs, self.query_sets):
            # query times sit half a step past a grid time, so floor(n t) is unambiguous
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("s,t,u,v\n")
                fh.writelines(f"{(i + 0.5) / n!r},{(j + 0.5) / n!r},{u!r},{v!r}\n"
                              for i, j, u, v, _ in queries)
        self._expected: dict[int, dict[str, np.ndarray]] = {}

    def _queries(self) -> list[tuple[int, int, float, float, str]]:
        """Rows (grid index of s, grid index of t, u, v, kind) in a seeded order.

        Interior queries are stratified: one draw in each of ``INTERIOR``
        equal slices of rho = sqrt(s/t) in [0.3, 0.97], and of u and of v in
        [0.02, 0.98], in independent orders.  The quadrature's cost falls
        from about 10 ms at rho = 0.3 to 1 ms at 0.95, so with a plain
        uniform draw the cost of a call ranged over 15% across ten seeds.
        """
        n, m = self.N, self.INTERIOR

        def strata(lo, hi):
            return lo + (hi - lo) * (self.rng.permutation(m) + self.rng.uniform(size=m)) / m

        rows = []
        for rho, u, v in zip(strata(0.3, 0.97), strata(0.02, 0.98), strata(0.02, 0.98)):
            # smallest t with s = rho^2 t >= 0.05 and t - s >= MIN_GAP steps
            t_min = max(0.05 / rho ** 2, self.MIN_GAP / n / (1.0 - rho ** 2))
            j = int(self.rng.integers(math.ceil(t_min * n), n))
            i = int(rho ** 2 * j)
            rows.append((i, j, float(u), float(v), "interior"))
        edges = ((0.0, None), (None, 0.0), (1.0, None), (None, 1.0), (0.0, 1.0))
        for b in range(self.BOUNDARY):
            i = int(self.rng.integers(5000, n - 2 * self.MIN_GAP))
            j = int(self.rng.integers(i + self.MIN_GAP, n))
            fu, fv = edges[b % len(edges)]
            u = fu if fu is not None else float(self.rng.uniform(0.02, 0.98))
            v = fv if fv is not None else float(self.rng.uniform(0.02, 0.98))
            rows.append((i, j, u, v, "boundary"))
        for s, t, u, v in self.TAIL:
            rows.append((round(s * n), round(t * n), u, v, "tail"))
        return [rows[i] for i in self.rng.permutation(len(rows))]

    def argv(self, k: int, out: Path) -> list[str]:
        return ["--command", "estimate", "--input", str(self.path_csv),
                "--queries", str(self.q_csvs[k % self.SETS]), "--workers", "1",
                "--out", str(out)]

    def input_bytes(self) -> int:
        # the query files differ in length by a few bytes; count the first
        return self.path_csv.stat().st_size + self.q_csvs[0].stat().st_size

    def expected(self, set_index: int) -> dict[str, np.ndarray]:
        """Oracle columns for one query file, computed once per run."""
        if set_index not in self._expected:
            queries = self.query_sets[set_index]
            exp = {"kind": np.array([q[4] for q in queries]),
                   "u": np.array([q[2] for q in queries]),
                   "v": np.array([q[3] for q in queries])}
            for end, col in ((0, "s"), (1, "t")):
                exp[f"rv_{col}"], exp[f"q_{col}"] = oracles.realized_measures(
                    self.x, self.N, [q[end] for q in queries])
            edge = exp["kind"] == "boundary"
            u, v = exp["u"], exp["v"]
            exp["c"] = np.where(u == 0.0, 0.0, np.where(v == 1.0, u, np.where(v == 0.0, 0.0, v)))
            exp["c"][~edge] = [oracles.copula(exp["rv_s"][i], exp["rv_t"][i], u[i], v[i])[0]
                               for i in np.nonzero(~edge)[0]]
            exp["var"] = np.zeros(len(queries))
            exp["var"][~edge] = oracles.plackett_variance(
                *(exp[c][~edge] for c in ("rv_s", "rv_t", "q_s", "q_t", "u", "v")))
            self._expected[set_index] = exp
        return self._expected[set_index]

    def check_call(self, k: int, out: Path) -> tuple[int, list[str]]:
        est = read_csv(out / "estimates.csv")
        queries = self.query_sets[k % self.SETS]
        exp = self.expected(k % self.SETS)
        q = len(queries)
        if est["c_hat"].size != q:
            return q, [f"estimate call {k}: {est['c_hat'].size} rows for {q} queries"]
        problems = []
        n = self.N
        echo = np.array([[(i + 0.5) / n, (j + 0.5) / n, u, v] for i, j, u, v, _ in queries])
        if not np.array_equal(np.column_stack([est["s"], est["t"], est["u"], est["v"]]), echo):
            problems.append(f"estimate call {k}: s,t,u,v do not echo the queries")
        for key in ("rv_s", "rv_t"):
            if not np.allclose(est[key], exp[key], rtol=1e-12, atol=0.0):
                problems.append(f"estimate call {k}: {key} differs from the increments' sum")
        fre_lo, fre_hi = oracles.frechet_bounds(exp["u"], exp["v"])
        fre_lo, fre_hi = fre_lo - FRECHET_TOL, fre_hi + FRECHET_TOL
        if not np.all((fre_lo <= est["ci_lo"]) & (est["ci_lo"] <= est["c_hat"])
                      & (est["c_hat"] <= est["ci_hi"]) & (est["ci_hi"] <= fre_hi)):
            problems.append(f"estimate call {k}: ci_lo <= c_hat <= ci_hi inside the "
                            f"Frechet box fails")

        kind = exp["kind"]
        edge = kind == "boundary"
        if not (np.array_equal(est["c_hat"][edge], exp["c"][edge])
                and np.all(est["v_hat"][edge] == 0.0)
                and np.array_equal(est["ci_lo"][edge], est["c_hat"][edge])
                and np.array_equal(est["ci_hi"][edge], est["c_hat"][edge])):
            problems.append(f"estimate call {k}: boundary rows are not exact")

        tail = kind == "tail"
        c_err = np.abs(est["c_hat"] - exp["c"])
        v_bad = ~(np.abs(est["v_hat"] - exp["var"]) <= 1e-6 * exp["var"] + 1e-12)
        wrong = np.where(tail, c_err > self.TAIL_RTOL * exp["c"], c_err > 1e-8) | (~edge & v_bad)
        self.note_err(c_err)
        if np.any(wrong & ~tail):
            problems.append(f"estimate call {k}: {int(np.sum(wrong & ~tail))} interior queries "
                            f"off the oracle (worst c_hat error {c_err[~tail].max():.2e})")
        return int(np.sum(wrong)), problems


class ContourCli(Workload):
    """``--command contour`` at the default 101^2 grid, n in (100, 10000), one replication."""

    name = "contour_cli"
    N_LIST = (100, 10_000)
    GRID = 101
    S, T = 0.3, 0.7
    call_s = 0.4
    items_per_call = len(N_LIST) * GRID * GRID
    ops_per_call = 1

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.base = int(self.rng.integers(2 ** 31))
        g = np.linspace(0.0, 1.0, self.GRID)
        self.u = np.repeat(g, self.GRID)
        self.v = np.tile(g, self.GRID)
        self.inner = (self.u > 0.0) & (self.u < 1.0) & (self.v > 0.0) & (self.v < 1.0)
        self._true = None

    def argv(self, k: int, out: Path) -> list[str]:
        return ["--command", "contour", "--n-list", ",".join(str(n) for n in self.N_LIST),
                "--replications", "1", "--constant-vol", "1", "--seed", str(self.base + k),
                "--workers", "1", "--out", str(out)]

    def true_copula(self) -> np.ndarray:
        """Exact copula on the grid: the clock is T_t = t under constant variance 1."""
        if self._true is None:
            c = np.where(self.u == 1.0, self.v, np.where(self.v == 1.0, self.u, 0.0))
            c[self.inner] = oracles.copula(self.S, self.T, self.u[self.inner], self.v[self.inner])
            self._true = c
        return self._true

    def check_call(self, k: int, out: Path) -> tuple[int, list[str]]:
        problems = []
        edge = ~self.inner
        exact_edge = np.where(self.u == 1.0, self.v, np.where(self.v == 1.0, self.u, 0.0))
        fre_lo, fre_hi = oracles.frechet_bounds(self.u, self.v)
        fre_lo, fre_hi = fre_lo - FRECHET_TOL, fre_hi + FRECHET_TOL
        for n in self.N_LIST:
            tab = read_csv(out / f"contour_n{n}.csv")
            if tab["u"].size != self.u.size:
                return 1, [f"contour call {k}: n={n} has {tab['u'].size} rows, "
                           f"not {self.u.size}"]
            if not (np.array_equal(tab["u"], self.u) and np.array_equal(tab["v"], self.v)):
                problems.append(f"contour call {k}: n={n} u,v columns are not the grid")
            err = np.abs(tab["true_c"] - self.true_copula())
            self.note_err(err)
            if err.max() > 1e-8:
                problems.append(f"contour call {k}: n={n} true_c off the oracle by {err.max():.2e}")
            c = tab["c_hat"]
            if not (np.array_equal(c[edge], exact_edge[edge])
                    and np.array_equal(tab["true_c"][edge], exact_edge[edge])):
                problems.append(f"contour call {k}: n={n} boundary rows are not exact")
            grid = c.reshape(self.GRID, self.GRID)
            rect = grid[1:, 1:] - grid[:-1, 1:] - grid[1:, :-1] + grid[:-1, :-1]
            if rect.min() < -1e-8:
                problems.append(f"contour call {k}: n={n} c_hat not 2-increasing "
                                f"({rect.min():.2e})")
            if not np.all((c >= fre_lo) & (c <= fre_hi)):
                problems.append(f"contour call {k}: n={n} c_hat outside the Frechet bounds")
            lo, hi = tab["ci_lo"], tab["ci_hi"]
            if not np.all((fre_lo <= lo) & (lo <= hi) & (hi <= fre_hi)):
                problems.append(f"contour call {k}: n={n} ci_lo <= ci_hi inside the box fails")
            if not np.all(tab["n_failed"] == 0):
                problems.append(f"contour call {k}: n={n} has cells without an interval")
        return 0, problems


WORKLOADS = {w.name: w for w in (QqCir, RhoConst, EstimateCli, ContourCli)}
