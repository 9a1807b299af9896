"""Task execution: one scenario in, one deterministic report out."""

from __future__ import annotations

import numpy as np

from .cocycle import _a_word_count, coboundary_solve, displacement_bound_check, mautner_check
from .convex import fisher_margulis_iterate, fixed_point_circumcenter, klee_search
from .errors import Refusal
from .gap import MAX_RESTARTS, kazhdan_gap
from .geometry import MAX_POINTS, modulus_table, schoenberg_scan, schoenberg_violation_search
from .groups import ProductGroup, TableGroup, check_word
from .induction import CosetStructure, fixed_point_transfer, induce_cocycle, induce_rep, split_action, superrigidity_pipeline
from .lamperti import LampertiIsometry, mazur_composition, mazur_conjugation_residual
from .reports import Report, check, status_of
from .representation import canonical_complement
from .scenario import _COMMANDS, Scenario, ScenarioError, _build_cocycle, _build_representation, _finite, _integer

__all__ = ["execute", "refused", "sweep"]


# the tolerance each command checks against when neither --tol nor task.tol gives one; the others apply none
_DEFAULT_TOL = {"fixpoint": 1e-6, "mautner": 1e-6, "displacement": 1e-6,
                "cobound": 1e-8, "induce": 1e-8, "split": 1e-8, "superrigid": 1e-8}


def _positive(value, path: str) -> float:
    """``value`` as a finite positive number; anything else is refused at ``path``."""
    number = _finite(value, path)
    if number.ndim != 0 or not number > 0.0:
        raise ScenarioError(path, f"expected a positive number, got {value!r}")
    return float(number)


def _provenance(scenario: Scenario, seed: int | None, tol: float | None, budget: int | None = None) -> tuple:
    """The effective seed, the run's tolerance and its provenance record.

    The tolerance is ``tol`` (the --tol flag) if given, else task.tol, else the command's default.
    ``budget`` (the --budget flag), if given, must be at least 1.
    """
    if budget is not None:
        _integer(budget, "--budget", 1)
    if tol is not None:
        tol = _positive(tol, "--tol")
    elif "tol" in scenario.task:
        tol = _positive(scenario.task["tol"], "$.task.tol")
    else:
        tol = _DEFAULT_TOL.get(scenario.task["command"])
    return (scenario.seed if seed is None else int(seed)), tol, ({} if tol is None else {"solver": tol})


def execute(scenario: Scenario, seed: int | None = None, tol: float | None = None, budget: int | None = None) -> Report:
    """Run the scenario's task and return its report.

    ``seed``/``tol``/``budget`` override the scenario values (the CLI wires
    these to flags and the LPLAB_SEED variable).  Each handler takes the
    effective seed and tolerance and returns whether the task's hypotheses
    held and a payload carrying its checks; :func:`lplab.reports.status_of`
    turns the two into the status.
    """
    command = scenario.task["command"]
    eff_seed, eff_tol, tolerances = _provenance(scenario, seed, tol, budget)
    applicable, payload = _HANDLERS[command](scenario, eff_seed, eff_tol, budget)
    return Report(scenario.name, command, status_of(payload["checks"], applicable), payload, eff_seed, tolerances)


def refused(scenario: Scenario, error: Exception, seed: int | None = None, tol: float | None = None,
            name: str | None = None) -> Report:
    """Report of a refused run, with the provenance :func:`execute` would have recorded."""
    eff_seed, _, tolerances = _provenance(scenario, seed, tol)
    return Report(name or scenario.name, scenario.task["command"], "refused", {"error": str(error)},
                  eff_seed, tolerances)


def sweep(scenario: Scenario, p_values, seed: int | None = None, tol: float | None = None, budget: int | None = None):
    """Re-run the scenario across exponents; per-cell errors are recorded, not raised.

    A bad flag is refused once, before the first cell.
    """
    import time

    _provenance(scenario, seed, tol, budget)
    cells = []
    for p in p_values:
        t0 = time.perf_counter()
        try:
            cell = execute(scenario.with_exponent(float(p)), seed=seed, tol=tol, budget=budget)
        except (Refusal, ScenarioError) as exc:
            cell = refused(scenario, exc, seed=seed, tol=tol, name=f"{scenario.name}@p={p:g}")
        cells.append((float(p), cell, time.perf_counter() - t0))
    return cells


def _int_param(params: dict, key: str, default: int, lo: int, hi: int | None = None) -> int:
    """The integer task parameter ``key``, or ``default``; refused at its field path outside [lo, hi]."""
    return _integer(params.get(key, default), f"$.task.{key}", lo, hi)


def _words(value, key: str, group, names: bool = False):
    """``value`` of task.<key>: None, or a nonempty list of words over ``group``'s generators (a list of
    generator names, possibly empty, when ``names``); anything else is refused at $.task.<key>."""
    kind = "list of generator names" if names else "nonempty list of words"
    if value is not None and (not isinstance(value, list) or not (names or value) or not all(
            isinstance(w, str) and (not names or len(w) == 1 and w.islower()) for w in value)):
        raise ScenarioError(f"$.task.{key}", f"expected a {kind}, got {value!r}")
    try:
        for word in value or ():
            check_word(group.generators, word)
    except ValueError as exc:
        raise ScenarioError(f"$.task.{key}", str(exc)) from exc
    return value


def _require(scenario: Scenario, field: str):
    """The scenario's ``representation`` or ``cocycle``; refused at its field path when absent."""
    if getattr(scenario, field) is None:
        raise ScenarioError(f"$.{field}", f"this task requires a {field}")
    return getattr(scenario, field)


def _task_decompose(scenario, seed, tol, budget):
    rep = _require(scenario, "representation")
    cc = canonical_complement(rep)
    idem = float(np.max(np.abs(cc.proj_fixed @ cc.proj_fixed - cc.proj_fixed)))
    comm = max(
        float(np.max(np.abs(rep.generator_matrix(n) @ cc.proj_fixed - cc.proj_fixed @ rep.generator_matrix(n))))
        for n in rep.generator_names
    )
    checks = [
        check("projection_idempotency", idem, 1e-10),
        check("projection_commutation", comm, 1e-10),
        check("dimension_completeness", cc.fixed_dim + cc.complement_dim, rep.space.dim, "eq"),
    ]
    payload = {
        "fixed_dim": cc.fixed_dim,
        "complement_dim": cc.complement_dim,
        "projection_idempotency": idem,
        "projection_commutation": comm,
        "checks": checks,
    }
    return True, payload


def _task_gap(scenario, seed, tol, budget):
    rep = _require(scenario, "representation")
    params = scenario.task
    default = 16 if budget is None else min(MAX_RESTARTS, max(4, budget // 25))
    restarts = _int_param(params, "restarts", default, 1, MAX_RESTARTS)
    k = _words(params.get("k"), "k", rep.group)
    est = kazhdan_gap(rep, k_words=k, restarts=restarts, seed=seed)
    if est.witness is None:
        checks = [check("complement_dim", est.complement_dim, 0, "eq")]
    else:
        achieved = max(scenario.space.norm(rep.apply(w, est.witness) - est.witness) for w in k or rep.group.k_set)
        checks = [check("witness_achieves_upper", abs(achieved - est.upper), 1e-10)]
    payload = {
        "gap_upper": est.upper,
        "gap_lower_heuristic": est.heuristic_lower,
        "complement_dim": est.complement_dim,
        "witness": [] if est.witness is None else est.witness,
        "witness_norm": 0.0 if est.witness is None else scenario.space.norm(est.witness),
        "checks": checks,
    }
    return True, payload


def _task_fixpoint(scenario, seed, tol, budget):
    coc = _require(scenario, "cocycle")
    params = scenario.task
    method = params.get("method", "circumcenter")
    x0 = _finite(params.get("x0", np.zeros(scenario.space.dim)), "$.task.x0")
    if x0.shape != (scenario.space.dim,):
        raise ScenarioError("$.task.x0", f"expected {scenario.space.dim} numbers, got shape {x0.shape}")
    if method == "circumcenter":
        res = fixed_point_circumcenter(coc, x0, fix_tol=tol)
        payload = {
            "outcome": res.status,
            "point": [] if res.point is None else res.point,
            "displacement": res.displacement,
            "orbit_size": res.orbit_size,
            "orbit_diameter": res.orbit_diameter,
            "checks": res.checks,
        }
        return res.applicable, payload
    if method == "fisher-margulis":
        res = fisher_margulis_iterate(
            coc,
            k_words=_words(params.get("k"), "k", coc.rep.group),
            x0=x0,
            c_mult=_positive(params.get("c", 1.0), "$.task.c"),
            max_iter=_int_param(params, "max_iter", 60, 0),
            tol=tol,
            seed=seed,
        )
        payload = {
            "outcome": res.status,
            "radii": res.radii,
            "steps": len(res.trace),
            "terminal": res.terminal,
            "displacement": res.displacement,
            "trace_csv": res.trace_csv(scenario.space),
            "checks": res.checks,
        }
        return res.applicable, payload
    raise ScenarioError("$.task.method", f"unknown fixpoint method {method!r}")


def _task_cobound(scenario, seed, tol, budget):
    coc = _require(scenario, "cocycle")
    sol = coboundary_solve(coc, tol=tol)
    payload = {
        "vector": sol.vector,
        "residual": sol.residual,
        "is_coboundary": sol.is_coboundary,
        "checks": sol.checks,
    }
    return True, payload


def _induction_inputs(scenario) -> tuple:
    """(coset structure, subgroup representation, subgroup cocycle or None) of an induce/superrigid task."""
    group = scenario.group
    if not isinstance(group, TableGroup):
        raise Refusal("induction requires a table-backed ambient group")
    params = scenario.task
    subgroup = params.get("subgroup")
    sub_gens = params.get("subgroup_generators")
    if subgroup is None or sub_gens is None:
        raise ScenarioError("$.task", "induce/superrigid need 'subgroup' and 'subgroup_generators'")
    if not isinstance(subgroup, list):
        raise ScenarioError("$.task.subgroup", "expected a list of element indices")
    if not isinstance(sub_gens, dict):
        raise ScenarioError("$.task.subgroup_generators", "expected an object mapping names to element indices")
    elems = [_integer(g, "$.task.subgroup", 0, group.order - 1) for g in subgroup]
    gens = {str(k): _integer(v, "$.task.subgroup_generators", 0) for k, v in sub_gens.items()}
    try:
        cs = CosetStructure(group, elems, gens)
    except ValueError as exc:
        field = "subgroup" if not group.is_subgroup(elems) else "subgroup_generators"
        raise ScenarioError(f"$.task.{field}", str(exc)) from exc
    rep_spec = scenario.raw.get("representation")
    if rep_spec is None:
        raise ScenarioError("$.representation", "this task requires a representation (over the subgroup)")
    rep = _build_representation(rep_spec, scenario.space, cs.subgroup)
    coc = _build_cocycle(scenario.raw["cocycle"], rep) if "cocycle" in scenario.raw else None
    return cs, rep, coc


def _task_induce(scenario, seed, tol, budget):
    cs, rep_sub, coc_sub = _induction_inputs(scenario)
    ind, rep_g = induce_rep(cs, rep_sub)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(ind.ambient.dim)
    norm_identity_dev = abs(ind.ambient.norm_pow(f) - ind.norm_pow_by_blocks(f))
    checks = [
        check("relation_residual", rep_g.relation_residual, 1e-10),
        check("norm_identity_deviation", norm_identity_dev, 1e-12 * max(1.0, ind.ambient.norm_pow(f))),
    ]
    payload = {
        "index": cs.index,
        "induced_dim": ind.ambient.dim,
        "relation_residual": rep_g.relation_residual,
        "norm_identity_deviation": norm_identity_dev,
    }
    if coc_sub is not None:
        coc_g = induce_cocycle(cs, coc_sub, rep_g)
        transfer = fixed_point_transfer(cs, coc_sub, coc_g, tol=tol)
        checks.append(check("induced_cocycle_residual", coc_g.relator_residual, 1e-10))
        checks.extend(transfer.checks)
        payload.update(
            {
                "induced_cocycle_residual": coc_g.relator_residual,
                "transfer_status": transfer.status,
                "sub_residual": transfer.sub_residual,
                "induced_residual": transfer.induced_residual,
                "classification_agrees": transfer.classification_agrees,
            }
        )
    payload["checks"] = checks
    return True, payload


def _factors(scenario, key1: str, key2: str) -> list:
    """The generator-name lists task.<key1> and task.<key2>, by default a product group's two factors."""
    group = scenario.group
    defaults = [list(f) for f in group.factor_generators] if isinstance(group, ProductGroup) else [None, None]
    factors = [_words(scenario.task.get(key, default), key, group, names=True)
               for key, default in zip((key1, key2), defaults)]
    if None in factors:
        raise ScenarioError("$.task", f"needs {key1}/{key2} generator lists (or a product group)")
    return factors


def _task_split(scenario, seed, tol, budget):
    rep = _require(scenario, "representation")
    coc = _require(scenario, "cocycle")
    f1, f2 = _factors(scenario, "factor1", "factor2")
    params = scenario.task
    threshold = _positive(params.get("gap_threshold", 0.01), "$.task.gap_threshold")
    report = split_action(rep, coc, f1, f2, gap_threshold=threshold, tol=tol, seed=seed)
    payload = {
        "dims": report.dims,
        "gap_b0": report.gap_b0,
        "reconstruction_residual": report.reconstruction_residual,
        "support_residual": report.support_residual,
        "cross_leak": report.cross_leak,
        "factor_validation": report.factor_validation,
        "component1": report.component1,
        "component2": report.component2,
        "checks": report.checks,
    }
    return True, payload


def _task_superrigid(scenario, seed, tol, budget):
    cs, _, coc_sub = _induction_inputs(scenario)
    if coc_sub is None:
        raise ScenarioError("$.cocycle", "superrigid requires a cocycle")
    params = scenario.task
    report = superrigidity_pipeline(
        cs, coc_sub,
        gap_threshold=_positive(params.get("gap_threshold", 0.01), "$.task.gap_threshold"), tol=tol, seed=seed,
    )
    payload = {
        "index": report.index,
        "split_dims": report.split.dims,
        "gap_b0": report.split.gap_b0,
        "base_dims": report.base_dims,
        "overlap_dim": report.base_dims["overlap"],
        "reconstruction_residual": report.sub_reconstruction_residual,
        "component1": report.component1,
        "component2": report.component2,
        "checks": report.checks,
    }
    return True, payload


def _task_mazur(scenario, seed, tol, budget):
    rep = _require(scenario, "representation")
    n_samples = _int_param(scenario.task, "n_samples", 50, 1)
    worst_conj = 0.0
    worst_linear = 0.0
    rng = np.random.default_rng(seed)
    for name in rep.generator_names:
        op = rep.images[name]
        if not isinstance(op, LampertiIsometry):
            raise Refusal("mazur conjugation task needs Lamperti images")
        worst_conj = max(worst_conj, mazur_conjugation_residual(op, n_samples, seed))
        for _ in range(10):
            a, b = rng.standard_normal(2)
            x, y = op.source.random_vector(rng), op.source.random_vector(rng)
            dev = mazur_composition(op, a * x + b * y) - a * mazur_composition(op, x) - b * mazur_composition(op, y)
            worst_linear = max(worst_linear, float(np.max(np.abs(dev))))
    checks = [
        check("conjugation_residual", worst_conj, 1e-10),
        check("linearity_residual", worst_linear, 1e-10),
    ]
    return True, {
        "conjugation_residual": worst_conj,
        "linearity_residual": worst_linear,
        "samples": n_samples,
        "checks": checks,
    }


def _task_schoenberg(scenario, seed, tol, budget):
    space = scenario.space
    params = scenario.task
    mode = params.get("mode", "random" if space.p <= 2.0 else "search")
    if mode == "random":
        n_configs = _int_param(params, "n_configs", 200 if budget is None else budget, 1)
        n_points = _int_param(params, "n_points", 6, 2, MAX_POINTS)
        s_values = _finite(params.get("s", [0.1, 1.0, 10.0]), "$.task.s")
        if s_values.ndim != 1 or s_values.size == 0 or np.any(s_values <= 0.0):
            raise ScenarioError("$.task.s", "expected a nonempty list of positive numbers")
        lam_min = schoenberg_scan(space, n_configs, n_points, s_values, seed)
        checks = []
        if space.p <= 2.0:
            checks.append(check("lambda_min", lam_min, -1e-9, "ge"))
        return True, {
            "lambda_min": lam_min,
            "configs": n_configs,
            "primary": lam_min,
            "checks": checks,
        }
    if mode == "search":
        trials = _int_param(params, "trials", 2000 if budget is None else budget, 1)
        found = schoenberg_violation_search(space.p, trials=trials, seed=seed)
        payload = {"found": found is not None, "trials": trials, "checks": []}
        if found is not None:
            payload.update(found)  # the configuration and its violation_eigenvalue check
            payload["primary"] = found["lambda_min"]
        return True, payload
    raise ScenarioError("$.task.mode", f"unknown schoenberg mode {mode!r}")


def _task_modulus(scenario, seed, tol, budget):
    eps_grid = _finite(scenario.task.get("eps_grid", [0.25, 0.5, 1.0, 1.5, 2.0]), "$.task.eps_grid")
    if eps_grid.ndim != 1 or eps_grid.size == 0 or np.any(eps_grid <= 0.0) or np.any(eps_grid > 2.0):
        raise ScenarioError("$.task.eps_grid", "expected a nonempty list of numbers in (0, 2]")
    if np.any(np.diff(eps_grid) <= 0.0):
        raise ScenarioError("$.task.eps_grid", "eps values must be strictly increasing")
    per_eps = _int_param(scenario.task, "budget", 300 if budget is None else budget, 1)
    table = modulus_table(scenario.space, eps_grid, budget=per_eps, seed=seed)
    diffs = np.diff(table.delta)
    checks = [
        check("envelope_monotone", float(diffs.min(initial=0.0)), -1e-15, "ge"),
        check("inverse_at_max_is_domain_sup", table.inverse(float(np.max(table.delta))), 2.0, "eq"),
    ]
    payload = {
        "eps": table.eps,
        "delta": table.delta,
        "inverse_at_max": table.inverse(float(np.max(table.delta))),
        "primary": float(table.delta[-1]),
        "checks": checks,
    }
    return True, payload


def _task_klee(scenario, seed, tol, budget):
    trials = _int_param(scenario.task, "trials", 200 if budget is None else budget, 1)
    res = klee_search(scenario.space, trials=trials, seed=seed)
    payload = {"found": res.found, "trials_used": res.trials_used, "hull_distance": res.hull_distance,
               "checks": res.checks}
    if res.found:
        payload["points"] = res.points
        payload["center"] = res.center
    return True, payload


def _task_displacement(scenario, seed, tol, budget):
    coc = _require(scenario, "cocycle")
    params = scenario.task
    gens_a, gens_h = _factors(scenario, "factor_a", "factor_h")
    radius = _int_param(params, "radius", 6, 1)
    try:
        _a_word_count(len(gens_a), radius)
    except ValueError as exc:
        raise ScenarioError("$.task.radius", str(exc)) from exc
    report = displacement_bound_check(
        coc, gens_a, gens_h, k_h=_words(params.get("k_h"), "k_h", coc.rep.group), tol=tol, a_radius=radius, seed=seed,
    )
    payload = {
        "identity_residual": report.identity_residual,
        "gap": report.gap,
        "seminorm": report.seminorm,
        "bound": report.bound,
        "worst_a_norm": report.worst_a_norm,
        "worst_a_complement_norm": report.worst_a_complement_norm,
        "checked_words": report.checked_words,
        "checks": report.checks,
    }
    return report.applicable, payload


def _task_mautner(scenario, seed, tol, budget):
    coc = _require(scenario, "cocycle")
    params = scenario.task
    g_word, h_word = (_words([params.get(key, key)], key, coc.rep.group)[0] for key in ("g", "h"))
    report = mautner_check(coc, g_word, h_word, n_max=_int_param(params, "n_max", 12, 0), tol=tol)
    payload = {
        "outcome": report.status,
        "contracting": report.contracting,
        "contraction": list(report.contraction),
        "fixed_residual": report.fixed_residual,
        "h_displacement": report.h_displacement,
        "checks": report.checks,
    }
    return report.applicable, payload


# the command list is owned by the schema; each command ``x`` runs ``_task_x``
_HANDLERS = {command: globals()[f"_task_{command}"] for command in _COMMANDS}
