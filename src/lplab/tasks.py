"""Task execution: one scenario in, one deterministic report out.

Each handler ``_task_<command>(scenario, seed, tol)`` reads the typed task
fields that :func:`lplab.scenario.parse_scenario` checked.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .cocycle import coboundary_solve, displacement_bound_check, mautner_check
from .convex import fisher_margulis_iterate, fixed_point_circumcenter, klee_search
from .errors import Refusal
from .gap import kazhdan_gap
from .geometry import modulus_table, schoenberg_scan, schoenberg_violation_search
from .groups import TableGroup, k_words_of
from .induction import CosetStructure, fixed_point_transfer, induce_cocycle, induce_rep, split_action, superrigidity_pipeline
from .lamperti import LampertiIsometry, mazur_composition, mazur_conjugation_residual
from .reports import Report, check, status_of
from .representation import canonical_complement
from .scenario import _COMMANDS, Scenario, ScenarioError, _field, _integer, _positive

__all__ = ["execute", "refused", "sweep"]


def _provenance(scenario: Scenario, seed: int | None, tol: float | None, budget: int | None = None) -> tuple:
    """The effective seed, the run's task fields, and its tolerance and budget records.

    One rule for both flags: ``budget`` (--budget, an integer >= 1) and ``tol`` (--tol), if given, replace their task
    field (the file's value, else the command's default): the field the command's table names for --budget, read
    with its reader and bounds, and task.tol.  A bad flag is refused at its own name.
    """
    task, record = dict(scenario.task), {}
    command = _COMMANDS[task["command"]]
    if budget is not None:
        budget = _integer(budget, "--budget", 1)
        if command.budget is not None:
            key, value = command.budget(task, budget)
            task[key] = record[key] = _field(command.fields[key], value, "--budget", task)
    if tol is not None:
        task["tol"] = _positive(tol, "--tol")
    tolerances = {} if task["tol"] is None else {"solver": task["tol"]}
    return (scenario.seed if seed is None else int(seed)), task, tolerances, record


def execute(scenario: Scenario, seed: int | None = None, tol: float | None = None, budget: int | None = None) -> Report:
    """Run the scenario's task and return its report.

    ``seed``/``tol``/``budget`` override the scenario values (the CLI wires
    these to flags and the LPLAB_SEED variable).  Each handler returns
    whether the task's hypotheses held and a payload carrying its checks;
    :func:`lplab.reports.status_of` turns the two into the status.  An unmet
    hypothesis (:class:`lplab.Refusal`) gives the refused report.
    """
    eff_seed, task, tolerances, record = _provenance(scenario, seed, tol, budget)
    try:
        applicable, payload = _HANDLERS[task["command"]](replace(scenario, task=task), eff_seed, task["tol"])
    except Refusal as exc:
        return refused(scenario, exc, seed, tol, budget)
    status = status_of(payload["checks"], applicable)
    return Report(scenario.name, task["command"], status, payload, eff_seed, tolerances, record)


def refused(scenario: Scenario, error: Exception, seed: int | None = None, tol: float | None = None,
            budget: int | None = None, name: str | None = None) -> Report:
    """Report of a refused run, with the provenance :func:`execute` would have recorded."""
    eff_seed, _, tolerances, record = _provenance(scenario, seed, tol, budget)
    return Report(name or scenario.name, scenario.task["command"], "refused", {"error": str(error)},
                  eff_seed, tolerances, record)


def sweep(scenario: Scenario, p_values, seed: int | None = None, tol: float | None = None, budget: int | None = None):
    """Re-run the scenario across exponents; per-cell errors are recorded, not raised.

    A bad flag is refused once, before the first cell.
    """
    _provenance(scenario, seed, tol, budget)
    cells = []
    for p in p_values:
        t0 = time.perf_counter()
        try:
            cell = execute(scenario.with_exponent(float(p)), seed=seed, tol=tol, budget=budget)
        except ScenarioError as exc:
            cell = refused(scenario, exc, seed=seed, tol=tol, budget=budget, name=f"{scenario.name}@p={p:g}")
        cells.append((float(p), cell, time.perf_counter() - t0))
    return cells


def _task_decompose(scenario, seed, tol):
    rep = scenario.representation
    cc = canonical_complement(rep)
    idem = float(np.max(np.abs(cc.proj_fixed @ cc.proj_fixed - cc.proj_fixed)))
    comm = max(
        float(np.max(np.abs(mat @ cc.proj_fixed - cc.proj_fixed @ mat)))
        for mat in map(rep.operator, rep.generator_names)
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


def _task_gap(scenario, seed, tol):
    rep, k = scenario.representation, scenario.task["k"]
    est = kazhdan_gap(rep, k_words=k, restarts=scenario.task["restarts"], seed=seed)
    if est.witness is None:
        checks = [check("complement_dim", est.complement_dim, 0, "eq")]
    else:
        achieved = max(scenario.space.norm(rep.apply(w, est.witness) - est.witness) for w in k_words_of(rep.group, k))
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


def _task_fixpoint(scenario, seed, tol):
    coc, task = scenario.cocycle, scenario.task
    if task["method"] == "circumcenter":
        res = fixed_point_circumcenter(coc, task["x0"], fix_tol=tol)
        payload = {
            "point": [] if res.point is None else res.point,
            "orbit_size": res.orbit_size,
            "orbit_diameter": res.orbit_diameter,
        }
    else:
        res = fisher_margulis_iterate(coc, k_words=task["k"], x0=task["x0"], c_mult=task["c"],
                                      max_iter=task["max_iter"], tol=tol, seed=seed)
        payload = {
            "radii": res.radii,
            "steps": len(res.trace),
            "terminal": res.terminal,
            "trace_csv": res.trace_csv(scenario.space),
        }
    return res.applicable, {"outcome": res.status, "displacement": res.displacement, "checks": res.checks, **payload}


def _task_cobound(scenario, seed, tol):
    sol = coboundary_solve(scenario.cocycle, tol=tol)
    payload = {
        "vector": sol.vector,
        "residual": sol.residual,
        "is_coboundary": sol.is_coboundary,
        "checks": sol.checks,
    }
    return True, payload


def _induction_inputs(scenario) -> tuple:
    """(coset structure, subgroup representation, subgroup cocycle or None) of an induce/superrigid task."""
    group, elems = scenario.group, scenario.task["subgroup"]
    if not isinstance(group, TableGroup):
        raise Refusal("induction requires a table-backed ambient group")
    try:
        cs = CosetStructure(group, elems, scenario.task["subgroup_generators"])
    except ValueError as exc:
        field = "subgroup" if not group.is_subgroup(elems) else "subgroup_generators"
        raise ScenarioError(f"$.task.{field}", str(exc)) from exc
    return (cs, *scenario.action(cs.subgroup))


def _task_induce(scenario, seed, tol):
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


def _task_split(scenario, seed, tol):
    task = scenario.task
    report = split_action(scenario.representation, scenario.cocycle, task["factor1"], task["factor2"],
                          gap_threshold=task["gap_threshold"], tol=tol, seed=seed)
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


def _task_superrigid(scenario, seed, tol):
    cs, _, coc_sub = _induction_inputs(scenario)
    report = superrigidity_pipeline(cs, coc_sub, gap_threshold=scenario.task["gap_threshold"], tol=tol, seed=seed)
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


def _task_mazur(scenario, seed, tol):
    rep, n_samples = scenario.representation, scenario.task["n_samples"]
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


def _task_schoenberg(scenario, seed, tol):
    space, task = scenario.space, scenario.task
    if task["mode"] == "random":
        lam_min = schoenberg_scan(space, task["n_configs"], task["n_points"], task["s"], seed)
        checks = []
        if space.p <= 2.0:
            checks.append(check("lambda_min", lam_min, -1e-9, "ge"))
        return True, {
            "lambda_min": lam_min,
            "configs": task["n_configs"],
            "primary": lam_min,
            "checks": checks,
        }
    found = schoenberg_violation_search(space.p, trials=task["trials"], seed=seed)
    payload = {"found": found is not None, "trials": task["trials"], "checks": []}
    if found is not None:
        payload.update(found)  # the configuration and its violation_eigenvalue check
        payload["primary"] = found["lambda_min"]
    return True, payload


def _task_modulus(scenario, seed, tol):
    table = modulus_table(scenario.space, scenario.task["eps_grid"], budget=scenario.task["budget"], seed=seed)
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


def _task_klee(scenario, seed, tol):
    res = klee_search(scenario.space, trials=scenario.task["trials"], seed=seed)
    payload = {"found": res.found, "trials_used": res.trials_used, "hull_distance": res.hull_distance,
               "checks": res.checks}
    if res.found:
        payload["points"] = res.points
        payload["center"] = res.center
    return True, payload


def _task_displacement(scenario, seed, tol):
    task = scenario.task
    report = displacement_bound_check(scenario.cocycle, task["factor_a"], task["factor_h"], k_h=task["k_h"], tol=tol,
                                      a_radius=task["radius"], seed=seed)
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


def _task_mautner(scenario, seed, tol):
    task = scenario.task
    report = mautner_check(scenario.cocycle, task["g"], task["h"], n_max=task["n_max"], tol=tol)
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
