"""Shared builders: the five conformance workloads as compile requests.

Built from the same :data:`repro.runtime.chaos.WORKLOADS` scenario data
the trace-invariant and chaos suites pin, so "bit-identical across the
conformance workloads" here means exactly those programs and
decompositions.
"""

from repro.decomp import block_loop, onto
from repro.lang import parse
from repro.polyhedra import var
from repro.runtime.chaos import WORKLOADS


def conformance_job(name: str):
    """``(program, comps)`` for one conformance workload."""
    scenario = WORKLOADS[name]
    program = parse(scenario.source, name=scenario.name)
    comps = {}
    for spec in scenario.comps:
        stmt = (
            program.statement(spec["stmt"])
            if spec.get("stmt") else program.statements()[0]
        )
        space = (
            comps[spec["space_of"]].space if spec.get("space_of") else None
        )
        if spec.get("kind", "block") == "onto":
            exprs = [var(v) for v in spec["vars"]]
            comps[stmt.name] = (
                onto(stmt, exprs, space=space)
                if space is not None else onto(stmt, exprs)
            )
        else:
            comps[stmt.name] = (
                block_loop(stmt, list(spec["vars"]), list(spec["sizes"]),
                           space=space)
                if space is not None
                else block_loop(stmt, list(spec["vars"]),
                                list(spec["sizes"]))
            )
    return program, comps
