"""The independent oracle accepts correct schedules and rejects mutants."""

import dataclasses

import numpy as np
import pytest

from flbbench import inputs, oracle


def table1_placements() -> oracle.Placements:
    tasks = sorted(inputs.TABLE1)
    return oracle.Placements(
        task=np.asarray(tasks),
        proc=np.asarray([inputs.TABLE1[t][0] for t in tasks]),
        start=np.asarray([inputs.TABLE1[t][1] for t in tasks]),
        finish=np.asarray([inputs.TABLE1[t][2] for t in tasks]),
        makespan=inputs.TABLE1_MAKESPAN,
        records=len(tasks),
    )


def mutate(pl: oracle.Placements, task: int, **changes: float) -> oracle.Placements:
    i = int(np.flatnonzero(pl.task == task)[0])
    arrays = {k: getattr(pl, k).copy() for k in ("task", "proc", "start", "finish")}
    for key, value in changes.items():
        arrays[key][i] = value
    return dataclasses.replace(pl, **arrays)


def test_accepts_table1():
    pl = table1_placements()
    assert oracle.check(inputs.fig1(), 2, pl) == []
    assert oracle.table1_errors(pl) == []


def test_table1_critical_path_and_work_bounds():
    fig1 = inputs.fig1()
    # t0 -> t3 -> t5 -> t7 (2 + 3 + 3 + 2) is the longest computation chain.
    assert oracle.critical_path(fig1) == 10.0
    assert inputs.TABLE1_MAKESPAN >= fig1.comps.sum() / 2


def test_rejects_start_before_message_arrives():
    # t7 runs on p0 and needs t4's message from p1 (finish 8 + comm 1) and
    # t6's from p1 (finish 10 + comm 2): starting at 11 is too early.
    pl = mutate(table1_placements(), 7, start=11.0, finish=13.0)
    pl = dataclasses.replace(pl, makespan=13.0)
    errors = oracle.check(inputs.fig1(), 2, pl)
    assert any("before its message" in e for e in errors)
    assert oracle.table1_errors(pl)


def test_rejects_overlapping_tasks():
    # t1 moved onto p0 at [3, 5] collides with t3 on p0 at [2, 5].
    pl = mutate(table1_placements(), 1, proc=0)
    assert any("overlap" in e for e in oracle.check(inputs.fig1(), 2, pl))


def test_rejects_dropped_task():
    pl = table1_placements()
    keep = pl.task != 5
    dropped = oracle.Placements(pl.task[keep], pl.proc[keep], pl.start[keep],
                                pl.finish[keep], pl.makespan, pl.records - 1)
    assert any("exactly once" in e for e in oracle.check(inputs.fig1(), 2, dropped))


def test_rejects_task_placed_twice():
    pl = dataclasses.replace(table1_placements(), records=9)
    assert any("placement records" in e for e in oracle.check(inputs.fig1(), 2, pl))


def test_rejects_wrong_makespan():
    pl = dataclasses.replace(table1_placements(), makespan=15.0)
    assert any("makespan" in e for e in oracle.check(inputs.fig1(), 2, pl))


def test_rejects_wrong_duration():
    pl = mutate(table1_placements(), 2, finish=6.5)
    assert any("finish != start + comp" in e for e in oracle.check(inputs.fig1(), 2, pl))


def test_rejects_processor_out_of_range():
    pl = mutate(table1_placements(), 6, proc=2)
    assert any("processor outside" in e for e in oracle.check(inputs.fig1(), 2, pl))


def test_rejects_makespan_below_critical_path():
    fig1 = inputs.fig1()
    # Every task on its own processor, all starting at 0: no overlaps and
    # no duration errors, but precedence and the critical path are broken.
    n = fig1.num_tasks
    pl = oracle.Placements(np.arange(n), np.arange(n), np.zeros(n), fig1.comps.copy(),
                           float(fig1.comps.max()), n)
    errors = oracle.check(fig1, n, pl)
    assert any("critical path" in e for e in errors)


@pytest.mark.parametrize("family,params", [("lu", (12,)), ("fft", (16,)), ("fork-join", (2, 9))])
def test_accepts_the_programs_schedules(family, params):
    from repro.api import SchedulingOptions, schedule_graph
    from repro.machine.model import MachineModel

    graph = inputs.make_graph("g", family, params, 1.0, np.random.default_rng(3))
    for procs in (2, 5):
        schedule = schedule_graph(graph.build(), SchedulingOptions(machine=MachineModel(procs)))
        pl = oracle.placements_of(schedule)
        assert oracle.check(graph, procs, pl) == []
        assert oracle.same_placements(pl, pl)
