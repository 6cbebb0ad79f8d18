"""Inputs and request plans are functions of the seed alone."""

import random

import numpy as np

from flbbench import inputs


def rounds(plan, count):
    return [plan.next_round() for _ in range(count)]


def test_serve_plan_is_identical_for_the_same_seed():
    assert rounds(inputs.ServePlan(7), 30) == rounds(inputs.ServePlan(7), 30)


def test_serve_plan_differs_for_another_seed():
    assert rounds(inputs.ServePlan(7), 5) != rounds(inputs.ServePlan(8), 5)


def test_serve_plan_rounds_have_the_fixed_mix():
    plan = inputs.ServePlan(3)
    warmup = plan.next_round()
    assert {r.kind for r in warmup} == {"miss"}
    for r in rounds(plan, 40):
        kinds = sorted(q.kind for q in r)
        assert kinds == sorted(inputs.SERVE_ROUND)


def test_serve_plan_misses_are_fresh_and_hits_repeat_earlier_rounds():
    plan = inputs.ServePlan(11)
    seen = set()
    earlier = set()
    for r in rounds(plan, 60):
        this = set()
        for q in r:
            key = (q.graph, q.procs)
            if q.kind == "miss":
                assert key not in seen
                seen.add(key)
                this.add(key)
            elif q.kind == "hit":
                assert key in earlier
        earlier |= this


def test_batch_plan_keys_are_distinct_and_seeded():
    a, b = inputs.BatchPlan(5), inputs.BatchPlan(5)
    jobs = [j for _ in range(20) for j in a.next_round()]
    assert jobs == [j for _ in range(20) for j in b.next_round()]
    assert len(set(jobs)) == len(jobs)
    assert jobs[:16] != inputs.BatchPlan(6).next_round()


def test_key_streams_never_run_out_and_stay_in_the_paper_range():
    plan = inputs.ServePlan(2)
    batch = inputs.BatchPlan(2)
    for _ in range(2000):  # far more rounds than a run makes
        for q in plan.next_round():
            assert q.procs in inputs.PAPER_PROCS
        assert all(p in inputs.PAPER_PROCS for _, p in batch.next_round())
        assert len(plan.misses.live()) == inputs.POOL_WINDOW
        assert len(batch.keys.live()) == inputs.POOL_WINDOW


def test_key_streams_report_the_graphs_entering_and_leaving_the_window():
    stream = inputs.KeyStream(random.Random(1), 3)
    live = set(range(3))
    used = {}
    for _ in range(300):
        graph, procs = stream.take()
        assert graph in live
        used.setdefault(graph, []).append(procs)
        entered, left = stream.drain()
        live |= set(entered)
        for g in left:
            assert sorted(used[g]) == sorted(inputs.POOL_PROCS)  # left after its last P
            live.discard(g)
        assert live == set(stream.live())


def test_pool_graphs_can_be_made_again_alone():
    a = inputs.pool_graphs(9, 5, 3)[4]
    b = inputs.pool_graph(9, 3, 4)
    assert np.array_equal(a.comps, b.comps) and np.array_equal(a.comm, b.comm)


def test_graphs_are_identical_for_the_same_seed_and_differ_for_another():
    def arrays(seed):
        return [(g.comps, g.comm) for g in inputs.pool_graphs(seed, 3, 3)]

    for (c1, m1), (c2, m2) in zip(arrays(4), arrays(4)):
        assert np.array_equal(c1, c2) and np.array_equal(m1, m2)
    assert not np.array_equal(arrays(4)[0][0], arrays(5)[0][0])


def test_topologies_are_numbered_topologically():
    for family, params in [("lu", (9,)), ("laplace", (3, 4)), ("stencil", (5, 4)),
                           ("fft", (8,)), ("cholesky", (5,)), ("fork-join", (3, 4))]:
        n, edges, width = inputs.TOPOLOGIES[family](*params)
        assert all(0 <= s < d < n for s, d in edges)
        assert len(set(edges)) == len(edges)
        assert width >= 1


def test_graph_sizes_match_the_workload_description():
    sizes = {g.name: g.num_tasks for _, g in inputs.paper_suite(1)}
    assert all(1900 <= v <= 2100 for k, v in sizes.items() if "small" in k)
    assert all(19000 <= v <= 21000 for k, v in sizes.items() if "large" in k)
