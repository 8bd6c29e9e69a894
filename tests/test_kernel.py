"""The solver kernel kept between solves: a re-solve of an equal matrix reuses
its scaling and its scaled matrix, and gives the same bits as a solve that
sets everything up afresh."""

import sys
import threading

import numpy as np
import pytest

import carrieropt.lp.branch_bound as branch_bound
import carrieropt.lp.simplex as simplex
from carrieropt.costing import ObjectiveMode
from carrieropt.lp import INFEASIBLE, LE, OPTIMAL, RowBlock, SparseProblem, solve_lp
from carrieropt.scenarios import ScenarioRunner, abatement_sweep, standard_scenario
from carrieropt.system import build_miniature_system


def _bits(result) -> tuple:
    """Everything a solve reports, as bytes."""
    basis = result.basis
    arrays = [result.x, result.duals, result.reduced_costs]
    if basis is not None:
        arrays += [basis.basis, basis.vstat, basis.x]
    return (result.status, result.iterations,
            tuple(None if a is None else np.asarray(a).tobytes() for a in arrays),
            None if basis is None else basis.fingerprint)


def _forget():
    simplex._kept.kernel = None


@pytest.fixture
def built(monkeypatch):
    """Counts the kernels built, one per solve that did not reuse the kept one."""
    shapes = []
    init = simplex._Kernel.__init__

    def counted(self, a):
        shapes.append(a.shape)
        init(self, a)

    monkeypatch.setattr(simplex._Kernel, "__init__", counted)
    return shapes


def _recorded(monkeypatch, run, forget: bool) -> list[tuple]:
    """The bits of every LP solve ``run`` makes; with ``forget``, the kernel
    slot is cleared before each."""
    results = []
    solve = simplex.solve_lp

    def recorded(*args, **kwargs):
        if forget:
            _forget()
        result = solve(*args, **kwargs)
        results.append(_bits(result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(branch_bound, "solve_lp", recorded)
        _forget()
        run()
    return results


def _cap_sweep():
    system = build_miniature_system(0)
    abatement_sweep(system, standard_scenario("synergies"),
                    [round(0.1 * i, 1) for i in range(1, 10)], runner=ScenarioRunner(system))


def _two_modes():
    runner = ScenarioRunner(build_miniature_system(1))
    for scenario in ("synergies", "h-all"):
        for mode in (ObjectiveMode.min_cost(), ObjectiveMode.min_emissions()):
            runner.run(standard_scenario(scenario), mode)


def _dc_blocks():
    system = build_miniature_system(0, 24, 10.0)
    outcome = ScenarioRunner(system).run(standard_scenario("t-all"), ObjectiveMode.min_cost())
    assert outcome.solver["nodes"] > 1  # branch and bound ran


@pytest.mark.parametrize("run", [_cap_sweep, _two_modes, _dc_blocks],
                         ids=["cap-sweep", "two-modes", "dc-blocks"])
def test_kept_kernel_gives_the_bits_of_a_fresh_one(monkeypatch, built, run):
    kept = _recorded(monkeypatch, run, forget=False)
    kept_builds = len(built)
    fresh = _recorded(monkeypatch, run, forget=True)
    assert kept_builds < len(kept)  # the kept run reused kernels ...
    assert len(built) - kept_builds == len(fresh)  # ... the fresh one built one per solve
    assert len(kept) == len(fresh) and kept == fresh


def _problem(a, rhs=(6.0, 4.0)) -> SparseProblem:
    """max x0 + x1 subject to ``a x <= rhs``, x >= 0."""
    a = np.asarray(a, dtype=float)
    rows, cols = np.nonzero(a)
    block = RowBlock(rows=rows, cols=cols, coefs=a[rows, cols], senses=[LE, LE],
                     rhs=np.asarray(rhs, dtype=float), names=["r0", "r1"])
    return SparseProblem.from_block(2, block, lower=np.zeros(2), upper=np.full(2, np.inf),
                                    objective=-np.ones(2), col_names=["x0", "x1"])


def test_swapped_coefficients_are_another_matrix(built):
    # x0 + 3 x1 <= 6, 2 x0 + x1 <= 4 ends at (6/5, 8/5); swapping the 3 and
    # the 2 keeps the shape, the nonzeros and the fingerprint but moves the
    # optimum to (2/5, 14/5)
    first, swapped = _problem([[1.0, 3.0], [2.0, 1.0]]), _problem([[1.0, 2.0], [3.0, 1.0]])
    assert first.fingerprint() == swapped.fingerprint()
    _forget()
    reference = solve_lp(swapped)
    assert reference.x.tolist() == pytest.approx([0.4, 2.8], abs=1e-12)
    _forget()
    solve_lp(first)
    assert _bits(solve_lp(swapped)) == _bits(reference)
    # the fingerprint fits, so the swapped matrix starts warm from the first's
    # optimal basis, and still must not take its scaling
    warm = solve_lp(swapped, start=solve_lp(first).basis)
    assert warm.warm_started and warm.status == OPTIMAL
    assert warm.objective == pytest.approx(reference.objective, abs=1e-12)
    assert warm.x.tolist() == pytest.approx([0.4, 2.8], abs=1e-12)
    assert len(built) == 5  # every solve switched matrices


def test_a_matrix_written_in_place_is_another_matrix(built):
    # the kernel keeps copies of the arrays it was built from, so swapping the
    # coefficients in the solved matrix's own ``data`` is still a miss
    p = _problem([[1.0, 3.0], [2.0, 1.0]])
    _forget()
    solve_lp(p)
    p.a.data[[1, 2]] = p.a.data[[2, 1]]  # row-major: 1, 3, 2, 1 -> 1, 2, 3, 1
    assert p.a.toarray().tolist() == [[1.0, 2.0], [3.0, 1.0]]
    assert solve_lp(p).x.tolist() == pytest.approx([0.4, 2.8], abs=1e-12)
    assert len(built) == 2


def test_threads_alternating_between_two_matrices(built):
    runner = ScenarioRunner(build_miniature_system(0))
    problems = [runner.problem(standard_scenario(s), ObjectiveMode.min_cost()).problem
                for s in ("synergies", "t-all")]
    optima = []
    for p in problems:
        _forget()
        optima.append(solve_lp(p))
    expected = []
    for p, o in zip(problems, optima):
        _forget()
        expected.append(_bits(solve_lp(p, start=o.basis)))
    rounds, workers = 4, 4  # more threads than cores, switching often
    barrier = threading.Barrier(workers, timeout=60)
    seen: dict[int, list] = {me: [] for me in range(workers)}

    def work(me: int):
        for k in range(rounds):
            which = (me + k) % 2
            barrier.wait()  # every thread solves at once, half of them each matrix
            for _ in range(2):  # the second solve reuses the first's kernel
                result = solve_lp(problems[which], start=optima[which].basis)
                seen[me].append((which, _bits(result)))

    built.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(me,)) for me in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for me in range(workers):
        assert len(seen[me]) == 2 * rounds
        assert all(bits == expected[which] for which, bits in seen[me])
    assert len(built) == workers * rounds  # one build per round and thread


def test_a_resolve_after_an_infeasible_end(built):
    feasible = _problem([[1.0, 3.0], [2.0, 1.0]])
    infeasible = _problem([[1.0, 3.0], [2.0, 1.0]], rhs=(6.0, -4.0))
    _forget()
    optimum = solve_lp(feasible)
    dead_end = solve_lp(infeasible, start=optimum.basis)
    assert dead_end.status == INFEASIBLE and dead_end.warm_started
    again = solve_lp(feasible, start=optimum.basis)
    assert len(built) == 1  # one matrix, one kernel through all three solves
    _forget()
    assert _bits(again) == _bits(solve_lp(feasible, start=optimum.basis))
