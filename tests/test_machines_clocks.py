"""Exact clocks of the machine simulators, pinned as literals.

Each machine's per-cell ``solve`` is a one-cell ``solve_schedule``, so
comparing the two cannot catch a change to the charging or the numerics
they share; these literals can.  Every cell is unparametrized (all
αᵢ = 1), so no α fit moves an iteration count, and every clock field is
compared bitwise through ``float.hex``.  The model quantities (A, B and the
batched preconditioner cost) are pinned at 1e-12 relative: they are sums
of the same charges, and may be summed in another order.

Problems: plate a = 6 is the ``repro table3`` problem (and, unloaded, the
FEM's breakdown ending); a = 20 is the Table-2/3 mesh the batched passes
are timed on; a = 12 is the CYBER's, whose iterates are pinned by digest
along with its three endings (converged, broken down, capped by
``maxiter``).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

import repro.machines.cyber as cyber_module
import repro.machines.fem_machine as fem_module
from repro.driver import build_blocked_system
from repro.machines import CommLog, CyberMachine, FiniteElementMachine, Recording
from repro.pipeline import build_scenario

#: Per (a, P), per m = 0 … 6: iterations, then ``seconds``,
#: ``compute_seconds``, ``comm_seconds``, ``reduction_seconds`` and
#: ``flag_seconds`` as ``float.hex``, then ``total_records`` and
#: ``total_words``.
FEM_CLOCKS = {
    (6, 1): [
        (47, "0x1.eaf9db22d0e77p+5", "0x1.ea395810624fep+5", "0x0.0p+0",
         "0x0.0p+0", "0x1.810624dd2f1afp-4", 0, 0),
        (21, "0x1.9922d0e560423p+5", "0x1.98cccccccccd7p+5", "0x0.0p+0",
         "0x0.0p+0", "0x1.5810624dd2f1ep-5", 0, 0),
        (15, "0x1.ab22d0e560420p+5", "0x1.aae560418937cp+5", "0x0.0p+0",
         "0x0.0p+0", "0x1.eb851eb851ebcp-6", 0, 0),
        (13, "0x1.e66a7ef9db236p+5", "0x1.e6353f7ced91fp+5", "0x0.0p+0",
         "0x0.0p+0", "0x1.a9fbe76c8b43cp-6", 0, 0),
        (11, "0x1.fe2d0e5604190p+5", "0x1.fe00000000007p+5", "0x0.0p+0",
         "0x0.0p+0", "0x1.6872b020c49bcp-6", 0, 0),
        (10, "0x1.14916872b0210p+6", "0x1.147ced916872fp+6", "0x0.0p+0",
         "0x0.0p+0", "0x1.47ae147ae147cp-6", 0, 0),
        (9, "0x1.212b020c49babp+6", "0x1.21189374bc6adp+6", "0x0.0p+0",
         "0x0.0p+0", "0x1.26e978d4fdf3cp-6", 0, 0),
    ],
    (6, 2): [
        (47, "0x1.00a858793dda9p+5", "0x1.eb4c985f06f8cp+4", "0x1.3f7ced916872fp-1",
         "0x1.50e5604189379p-1", "0x1.810624dd2f1afp-4", 96, 960),
        (21, "0x1.c1afb7e90ffa6p+4", "0x1.a88c154c985ffp+4", "0x1.3c36113404ea4p+0",
         "0x1.2d0e56041893bp-2", "0x1.5810624dd2f1ep-5", 254, 1154),
        (15, "0x1.dde90ff972480p+4", "0x1.c10be0ded2898p+4", "0x1.90624dd2f1aa0p+0",
         "0x1.ae147ae147ae6p-3", "0x1.eb851eb851ebcp-6", 332, 1340),
        (13, "0x1.12a5e353f7cf2p+5", "0x1.016cf41f212dbp+5", "0x1.f1de69ad42c40p+0",
         "0x1.74bc6a7ef9db6p-3", "0x1.a9fbe76c8b43cp-6", 418, 1606),
        (11, "0x1.21ae7d566cf46p+5", "0x1.0f1d7dbf48801p+5", "0x1.1288ce703afb8p+1",
         "0x1.3b645a1cac086p-3", "0x1.6872b020c49bcp-6", 464, 1736),
        (10, "0x1.3b467381d7dc5p+5", "0x1.26c56d5cfaad3p+5", "0x1.3395810624dd3p+1",
         "0x1.1eb851eb851eep-3", "0x1.47ae147ae147cp-6", 522, 1920),
        (9, "0x1.4a8a0902de012p+5", "0x1.34d21ff2e48eep+5", "0x1.490ff97247456p+1",
         "0x1.020c49ba5e356p-3", "0x1.26e978d4fdf3cp-6", 560, 2036),
    ],
    (6, 5): [
        (47, "0x1.1491d14e3bccbp+4", "0x1.a648e8a71de58p+3", "0x1.5cfaacd9e83e1p+0",
         "0x1.50e5604189379p+1", "0x1.810624dd2f1afp-4", 384, 4608),
        (21, "0x1.05ba5e353f7cbp+4", "0x1.915182a9930b5p+3", "0x1.4ca57a786c227p+1",
         "0x1.2d0e56041893bp+0", "0x1.5810624dd2f1ep-5", 1016, 5472),
        (15, "0x1.1d495182a992fp+4", "0x1.b5f3b645a1ca7p+3", "0x1.a31f8a0902de4p+1",
         "0x1.ae147ae147ae6p-1", "0x1.eb851eb851ebcp-6", 1328, 6336),
        (13, "0x1.4c1d7dbf487fbp+4", "0x1.fe113404ea4a3p+3", "0x1.041205bc01a38p+2",
         "0x1.74bc6a7ef9db6p-1", "0x1.a9fbe76c8b43cp-6", 1672, 7584),
        (11, "0x1.60f5c28f5c28dp+4", "0x1.0f1f8a0902ddep+4", "0x1.1e83e425aee64p+2",
         "0x1.3b645a1cac086p-1", "0x1.6872b020c49bcp-6", 1856, 8192),
        (10, "0x1.821e4f765fd8ap+4", "0x1.28a3d70a3d709p+4", "0x1.40cb295e9e1b3p+2",
         "0x1.1eb851eb851eep-1", "0x1.47ae147ae147cp-6", 2088, 9056),
        (9, "0x1.9648e8a71de6ap+4", "0x1.382c3c9eecbfap+4", "0x1.570a3d70a3d73p+2",
         "0x1.020c49ba5e356p-1", "0x1.26e978d4fdf3cp-6", 2240, 9600),
    ],
    (20, 4): [
        (163, "0x1.7e6e425aee5fcp+9", "0x1.75f51eb851e82p+9", "0x1.38c7e28240b68p+3",
         "0x1.b624dd2f1a9e0p+2", "0x1.4dd2f1a9fbe7bp-2", 984, 37392),
        (72, "0x1.38746dc5d638cp+9", "0x1.2f691d14e3bd1p+9", "0x1.dd73eab3679eep+3",
         "0x1.83126e978d4ebp+1", "0x1.26e978d4fdf3fp-3", 2598, 44004),
        (52, "0x1.4923a29c779a5p+9", "0x1.3ec83e425aee5p+9", "0x1.26d0e5604188dp+4",
         "0x1.178d4fdf3b63bp+1", "0x1.a9fbe76c8b43fp-4", 3438, 51604),
        (43, "0x1.65a89374bc6a4p+9", "0x1.59eec56d5cfa6p+9", "0x1.58f41f212d770p+4",
         "0x1.ce5604189373ep+0", "0x1.604189374bc6fp-4", 4134, 59052),
        (38, "0x1.8790068db8b9dp+9", "0x1.7a6858793dd89p+9", "0x1.8a353f7ced90cp+4",
         "0x1.989374bc6a7e6p+0", "0x1.374bc6a7ef9dfp-4", 4794, 66652),
        (34, "0x1.a1e49ba5e352dp+9", "0x1.939fbe76c8b32p+9", "0x1.b0ac083126e86p+4",
         "0x1.6d916872b0206p+0", "0x1.16872b020c49fp-4", 5310, 72580),
        (31, "0x1.ba98a71de69a1p+9", "0x1.ab4eecbfb15a9p+9", "0x1.d3645a1cac071p+4",
         "0x1.4d4fdf3b6459ep+0", "0x1.fbe76c8b4395ep-5", 5772, 77976),
    ],
}

#: CYBER 203 on plate a = 12, per m = 0 … 10: iterations, ``seconds``,
#: ``preconditioner_seconds`` and ``outer_seconds`` as ``float.hex``, then
#: the digest of every ``op_breakdown`` entry (:func:`breakdown_digest`)
#: and of the iterate's bytes (:func:`array_digest`).
CYBER_CLOCKS = [
    (102, "0x1.79b3aae7caaaap-5", "0x0.0p+0", "0x1.79b3aae7caaaap-5",
     "de636b90310f353c", "93dc6f3bfe368636"),
    (43, "0x1.27d9023a41f09p-5", "0x1.16a609bf716f9p-6", "0x1.390bfab512719p-6",
     "76f187756a067381", "2c8f920680cdb12b"),
    (31, "0x1.377ce42c39f04p-5", "0x1.8d431f0e8e0e3p-6", "0x1.c36d5293cba4ap-7",
     "0d0d5c40cfd4b538", "fe66ae4b5f6e3939"),
    (26, "0x1.579b7d1e8eb7cp-5", "0x1.f1e3dd8a8a34dp-6", "0x1.7aa6396526756p-7",
     "f3d8c01b41262c4d", "1eda45c77af74cec"),
    (23, "0x1.78d0c17906a73p-5", "0x1.2511dd4d229dep-5", "0x1.4efb90af90254p-7",
     "8f746f9cf7cfc811", "972b7a6c4a88f883"),
    (21, "0x1.9a915b87902b7p-5", "0x1.4e199379efdaap-5", "0x1.31df203681434p-7",
     "0ee16e2aaf1672c7", "4dc979214a3f357a"),
    (19, "0x1.afa6968237fc3p-5", "0x1.6a75ea92db630p-5", "0x1.14c2afbd7264cp-7",
     "b57d04f6ff8c6d18", "b5fba59cb8cce022"),
    (18, "0x1.d1f28644d3153p-5", "0x1.9065686498587p-5", "0x1.06347780eaf30p-7",
     "5a6f17194b59c14d", "2ed2d44fa73b03c4"),
    (17, "0x1.ede8c67d7d53ap-5", "0x1.afff36ac6472ep-5", "0x1.ef4c7e88c7060p-8",
     "78599e89f5b08728", "ee0d0e6285a92b77"),
    (16, "0x1.01c4ab961b5c2p-4", "0x1.c943556a3fb3ap-5", "0x1.d2300e0fb8250p-8",
     "d987c1ea8c4c9490", "e7350ae27cbbec93"),
    (15, "0x1.096a1c287fa1bp-4", "0x1.dc31c49e2a1a9p-5", "0x1.b5139d96a9468p-8",
     "7f43b449c6968c28", "3060e4d9fa5a1d4a"),
]

#: Per (a, P): A and B of ``iteration_costs``, then
#: ``preconditioner_block_seconds(m, width)``.
FEM_COSTS = {
    (6, 1): (1.2899999999999998, 1.11, {
        (1, 1): 1.11,
        (1, 2): 2.132,
        (1, 8): 8.264,
        (3, 1): 3.33,
        (3, 2): 6.396000000000001,
        (3, 8): 24.791999999999998,
    }),
    (6, 2): (0.6744, 0.6456, {
        (1, 1): 0.6456,
        (1, 2): 1.1682,
        (1, 8): 4.3038,
        (3, 1): 1.9367999999999999,
        (3, 2): 3.5046,
        (3, 8): 12.9114,
    }),
    (6, 5): (0.36360000000000003, 0.406, {
        (1, 1): 0.406,
        (1, 2): 0.654,
        (1, 8): 2.142,
        (3, 1): 1.218,
        (3, 2): 1.9620000000000002,
        (3, 8): 6.426,
    }),
    (20, 4): (4.6746, 3.9644, {
        (1, 1): 3.9644,
        (1, 2): 7.7708,
        (1, 8): 30.6092,
        (3, 1): 11.8932,
        (3, 2): 23.3124,
        (3, 8): 91.8276,
    }),
}

#: Per P, the unloaded plate a = 6 at m = 3 (:func:`fem_clock`).  With
#: ``f = 0``, ``(p, Kp) = 0`` stops iteration 1: the breakdown ending, which
#: charges ``K p`` with its border exchange and that one inner product.
FEM_BREAKDOWN_CLOCKS = {
    1: (1, "0x1.4ef9db22d0e55p+2", "0x1.4ef9db22d0e55p+2", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", 0, 0),
    4: (1, "0x1.163bcd35a8586p+1", "0x1.ca3d70a3d70a2p+0", "0x1.5de69ad42c3c9p-2",
        "0x1.5810624dd2f1bp-5", "0x0.0p+0", 140, 336),
}

#: The CYBER of :data:`CYBER_CLOCKS` with its padded load zeroed, at m = 3
#: (the fields of :data:`CYBER_CLOCKS`): ``(p, Kp) = 0`` stops iteration 1,
#: charging ``K p`` and that inner product.
CYBER_BREAKDOWN_CLOCK = (
    1, "0x1.9bc13c1febd98p-10", "0x1.3264d71a2da91p-10", "0x1.a5719416f8c1cp-12",
    "7dea5f52dfd75539", "80b67b115f8e28f3",
)

#: The CYBER of :data:`CYBER_CLOCKS` stopped by ``maxiter = 3`` at
#: ``eps = 1e-14``, per m (the fields of :data:`CYBER_CLOCKS`).
CYBER_CAPPED_CLOCKS = {
    0: (3, "0x1.73d5e5a535da6p-10", "0x0.0p+0", "0x1.73d5e5a535da6p-10",
        "97422fcbf62c752e", "ba4d7309a9d87074"),
    3: (3, "0x1.8d518cba8e059p-8", "0x1.3264d71a2da88p-8", "0x1.6bb2d68181744p-10",
        "207bee3e1cb0c953", "13ca694bb7a30ac0"),
}

#: The same quantities for the CYBER of :data:`CYBER_CLOCKS`.
CYBER_COSTS = (0.0004442000000000001, 0.0003866400000000006, {
    (1, 1): 0.0003955200000000001,
    (1, 2): 0.00052104,
    (1, 8): 0.0012741599999999986,
    (3, 1): 0.0011688000000000013,
    (3, 2): 0.0015396000000000003,
    (3, 8): 0.003764400000000007,
})


def breakdown_digest(breakdown: dict[str, tuple[int, float]]) -> str:
    """sha256 prefix of every ``kind: (count, seconds)`` entry, bitwise."""
    text = ";".join(
        f"{kind}:{count}:{seconds.hex()}"
        for kind, (count, seconds) in sorted(breakdown.items())
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def array_digest(values: np.ndarray) -> str:
    """sha256 prefix of an array's bytes."""
    return hashlib.sha256(values.tobytes()).hexdigest()[:16]


def fem_clock(result) -> tuple:
    return (
        result.iterations,
        result.seconds.hex(),
        result.compute_seconds.hex(),
        result.comm_seconds.hex(),
        result.reduction_seconds.hex(),
        result.flag_seconds.hex(),
        result.total_records,
        result.total_words,
    )


def cyber_clock(result) -> tuple:
    return (
        result.iterations,
        result.seconds.hex(),
        result.preconditioner_seconds.hex(),
        result.outer_seconds.hex(),
        breakdown_digest(result.op_breakdown),
        array_digest(result.u_natural),
    )


@pytest.fixture(scope="module")
def plates():
    problems = {a: build_scenario("plate", nrows=a) for a in (6, 20)}
    return {a: (p, build_blocked_system(p)) for a, p in problems.items()}


@pytest.fixture(scope="module", params=sorted(FEM_CLOCKS), ids=lambda k: f"a{k[0]}-P{k[1]}")
def fem(request, plates):
    a, n_procs = request.param
    problem, blocked = plates[a]
    return request.param, FiniteElementMachine(problem, n_procs, blocked=blocked)


@pytest.fixture(scope="module")
def cyber():
    return CyberMachine(build_scenario("plate", nrows=12))


class TestFEMClocks:
    def test_per_cell_solve(self, fem):
        key, machine = fem
        got = [fem_clock(machine.solve(m)) for m in range(7)]
        assert got == FEM_CLOCKS[key]

    def test_schedule(self, fem):
        key, machine = fem
        results = machine.solve_schedule([(m, None) for m in range(7)])
        assert all(r.converged for r in results)
        assert [fem_clock(r) for r in results] == FEM_CLOCKS[key]

    def test_iteration_costs(self, fem):
        key, machine = fem
        a, b, blocks = FEM_COSTS[key]
        assert machine.iteration_costs() == pytest.approx((a, b), rel=1e-12)
        for (m, width), seconds in blocks.items():
            assert machine.preconditioner_block_seconds(m, width) == pytest.approx(
                seconds, rel=1e-12
            )


class TestFEMBreakdownClock:
    @pytest.mark.parametrize("n_procs", sorted(FEM_BREAKDOWN_CLOCKS))
    def test_unloaded_plate(self, plates, n_procs):
        problem, blocked = plates[6]
        unloaded = dataclasses.replace(problem, f=np.zeros(problem.n))
        machine = FiniteElementMachine(unloaded, n_procs, blocked=blocked)
        result = machine.solve(3)
        assert result.converged  # ρ = 0: the zero load is solved exactly
        assert fem_clock(result) == FEM_BREAKDOWN_CLOCKS[n_procs]
        stream = machine._stream
        assert result.seconds == pytest.approx(
            stream.seconds(stream.startup[0], machine._application(3),
                           stream.startup[1], stream.breakdown),
            rel=1e-12,
        )


class TestCyberClocks:
    def test_per_cell_solve(self, cyber):
        assert [cyber_clock(cyber.solve(m)) for m in range(11)] == CYBER_CLOCKS

    def test_schedule(self, cyber):
        results = cyber.solve_schedule([(m, None) for m in range(11)])
        assert all(r.converged for r in results)
        assert [cyber_clock(r) for r in results] == CYBER_CLOCKS

    def test_iteration_costs(self, cyber):
        a, b, blocks = CYBER_COSTS
        assert cyber.iteration_costs() == pytest.approx((a, b), rel=1e-12)
        for (m, width), seconds in blocks.items():
            assert cyber.preconditioner_block_seconds(m, width) == pytest.approx(
                seconds, rel=1e-12
            )


class TestCyberEndings:
    """The CYBER's last iteration ends three ways: converged (above),
    broken down, or cut by ``maxiter``."""

    def test_unloaded_plate_breaks_down(self, cyber):
        # The CYBER assembles its padded load from the mesh; zero it.
        unloaded = CyberMachine(cyber.problem)
        unloaded.f = np.zeros_like(unloaded.f)
        result = unloaded.solve(3)
        assert result.converged  # ρ = 0: the zero load is solved exactly
        assert cyber_clock(result) == CYBER_BREAKDOWN_CLOCK
        stream = unloaded._stream
        assert result.seconds == pytest.approx(
            stream.seconds(stream.startup[0], unloaded._application(3),
                           stream.startup[1], stream.breakdown),
            rel=1e-12,
        )

    @pytest.mark.parametrize("m", sorted(CYBER_CAPPED_CLOCKS))
    def test_maxiter_cap(self, cyber, m):
        result = cyber.solve(m, eps=1e-14, maxiter=3)
        assert not result.converged
        assert cyber_clock(result) == CYBER_CAPPED_CLOCKS[m]


class TestModelMatchesClock:
    """A solve's clock is the startup, N − 1 iterations of (A + the
    m-step application) and the converged last iteration: the model of
    (4.1) and the clock are read off the same recordings."""

    @pytest.fixture(scope="class")
    def machines(self, plates, cyber):
        return {
            "fem P=1": FiniteElementMachine(plates[6][0], 1, blocked=plates[6][1]),
            "fem P=4": FiniteElementMachine(plates[20][0], 4, blocked=plates[20][1]),
            "cyber": cyber,
        }

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("name", ["fem P=1", "fem P=4", "cyber"])
    def test_clock_is_startup_plus_iterations(self, machines, name, m):
        machine = machines[name]
        result = machine.solve(m)
        assert result.converged and result.iterations > 1
        a, _ = machine.iteration_costs()
        apply = machine.preconditioner_block_seconds(m, 1)
        stream = machine._stream
        predicted = (
            stream.seconds(*stream.startup)
            + apply
            + (result.iterations - 1) * (a + apply)
            + stream.seconds(stream.converged)
        )
        assert result.seconds == pytest.approx(predicted, rel=1e-12)


class TestWarmMachineRecordsNothing:
    """A second schedule on a warm machine replays its recordings: it
    records no segment and (on the FEM) walks no border pair."""

    @pytest.mark.parametrize("kind", ["fem", "cyber"])
    def test_second_schedule(self, plates, cyber, kind, monkeypatch):
        if kind == "fem":
            module = fem_module
            machine = FiniteElementMachine(plates[20][0], 4, blocked=plates[20][1])
            clock = fem_clock
        else:
            module, machine, clock = cyber_module, cyber, cyber_clock
        cells = [(m, None) for m in range(4)]
        first = [clock(r) for r in machine.solve_schedule(cells)]

        recorded, walked = [], []
        add_record = CommLog.add_record

        class SpyRecording(Recording):
            def __init__(self):
                recorded.append(self)
                super().__init__()

        def spy_add_record(log, *args):
            walked.append(args)
            return add_record(log, *args)

        monkeypatch.setattr(module, "Recording", SpyRecording)
        monkeypatch.setattr(CommLog, "add_record", spy_add_record)
        assert [clock(r) for r in machine.solve_schedule(cells)] == first
        assert recorded == [] and walked == []
