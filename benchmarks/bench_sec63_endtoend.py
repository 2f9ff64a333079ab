"""Sec. 6.3 — end-to-end registration speedup and power reduction.

The paper's headline: accelerating only the KD-tree searches speeds up
end-to-end registration by 41.7 % (DP7) / 13.6 % (DP4) over the
CPU+GPU baseline, 86.6 % over CPU-only, and cuts system power 3.0x.

This bench couples the measured quantities end to end: the KD-tree
time fraction comes from the profiled pipeline run (the Fig. 4b
measurement), the search speedup from the Fig. 11 platform comparison,
and the Amdahl + time-weighted-power model in
:mod:`repro.accel.endtoend` produces the system-level numbers.
"""

import pytest

from benchmarks.conftest import write_report
from repro.accel import CPUModel, EndToEndModel, GPUModel, TigrisSimulator
from repro.registration import Pipeline, dp7_accuracy


@pytest.fixture(scope="module")
def endtoend_data(medium_sequence, dp7_workloads):
    # 1. Measure the KD-tree search fraction on a real DP7 run (Fig. 4b).
    source, target, _ = medium_sequence.pair(0)
    timing = Pipeline(dp7_accuracy()).register(source, target).profiler
    kdtree_fraction = timing.kdtree_fractions()["search"]

    # 2. Measure the search speedup of the accelerator over the GPU and
    # CPU baselines (Fig. 11).
    gpu, cpu = GPUModel(), CPUModel()
    accel = TigrisSimulator().simulate_many(list(dp7_workloads["2skd"].values()))
    gpu_search = sum(gpu.run(w).time_seconds for w in dp7_workloads["2skd"].values())
    cpu_search = sum(cpu.run(w).time_seconds for w in dp7_workloads["kd"].values())
    search_speedup_vs_gpu = gpu_search / accel.time_seconds
    search_speedup_vs_cpu = cpu_search / accel.time_seconds
    return (
        kdtree_fraction,
        timing.total,
        accel,
        search_speedup_vs_gpu,
        search_speedup_vs_cpu,
    )


def test_sec63_endtoend(benchmark, endtoend_data):
    (
        kdtree_fraction,
        baseline_total,
        accel,
        speedup_vs_gpu,
        speedup_vs_cpu,
    ) = endtoend_data
    gpu, cpu = GPUModel(), CPUModel()

    model = EndToEndModel(
        kdtree_fraction=kdtree_fraction,
        baseline_total_seconds=baseline_total,
        host_watts=cpu.power_watts,
    )
    e2e_speedup, e2e_power = benchmark(
        lambda: model.speedup_over_baseline(
            speedup_vs_gpu, gpu.power_watts, accel.power_watts
        )
    )
    cpu_speedup, _ = model.speedup_over_baseline(
        speedup_vs_cpu, cpu.power_watts, accel.power_watts
    )

    lines = [
        "Sec. 6.3 — end-to-end registration improvement (DP7)",
        "",
        f"measured KD-tree search fraction: {100 * kdtree_fraction:.1f} % "
        "(Fig. 4b)",
        f"search speedup vs GPU baseline:   {speedup_vs_gpu:.1f}x (Fig. 11)",
        "",
        f"end-to-end speedup vs CPU+GPU:    {e2e_speedup:.2f}x  "
        f"({100 * (1 - 1 / e2e_speedup):.1f} % time reduction; paper: 41.7 %)",
        f"end-to-end speedup vs CPU-only:   {cpu_speedup:.2f}x  "
        f"({100 * (1 - 1 / cpu_speedup):.1f} % time reduction; paper: 86.6 %)",
        f"end-to-end power reduction:       {e2e_power:.2f}x  (paper: 3.0x)",
        "",
        "(note: our Python host makes the measured KD-tree fraction",
        " higher than the paper's C++ host, so the Amdahl gains here",
        " bound the paper's from above)",
    ]
    write_report("sec63_endtoend", "\n".join(lines))

    # End-to-end gains are large but Amdahl-bounded.
    assert e2e_speedup > 1.3
    assert e2e_speedup < speedup_vs_gpu
    assert 1.0 / e2e_speedup > 1.0 / speedup_vs_gpu
    # The paper's 41.7 % reduction band: ours is at least that (higher
    # measured search fraction -> larger Amdahl gain).
    assert (1 - 1 / e2e_speedup) > 0.40
    # CPU-only comparison is even more favourable (paper: 86.6 %).
    assert cpu_speedup > e2e_speedup
    # System power reduction in the paper's band.
    assert 1.5 < e2e_power < 6.0
