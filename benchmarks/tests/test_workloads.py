import pytest

import workloads
from workloads import WORKLOADS, op_argv, op_config, op_seed, write_config


def test_generation_is_deterministic_for_a_seed(tmp_path):
    for workload in WORKLOADS.values():
        for index in (0, 1, 7):
            first = write_config(workload, index, tmp_path / "a.json").read_bytes()
            second = write_config(workload, index, tmp_path / "b.json").read_bytes()
            assert first == second
            assert op_argv(workload, 11, index, "c", "o", 2) == op_argv(workload, 11, index, "c", "o", 2)


def test_operations_draw_distinct_disorder():
    seeds = {op_seed(seed, index) for seed in (0, 1, 2) for index in range(100)}
    assert len(seeds) == 300
    assert all(0 <= s < 2**64 for s in seeds)


def test_single_shot_operations_step_the_realization_and_scans_do_not():
    chain = WORKLOADS["area-law-chain"]
    ground = WORKLOADS["single-shot-ground"]
    assert op_config(chain, 0) == op_config(chain, 5)
    assert [op_config(ground, i)["realization_index"] for i in range(3)] == [0, 1, 2]


def test_seed_range_is_enforced():
    with pytest.raises(ValueError):
        workloads.check_seed(-1)
    with pytest.raises(ValueError):
        workloads.check_seed(workloads.SEED_LIMIT)


def test_units_count_region_realizations():
    chain = WORKLOADS["area-law-chain"]
    assert chain.units == chain.config["realizations"] * len(chain.config["regions"])
    assert WORKLOADS["bulk-3d"].units == WORKLOADS["bulk-3d"].config["realizations"]
    assert WORKLOADS["single-shot-correlators"].units == WORKLOADS["single-shot-correlators"].config["realizations"]
