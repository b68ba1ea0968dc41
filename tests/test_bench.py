"""The layer microbenchmark script runs: every kernel is called once.  The
benchmark's tracer finds every kellerlab name it wraps."""

import importlib
import importlib.util
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name, *parts):
    spec = importlib.util.spec_from_file_location(name, os.path.join(_ROOT, *parts))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_microbench_kernel_runs_once():
    kernels = _load("microbench", "bench", "microbench.py").kernels()
    names = [name for name, _, _ in kernels]
    assert len(names) == len(set(names))
    assert {"multipoly_mul_zeta5", "multipoly_substitute_q", "divide_exact_q",
            "matrix_det_q", "strong_nilpotence_flag_q", "strong_nilpotence_flag_zeta3",
            "quasi_test_q", "linear_form_power_zeta5", "is_pure_power_q",
            "orthogonality_f666_d6", "matrix_rank_q", "invert_triangular_q",
            "matrix_power_q", "sum_condition_det_q", "change_basis_f666_d4",
            "report_dumps_f666_d5", "sum_condition_conj_n4_d3",
            "adapted_basis_f666_d4", "adapted_basis_f667_d5", "map_from_json_f667_d6",
            "numerators_adapted_basis_f667_d5", "sum_vanishes_at_n4_d6",
            "certificate_from_json_f667_d6", "round_trip_f666_d6",
            "identity_pl667_d9"} <= set(names)
    for name, call, number in kernels:
        assert number >= 1, name
        call()


def test_every_traced_name_resolves():
    # the tracer looks each (module, attribute path) up with vars() and
    # raises KeyError on a name the program no longer defines
    tracing = _load("tracing", "perfbench", "tracing.py")
    for module_name, path, _, _ in tracing.TRACED:
        owner = importlib.import_module("kellerlab." + module_name)
        for part in path.split("."):
            assert part in vars(owner), (module_name, path)
            owner = vars(owner)[part]
        assert callable(owner), (module_name, path)
    with tracing.Tracer():
        pass
