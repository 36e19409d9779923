import json
import threading

import pytest

import tracer
from tracer import Span, Tracer, self_times, summarize
from workloads import WORKLOADS


def span(span_id, parent, start, end, thread=1, name="f"):
    return Span(span_id, parent, thread, name, start, end)


def test_self_time_subtracts_nested_children_once():
    spans = [
        span(0, None, 0.0, 10.0, name="outer"),
        span(1, 0, 2.0, 5.0, name="child"),
        span(2, 1, 3.0, 4.0, name="grandchild"),
        span(3, 0, 6.0, 8.0, name="child"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})
    assert summarize(spans)["child"] == (2, pytest.approx(4.0))


def test_self_time_ignores_children_in_other_threads():
    spans = [
        span(0, None, 0.0, 10.0, thread=1),
        span(1, 0, 1.0, 9.0, thread=2),
        span(2, 0, 2.0, 3.0, thread=1),
    ]
    assert self_times(spans) == pytest.approx({0: 9.0, 1: 8.0, 2: 1.0})


def test_spans_opened_in_a_worker_thread_are_roots_of_that_thread():
    recorder = Tracer()
    with recorder.span("parent"):
        worker = threading.Thread(target=lambda: _one_span(recorder, "worker"))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        _one_span(recorder, "child")
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["worker"].parent_id is None
    assert by_name["worker"].thread_id != by_name["parent"].thread_id
    assert by_name["child"].parent_id == by_name["parent"].span_id


def _one_span(recorder, name):
    with recorder.span(name):
        pass


def test_install_wraps_aliases_and_uninstall_restores():
    import oscent.experiments
    import oscent.spectral

    original = oscent.spectral.eigensystem
    recorder = Tracer()
    recorder.install()
    try:
        assert oscent.spectral.eigensystem is not original
        assert oscent.experiments.eigensystem is oscent.spectral.eigensystem
        assert recorder.absent == []
    finally:
        recorder.uninstall()
    assert oscent.spectral.eigensystem is original
    assert oscent.experiments.eigensystem is original


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "spectral", ("eigensystem", "no_such_function"))
    recorder = Tracer()
    recorder.install()
    recorder.uninstall()
    assert recorder.absent == ["spectral.no_such_function"]


def test_trace_sees_every_region_rebuilding_the_realization(tmp_path):
    from oscent.cli import main

    realizations = 2
    config = dict(WORKLOADS["area-law-chain"].config, realizations=realizations)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    recorder = Tracer(outcomes={"hamiltonian.validate_coupling": lambda r: r.is_positive_definite})
    recorder.install()
    try:
        with recorder.span("cli.scan"):
            code = main(["scan", "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "1", "--threads", "2"])
    finally:
        recorder.uninstall()
    assert code == 0
    summary = summarize(recorder.spans)
    regions = len(config["regions"])
    assert summary["hamiltonian.assemble_anderson"][0] == regions * realizations
    assert summary["spectral.eigensystem"][0] == 2 * regions * realizations
    assert recorder.outcome_counts["hamiltonian.validate_coupling"] == regions * realizations
    assert summary["cli.scan"][0] == 1
