"""Self-time arithmetic and the wrappers' install/restore discipline."""

import pytest

import tracing


def spans(rows):
    """(key, start, end, parent) rows -> span_times arguments."""
    keys, starts, ends, parents = zip(*rows)
    return list(keys), list(starts), list(ends), list(parents)


def test_nested_spans_self_and_inclusive_time():
    # sim [0, 10] -> protocol [1, 5] -> network [2, 3]
    #             -> protocol [6, 8]
    times = tracing.span_times(*spans([
        ("sim", 0.0, 10.0, -1),
        ("protocol", 1.0, 5.0, 0),
        ("network", 2.0, 3.0, 1),
        ("protocol", 6.0, 8.0, 0),
    ]))
    assert times["sim"] == {"calls": 1, "s": 10.0, "self_s": 4.0}
    assert times["protocol"] == {"calls": 2, "s": 6.0, "self_s": 5.0}
    assert times["network"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert sum(row["self_s"] for row in times.values()) == 10.0


def test_layer_that_calls_itself_is_counted_once():
    # network.unicast [0, 4] -> network.traverse_path [1, 3] -> mem [1.5, 2]
    times = tracing.span_times(*spans([
        ("network", 0.0, 4.0, -1),
        ("network", 1.0, 3.0, 0),
        ("mem", 1.5, 2.0, 1),
    ]))
    assert times["network"]["calls"] == 2
    assert times["network"]["s"] == 4.0  # the outer span only
    assert times["network"]["self_s"] == 3.5  # 2 outside the inner + 1.5 inside it
    assert times["mem"]["s"] == 0.5


def test_wrapper_cost_is_subtracted_per_child_and_descendant():
    times = tracing.span_times(*spans([
        ("sim", 0.0, 10.0, -1),
        ("protocol", 1.0, 5.0, 0),
        ("network", 2.0, 3.0, 1),
    ]), wrapper_s=0.25)
    assert times["sim"]["s"] == pytest.approx(10.0 - 2 * 0.25)
    assert times["sim"]["self_s"] == pytest.approx(10.0 - 4.0 - 0.25)
    assert times["protocol"]["s"] == pytest.approx(4.0 - 0.25)
    assert times["protocol"]["self_s"] == pytest.approx(4.0 - 1.0 - 0.25)
    assert times["network"]["self_s"] == pytest.approx(1.0)


def test_tracer_records_parents_and_restores_classes():
    class Outer:
        def go(self, inner):
            return inner.step() + 1

    class Inner:
        def step(self):
            return 41

    originals = (vars(Outer)["go"], vars(Inner)["step"])
    tracer = tracing.Tracer()
    tracer.install([("outer.go", Outer, "go"), ("inner.step", Inner, "step")])
    try:
        assert Outer().go(Inner()) == 42
    finally:
        tracer.restore()
    assert (vars(Outer)["go"], vars(Inner)["step"]) == originals
    assert [tracer.labels[n] for n in tracer.names] == ["outer.go", "inner.step"]
    assert list(tracer.parents) == [-1, 0]
    assert tracer.starts[0] <= tracer.starts[1] <= tracer.ends[1] <= tracer.ends[0]
    times = tracer.times()
    assert times["outer"]["calls"] == times["inner"]["calls"] == 1
    tracer.clear()
    assert len(tracer.starts) == 0


def test_public_methods_skips_private_and_inherited():
    class Base:
        def shared(self):
            pass

    class Child(Base):
        def own(self):
            pass

        def _hidden(self):
            pass

        @staticmethod
        def helper():
            pass

    assert tracing.public_methods(Child) == ["own"]
    assert tracing.public_methods(Base, {"shared", "other"}) == ["shared"]
