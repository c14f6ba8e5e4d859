"""The benchmark's span tracer (bench/tracing.py) wraps library functions
at the module attributes their callers look up. A rename or a moved call
would leave it silently tracing nothing, so one closed-loop run must
reach every traced attribute."""

from collections import Counter
from pathlib import Path

from colavmpc import scenarios, sim


def test_every_trace_point_is_called(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing

    calls = Counter()
    for module, attr, name in tracing.TRACE_POINTS:
        fn = getattr(module, attr)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    sim.run(scenarios.build_scenario("head_on", noise="radar"))
    missing = [name for _, _, name in tracing.TRACE_POINTS if calls[name] == 0]
    assert not missing, missing
