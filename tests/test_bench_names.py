"""The benchmark's traced names exist in the library.

``bench/tracing.py`` wraps the library's functions by name, and its
``Tracer`` constructor looks every one of them up, with no other effect.
Building one here makes a library change that drops or renames a traced
function fail the suite, not only a traced benchmark run.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_tracer_finds_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    traced = [f"{mod.__name__.rsplit('.', 1)[-1]}.{n}"
              for mod, names in tracing.TRACED.items() for n in names]
    assert tracer.names == [*traced, tracing.SETUP]
