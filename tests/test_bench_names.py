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


def test_traced_gluing_verbs_record_their_gluer(monkeypatch, capsys):
    """The tracer binds its wrappers in place of module attributes, so a
    gluing verb must look its gluer up when it runs; one bound at import
    time would keep the unwrapped function and lose its span."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    from sheafmealy import cli

    for verb, span in (("glue-cogerm", "localglobal.glue_cogerm"),
                       ("glue-beh", "localglobal.glue_behavioral")):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert cli.main(["check", verb, "cex-beh-gluing-repaired"]) == 0
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert span in {tracer.names[name_id] for name_id, *_ in tracer.spans}
