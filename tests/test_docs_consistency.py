"""Documentation stays true to the code: every module DESIGN.md and
README.md reference must import, every example they mention must exist,
and the experiment registry must cover every figure the paper's
evaluation contains."""

import importlib
import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_MODULE_RE = re.compile(r"`(repro(?:\.[a-z_]+)+)`")


def _referenced_modules(filename):
    with open(os.path.join(REPO, filename), encoding="utf-8") as handle:
        text = handle.read()
    names = set()
    for match in _MODULE_RE.finditer(text):
        name = match.group(1)
        # Strip attribute-like tails (repro.xsq.matcher.PathTracker).
        parts = name.split(".")
        while parts and parts[-1][:1].isupper():
            parts.pop()
        names.add(".".join(parts))
    return sorted(names)


class TestModuleReferences:
    @pytest.mark.parametrize("filename", ["DESIGN.md", "README.md",
                                          "EXPERIMENTS.md", "docs/API.md"])
    def test_every_referenced_module_imports(self, filename):
        for name in _referenced_modules(filename):
            parts = name.split(".")
            # The tail may be a function reference (repro.x.y.func);
            # accept if some prefix imports and exposes the rest.
            module = None
            tail = []
            while parts:
                try:
                    module = importlib.import_module(".".join(parts))
                    break
                except ModuleNotFoundError:
                    tail.insert(0, parts.pop())
            assert module is not None, name
            target = module
            for attr in tail:
                target = getattr(target, attr)  # raises if doc is stale


class TestExampleReferences:
    def test_readme_examples_exist(self):
        with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
            text = f.read()
        for match in re.finditer(r"examples/(\w+\.py)", text):
            assert os.path.exists(os.path.join(REPO, "examples",
                                               match.group(1))), match.group()

    def test_all_examples_are_documented(self):
        with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
            readme = f.read()
        for filename in os.listdir(os.path.join(REPO, "examples")):
            if filename.endswith(".py"):
                assert filename in readme, (
                    "example %s missing from README" % filename)


class TestExperimentCoverage:
    def test_registry_covers_every_evaluation_figure(self):
        from repro.bench.figures import EXPERIMENTS
        # The paper's evaluation section: Figures 14-22.
        for number in range(14, 23):
            assert "fig%d" % number in EXPERIMENTS

    def test_benchmark_file_per_experiment(self):
        bench_dir = os.path.join(REPO, "benchmarks")
        files = os.listdir(bench_dir)
        for number in range(14, 23):
            assert any("fig%d" % number in name for name in files), number

    def test_design_lists_every_benchmark_file(self):
        with open(os.path.join(REPO, "DESIGN.md"), encoding="utf-8") as f:
            design = f.read()
        bench_dir = os.path.join(REPO, "benchmarks")
        for filename in os.listdir(bench_dir):
            if filename.startswith("bench_fig") \
                    or filename.startswith("bench_ablation_multiquery") \
                    or filename.startswith("bench_ablation_schema"):
                assert filename in design, (
                    "benchmark %s missing from DESIGN.md" % filename)

    def test_experiments_md_mentions_every_figure(self):
        with open(os.path.join(REPO, "EXPERIMENTS.md"),
                  encoding="utf-8") as f:
            text = f.read()
        for number in range(14, 23):
            assert "Figure %d" % number in text, number


class TestGeneratedFigures:
    def test_figures_md_is_current(self):
        from repro.xsq.paperfigs import figures_path, render_figures
        with open(figures_path(), encoding="utf-8") as handle:
            assert handle.read() == render_figures(), (
                "docs/FIGURES.md is stale; regenerate with "
                "python -m repro.xsq.paperfigs --write")

    def test_figures_cover_all_templates(self):
        from repro.xsq.paperfigs import render_figures
        text = render_figures()
        for figure in ("Figure 5", "Figure 6", "Figure 7", "Figure 8",
                       "Figure 9", "Figure 10", "Figure 11", "Figure 12"):
            assert figure in text
        assert "bpdt(3,4)" in text  # the running example's positions
        assert "queue.upload()" in text


class TestTutorialSnippets:
    """The tutorial's claims, executed."""

    def test_example1_narration(self):
        from repro.xsq.engine import XSQEngine
        catalog = ('<pub><book id="1"><price>12.00</price>'
                   "<name>First</name><author>A</author>"
                   '<price type="discount">10.00</price></book>'
                   '<book id="2"><price>14.00</price><name>Second</name>'
                   "<author>A</author><author>B</author>"
                   '<price type="discount">12.00</price></book>'
                   "<year>2002</year></pub>")
        engine = XSQEngine("/pub[year=2002]/book[price<11]/author")
        assert engine.run(catalog) == ["<author>A</author>"]
        stats = engine.last_stats
        assert (stats.enqueued, stats.cleared, stats.emitted) == (3, 2, 1)

    def test_running_max_over_unbounded_feed(self):
        import itertools
        from repro.streaming.events import BeginEvent, EndEvent, TextEvent
        from repro.xsq.engine import XSQEngine

        def feed():
            yield BeginEvent("feed", {}, 1)
            for n in itertools.count():
                yield BeginEvent("q", {"sym": "XSQ"}, 2)
                yield TextEvent("q", str(n), 2)
                yield EndEvent("q", 2)

        engine = XSQEngine("/feed/q[@sym='XSQ']/max()")
        values = list(itertools.islice(engine.iter_results(feed()), 5))
        assert values == ["0", "1", "2", "3", "4"]

    def test_schema_expansion_snippet(self):
        import repro
        from repro import parse_dtd
        from repro.xsq.schema_opt import optimize
        dtd = parse_dtd("""
            <!ELEMENT pub (year?, book+)>
            <!ELEMENT book (title, author*)>
            <!ELEMENT year (#PCDATA)> <!ELEMENT title (#PCDATA)>
            <!ELEMENT author (#PCDATA)>
        """, root="pub")
        query = "//book[title]/author/text()"
        assert "/pub/book/author/text()" in optimize(dtd, query).describe()
        compiled = repro.compile(query, schema=dtd)
        assert compiled.engine_name == "xsq-fast"
        assert compiled.run("<pub><book><title>t</title>"
                            "<author>a</author></book></pub>") == ["a"]
