"""Command-line interface tests."""

import io

import pytest

from repro.api import select_engine
from repro.cli import main
from repro.xsq.engine import XSQEngine
from repro.xsq.nc import XSQEngineNC


@pytest.fixture
def doc(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text("<pub><book id='1'><name>First</name></book>"
                    "<year>2002</year></pub>")
    return str(path)


class TestEngineSelection:
    def test_auto_prefers_fast_for_element_output(self):
        from repro.xsq.fastpath import XSQEngineFast
        assert isinstance(select_engine("/a/b", "auto"), XSQEngineFast)

    def test_auto_prefers_nc_outside_fast_class(self):
        assert isinstance(select_engine("/a[not(b)]/text()", "auto"),
                          XSQEngineNC)

    def test_auto_falls_back_to_f_for_closures(self):
        assert isinstance(select_engine("//a", "auto"), XSQEngine)

    def test_forced_choices(self):
        assert isinstance(select_engine("/a", "f"), XSQEngine)
        assert isinstance(select_engine("/a", "nc"), XSQEngineNC)


class TestMain:
    def test_basic_query(self, doc, capsys):
        assert main(["/pub/book/name/text()", doc]) == 0
        assert capsys.readouterr().out == "First\n"

    def test_element_output(self, doc, capsys):
        assert main(["/pub/year", doc]) == 0
        assert capsys.readouterr().out == "<year>2002</year>\n"

    def test_aggregate(self, doc, capsys):
        assert main(["/pub/book/count()", doc]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_streaming_flag(self, doc, capsys):
        assert main(["--streaming", "/pub/book/count()", doc]) == 0
        assert capsys.readouterr().out == "1\n1\n"

    def test_stats_flag(self, doc, capsys):
        assert main(["--stats", "/pub/book/name/text()", doc]) == 0
        err = capsys.readouterr().err
        assert "RunStats" in err

    def test_explain(self, capsys):
        assert main(["--explain", "/a[x]/b"]) == 0
        assert "bpdt(0,0)" in capsys.readouterr().out

    def test_dot(self, capsys):
        assert main(["--dot", "/a/b"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("<a><b>s</b></a>"))
        assert main(["/a/b/text()"]) == 0
        assert capsys.readouterr().out == "s\n"

    def test_engine_f_flag(self, doc, capsys):
        assert main(["--engine", "f", "/pub/book/@id", doc]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_bad_query_exit_code(self, doc, capsys):
        assert main(["/a[", doc]) == 2
        assert "error" in capsys.readouterr().err

    def test_nc_on_closure_query_fails_cleanly(self, doc, capsys):
        assert main(["--engine", "nc", "//a", doc]) == 2
        assert "closure" in capsys.readouterr().err.lower()

    def test_unsupported_feature_message(self, doc, capsys):
        assert main(["/a[last()]", doc]) == 2
        assert "subset" in capsys.readouterr().err


class TestReverseAxes:
    def test_parent_axis_rewritten(self, doc, capsys):
        assert main(["/pub/book/parent::pub/year/text()", doc]) == 0
        assert capsys.readouterr().out == "2002\n"

    def test_dotdot_rewritten(self, doc, capsys):
        assert main(["/pub/book/../year/text()", doc]) == 0
        assert capsys.readouterr().out == "2002\n"

    def test_provably_empty_rewrite(self, doc, capsys):
        assert main(["/pub/book/parent::zzz", doc]) == 0
        assert capsys.readouterr().out == ""

    def test_inexpressible_axis_reports_error(self, doc, capsys):
        assert main(["/pub/book/ancestor::pub", doc]) == 2
        assert "rewritten" in capsys.readouterr().err


class TestValidationFlags:
    @pytest.fixture
    def dtd_file(self, tmp_path):
        path = tmp_path / "pub.dtd"
        path.write_text("""
            <!ELEMENT pub (book*, year?)>
            <!ELEMENT book (name)>
            <!ELEMENT name (#PCDATA)>
            <!ELEMENT year (#PCDATA)>
            <!ATTLIST book id CDATA #REQUIRED>
        """)
        return str(path)

    def test_valid_document_passes(self, doc, dtd_file, capsys):
        assert main(["--dtd", dtd_file, "/pub/book/name/text()", doc]) == 0
        assert capsys.readouterr().out == "First\n"

    def test_invalid_document_reported(self, tmp_path, dtd_file, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<pub><book><name>x</name></book></pub>")  # no @id
        assert main(["--dtd", dtd_file, "/pub/book/name/text()",
                     str(bad)]) == 2
        assert "required attribute" in capsys.readouterr().err

    def test_check_flag_accepts_well_formed(self, doc, capsys):
        assert main(["--check", "/pub/year/text()", doc]) == 0
        assert capsys.readouterr().out == "2002\n"

    def test_check_and_dtd_compose(self, doc, dtd_file, capsys):
        assert main(["--check", "--dtd", dtd_file, "/pub/year/text()",
                     doc]) == 0
        assert capsys.readouterr().out == "2002\n"


class TestQueriesFile:
    def test_batch_mode_single_pass(self, doc, tmp_path, capsys):
        qfile = tmp_path / "queries.txt"
        qfile.write_text("# subscriptions\n"
                         "/pub/book/name/text()\n"
                         "\n"
                         "/pub/year/text()\n")
        assert main(["--queries-file", str(qfile), doc]) == 0
        out = capsys.readouterr().out
        assert "# /pub/book/name/text() (1 results)" in out
        assert "First" in out and "2002" in out

    def test_empty_queries_file_errors(self, doc, tmp_path, capsys):
        qfile = tmp_path / "empty.txt"
        qfile.write_text("# only comments\n")
        assert main(["--queries-file", str(qfile), doc]) == 2

    def test_missing_query_without_file_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestBulkSubcommand:
    @pytest.fixture
    def docs(self, tmp_path):
        paths = []
        for i in range(3):
            path = tmp_path / ("doc%d.xml" % i)
            path.write_text("<pub><year>%d</year>"
                            "<book><name>n%d</name></book></pub>"
                            % (2000 + i, i))
            paths.append(str(path))
        return paths

    def test_bulk_over_files(self, docs, capsys):
        assert main(["bulk", "/pub/year/text()", "--workers", "2",
                     "--chunk-docs", "1"] + docs) == 0
        out = capsys.readouterr().out
        # Argument order, one header per document.
        assert out.index("2000") < out.index("2001") < out.index("2002")
        for path in docs:
            assert "# %s (1 results)" % path in out

    def test_bulk_serial_matches_pool(self, docs, capsys):
        assert main(["bulk", "/pub/year/text()", "--workers", "1"]
                    + docs) == 0
        serial = capsys.readouterr().out
        assert main(["bulk", "/pub/year/text()", "--workers", "2",
                     "--chunk-docs", "1"] + docs) == 0
        assert capsys.readouterr().out == serial

    def test_bulk_sources_from(self, docs, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_text("# corpus\n%s\n" % "\n".join(docs[1:]))
        assert main(["bulk", "/pub/year/text()", docs[0],
                     "--sources-from", str(listing)]) == 0
        out = capsys.readouterr().out
        assert "2000" in out and "2001" in out and "2002" in out

    def test_bulk_queries_file(self, docs, tmp_path, capsys):
        qfile = tmp_path / "queries.txt"
        qfile.write_text("/pub/year/text()\n//name/text()\n")
        assert main(["bulk", "--queries-file", str(qfile),
                     docs[0], docs[1]]) == 0
        out = capsys.readouterr().out
        assert "## /pub/year/text() (1 results)" in out
        assert "n0" in out and "n1" in out

    def test_bulk_stats_flag(self, docs, capsys):
        assert main(["bulk", "/pub/year/text()", "--stats",
                     "--workers", "2"] + docs) == 0
        err = capsys.readouterr().err
        assert "documents=3" in err and "RunStats" in err

    def test_bulk_keep_going(self, docs, tmp_path, capsys):
        bad = tmp_path / "broken.xml"
        bad.write_text("<unclosed>")
        argv = ["bulk", "/pub/year/text()", docs[0], str(bad), docs[1],
                "--keep-going", "--workers", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        assert "2000" in captured.out and "2001" in captured.out

    def test_bulk_failure_stops_by_default(self, docs, tmp_path, capsys):
        bad = tmp_path / "broken.xml"
        bad.write_text("<unclosed>")
        assert main(["bulk", "/pub/year/text()", docs[0], str(bad)]) == 2
        assert "xsq: error" in capsys.readouterr().err

    def test_bulk_requires_sources(self):
        with pytest.raises(SystemExit):
            main(["bulk", "/pub/year/text()"])
