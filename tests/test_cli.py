"""End-to-end CLI runs through main(): formats, configs, exit codes."""

from __future__ import annotations

import csv
import io
import json
import math

import pytest
from test_counting import deadline

from turanext import __version__
from turanext.cli import SWEEP_ROW_CAP, main
from turanext.closedform import Params, anchored_degree_count
from turanext.graphs import canonical_graph, graph6_decode


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    return comments, list(csv.DictReader(io.StringIO(body)))


# ---------------------------------------------------------------------------
# headline examples


def test_turan_command(capsys):
    code, out, _ = run_cli(capsys, "turan", "n=7", "r=3", "m=3")
    assert code == 0
    comments, rows = parse_csv(out)
    assert comments[0] == "# command: turan"
    assert f"# version: {__version__}" in comments
    assert rows == [{"n": "7", "r": "3", "m": "3", "count": "12", "edges": "16"}]


def test_turan_command_prints_counts_of_any_length(capsys):
    # C(20000, 10000) has 6019 digits, past Python's default 4300-digit limit
    code, out, _ = run_cli(capsys, "turan", "n=20000", "r=20000", "m=10000")
    assert code == 0
    count = parse_csv(out)[1][0]["count"]
    assert len(count) == 6019
    assert count == str(math.comb(20000, 10000))


def test_turan_command_refuses_counts_past_the_bit_cap(capsys):
    # C(4 000 000, 2 000 000) would have about 4 million bits
    code, _, err = run_cli(capsys, "turan", "n=4000000", "r=4000000", "m=2000000")
    assert code == 3 and "bits" in err


def test_classify_command(capsys):
    code, out, _ = run_cli(capsys, "classify", "r=2", "s=1", "t=3")
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert row["case"] == "Boundary"
    assert row["discriminant"] == "2"
    assert row["balance_threshold"] == "2"


def test_exsearch_command(capsys):
    code, out, _ = run_cli(capsys, "exsearch", "n=6", "T=K3", "H=K4")
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert row["best"] == "8"
    assert row["exhaustive"] == "true"
    assert row["unique_up_to_iso"] == "true"
    witness = graph6_decode(row["witness_graph6"])
    assert witness.n == 6 and witness.edge_count() == 12


def test_count_command(capsys):
    code, out, _ = run_cli(capsys, "count", "G=K_{2,2,2}", "T=C4")
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert row["copies"] == "15"
    assert row["embeddings"] == "120"
    assert row["pattern_automorphisms"] == "8"


def test_count_command_counts_once(capsys, monkeypatch):
    """The embeddings column is the one copy count times |Aut(T)|."""
    from turanext import counting

    def refuse(*args):
        raise AssertionError("count_embeddings would count the copies again")

    monkeypatch.setattr(counting, "count_embeddings", refuse)
    code, out, _ = run_cli(capsys, "count", "G=K_{2,2,2}", "T=C4")
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert (row["copies"], row["embeddings"], row["pattern_automorphisms"]) == ("15", "120", "8")


def test_count_command_at_large_automorphism_groups(capsys):
    """11! embeddings of K11 in itself are one copy; neither count lists them."""
    with deadline(60):
        code, out, _ = run_cli(capsys, "count", "G=K11", "T=K11")
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert row["copies"] == "1"
    assert row["embeddings"] == row["pattern_automorphisms"] == "39916800"


def test_f_eval_command(capsys):
    code, out, _ = run_cli(capsys, "f-eval", "r=2", "s=1", "t=2", "a=3", "n=8")
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert row["value"] == str(anchored_degree_count(Params(2, 1, 2), 3, 8))


def test_multipartite_command(capsys):
    code, out, _ = run_cli(capsys, "multipartite", "n=6", "r=2", "s=1", "t=3")
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert row["composition"] == "1+5"
    assert row["count"] == "10"
    assert row["unique"] == "true"


def test_biex_command(capsys):
    code, out, _ = run_cli(capsys, "biex", "n=6", "H=K_{2,2,2}")
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert row["value"] == "7"
    assert row["exhaustive"] == "true"
    witness = graph6_decode(row["witness_graph6"])
    assert witness.n == 6 and witness.edge_count() == 7
    # the witness is a class representative, so it is its own canonical graph
    assert canonical_graph(witness) == witness


def test_construct_command(capsys):
    code, out, _ = run_cli(capsys, "biex", "n=8", "H=K_{2,2,2}")
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert row["witness_graph6"] == "G{EQPO"
    witness = graph6_decode(row["witness_graph6"])
    assert canonical_graph(witness) == witness
    # the overlay is grown inside part 0 in a fixed pair order, so its bytes
    # are pinned too
    code, out, _ = run_cli(capsys, "construct", "n=8", "H=K_{2,2,2}", "m=2")
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert (row["count"], row["edges"], row["graph6"]) == ("19", "19", "G[~vf_")
    g = graph6_decode(row["graph6"])
    assert g.n == 8 and g.edge_count() == 19


def test_decomp_command(capsys, tmp_path):
    export = tmp_path / "members.g6"
    code, out, _ = run_cli(capsys, "decomp", "H=K3", "--export", str(export))
    assert code == 0
    rows = parse_csv(out)[1]
    assert len(rows) == 1
    assert rows[0]["minimal"] == "true"
    member = graph6_decode(export.read_text().strip())
    assert member.edge_count() == 1


# ---------------------------------------------------------------------------
# host graphs from files


def test_count_from_edge_list_file(capsys, tmp_path):
    gfile = tmp_path / "host.txt"
    gfile.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = run_cli(capsys, "count", f"Gfile={gfile}", "T=C4")
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert row["copies"] == "1"
    assert row["host_edges"] == "4"


def test_count_from_graph6_file(capsys, tmp_path):
    gfile = tmp_path / "host.g6"
    gfile.write_text("C~\n")  # complete graph on 4 vertices
    code, out, _ = run_cli(capsys, "count", f"Gfile={gfile}", "T=K3")
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert row["copies"] == "4"


def test_count_host_source_is_exclusive(capsys, tmp_path):
    gfile = tmp_path / "host.g6"
    gfile.write_text("C~\n")
    code, _, err = run_cli(capsys, "count", "G=K4", f"Gfile={gfile}", "T=K3")
    assert code == 2 and "exactly one" in err
    code, _, _ = run_cli(capsys, "count", "T=K3")
    assert code == 2


# ---------------------------------------------------------------------------
# output formats and files


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "turan", "n=7", "r=3", "m=3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "turan"
    assert report["parameters"] == {"n": "7", "r": "3", "m": "3"}
    assert report["rows"][0]["count"] == "12"
    assert isinstance(report["timing_seconds"], float)
    assert report["version"] == __version__


def test_output_file_is_written_and_stdout_stays_quiet(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "turan", "n=7", "r=3", "m=3", "--output", str(target))
    assert code == 0 and out == ""
    code, direct, _ = run_cli(capsys, "turan", "n=7", "r=3", "m=3")
    assert target.read_text() == direct


def test_reruns_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "exsearch", "n=5", "T=K3", "H=K4")
    _, second, _ = run_cli(capsys, "exsearch", "n=5", "T=K3", "H=K4")
    assert first == second


def test_export_witnesses(capsys, tmp_path):
    export = tmp_path / "witnesses.g6"
    code, out, _ = run_cli(
        capsys, "exsearch", "n=6", "T=K3", "H=K4", "--export", str(export)
    )
    assert code == 0
    (row,) = parse_csv(out)[1]
    lines = export.read_text().strip().splitlines()
    assert len(lines) == int(row["witness_count"])
    for line in lines:
        assert graph6_decode(line).n == 6


def test_export_without_payload_is_an_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "turan", "n=7", "r=3", "m=3", "--export", str(tmp_path / "x")
    )
    assert code == 2 and "nothing to export" in err


# ---------------------------------------------------------------------------
# config files


def test_config_file_supplies_params(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# balanced tripartite\ncommand = turan\nn = 7\nr = 3\nm = 3\n")
    code, out, _ = run_cli(capsys, "turan", "--config", str(cfg))
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert row["count"] == "12"


def test_cli_params_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 6\nr = 3\nm = 3\n")
    code, out, _ = run_cli(capsys, "turan", "--config", str(cfg), "n=7")
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert row["n"] == "7" and row["count"] == "12"


def test_config_command_mismatch(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = classify\nn = 7\nr = 3\nm = 3\n")
    code, _, err = run_cli(capsys, "turan", "--config", str(cfg))
    assert code == 2 and "command" in err


def test_config_can_route_output(capsys, tmp_path):
    target = tmp_path / "report.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 7\nr = 3\nm = 3\nformat = json\noutput = {target}\n")
    code, out, _ = run_cli(capsys, "turan", "--config", str(cfg))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["rows"][0]["count"] == "12"


def test_config_format_must_be_known(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 7\nr = 3\nm = 3\nformat = xml\n")
    code, out, err = run_cli(capsys, "turan", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "turanext: config error: format='xml' must be one of csv, json\n"


def test_config_can_route_export(capsys, tmp_path):
    export = tmp_path / "witnesses.g6"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 6\nT = K3\nH = K4\nexport = {export}\n")
    code, out, _ = run_cli(capsys, "exsearch", "--config", str(cfg))
    comments, (row,) = parse_csv(out)
    assert code == 0 and not any("export" in line for line in comments)
    assert export.read_text().split() == [row["witness_graph6"]]


def test_flags_beat_routed_config_values(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"n = 6\nT = K3\nH = K4\nformat = csv\n"
        f"output = {tmp_path / 'cfg.out'}\nexport = {tmp_path / 'cfg.g6'}\n"
    )
    report, export = tmp_path / "flag.json", tmp_path / "flag.g6"
    code, out, _ = run_cli(
        capsys, "exsearch", "--config", str(cfg),
        "--output", str(report), "--format", "json", "--export", str(export),
    )
    assert (code, out) == (0, "")
    (row,) = json.loads(report.read_text())["rows"]
    assert export.read_text().split() == [row["witness_graph6"]]
    assert not (tmp_path / "cfg.out").exists() and not (tmp_path / "cfg.g6").exists()


def test_config_syntax_errors(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n 7\n")
    code, _, err = run_cli(capsys, "turan", "--config", str(bad))
    assert code == 2 and "key = value" in err
    code, _, _ = run_cli(capsys, "turan", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_parameter_is_rejected(capsys):
    code, _, err = run_cli(capsys, "turan", "n=7", "r=3", "m=3", "bogus=1")
    assert code == 2 and "bogus" in err


def test_unparsable_value_is_rejected(capsys):
    code, _, _ = run_cli(capsys, "turan", "n=seven", "r=3", "m=3")
    assert code == 2


def test_missing_required_parameter(capsys):
    code, _, err = run_cli(capsys, "turan", "n=7", "r=3")
    assert code == 2 and "m" in err


def test_search_cap_maps_to_exit_3(capsys):
    code, _, _ = run_cli(capsys, "exsearch", "n=20", "T=K3", "H=K4")
    assert code == 3
    code, _, _ = run_cli(capsys, "biex", "n=11", "H=K_{2,2,2}")
    assert code == 3
    code, _, err = run_cli(capsys, "construct", "n=41", "H=K_{2,2,2}", "m=2")
    assert code == 3 and "capped at n = 40" in err


def test_non_exact_division_maps_to_exit_4(capsys, monkeypatch):
    from turanext import closedform

    monkeypatch.setattr(closedform, "pointed_pattern_count", lambda parts, p: 7)
    code, out, err = run_cli(capsys, "multipartite", "n=6", "r=2", "s=2", "t=2")
    assert (code, out) == (4, "")
    assert err.startswith("turanext: internal check failed: ")


def test_exsearch_local_labels_symmetric_witness(capsys):
    # The witness is T(32, 3), whose unpruned search tree is factorial in size.
    code, out, _ = run_cli(
        capsys, "exsearch", "mode=local", "n=32", "T=K3", "H=K4", "iterations=2"
    )
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert row["best"] == "1210"


def test_exsearch_edgeless_forbidden_pattern_exits_2(capsys):
    """Every 3-vertex graph contains K1, so both routes reject the request
    before searching, with the same message."""
    errors = []
    for mode in ("exhaustive", "local"):
        code, out, err = run_cli(capsys, "exsearch", "n=3", "T=K2", "H=K1", f"mode={mode}")
        assert (code, out) == (2, "")
        errors.append(err)
    assert errors[0] == errors[1]
    assert "H has no edges" in errors[0]


def test_exsearch_multipartite_mode_is_redirected(capsys):
    code, _, err = run_cli(
        capsys, "exsearch", "n=6", "T=K3", "H=K4", "mode=multipartite"
    )
    assert code == 2 and "multipartite" in err


def test_bad_format_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["turan", "n=7", "r=3", "m=3", "--format", "xml"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# verify plumbing


def test_verify_fast_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "curvature")
    assert code == 0
    (row,) = parse_csv(out)[1]
    assert row["criterion"] == "curvature"
    assert row["passed"] == "true"
    assert row["detail"]


def test_verify_rejects_parameters(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 7\n")
    code, _, err = run_cli(capsys, "verify", "curvature", "--config", str(cfg))
    assert code == 2 and "suite" in err


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "no-such-suite"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# analytic sweeps


def test_sweep_offset_gain_columns_and_values(capsys):
    code, out, _ = run_cli(
        capsys,
        "analytic-sweep",
        "quantity=offset-gain",
        "r=2",
        "s=1",
        "t=1",
        "n=10",
        "xstep=1",
    )
    assert code == 0
    rows = parse_csv(out)[1]
    assert list(rows[0]) == ["r", "s", "t", "n_or_x", "a_or_alpha", "quantity", "value"]
    by_x = {row["a_or_alpha"]: row["value"] for row in rows}
    assert by_x["0"] == "0" and by_x["2"] == "-4" and by_x["4"] == "-16"


def test_sweep_step_poly_grid(capsys):
    code, out, _ = run_cli(
        capsys,
        "analytic-sweep",
        "quantity=step-poly",
        "r=2",
        "s=1",
        "t=1",
        "zmin=0.0",
        "zmax=2.0",
        "points=5",
    )
    assert code == 0
    rows = parse_csv(out)[1]
    assert [row["n_or_x"] for row in rows] == ["0.0", "0.5", "1.0", "1.5", "2.0"]
    assert [float(row["value"]) for row in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_sweep_gain_rate_requires_alpha(capsys):
    code, _, err = run_cli(
        capsys, "analytic-sweep", "quantity=gain-rate", "r=2", "s=1", "t=2"
    )
    assert code == 2 and "alpha" in err


def test_sweep_grid_is_capped_before_any_row_is_made(capsys):
    """Every row is held until the output is written, so a grid over the cap
    exits 2 before computing anything."""
    step_poly = ("analytic-sweep", "quantity=step-poly", "r=2", "s=1", "t=1")
    code, _, err = run_cli(capsys, *step_poly, f"points={10**9}")
    assert code == 2 and str(SWEEP_ROW_CAP) in err
    ratio = ("analytic-sweep", "quantity=step-ratio-error", "r=2", "s=1", "t=1")
    code, _, err = run_cli(capsys, *ratio, f"n={10**30}", "astep=1")
    assert code == 2 and str(SWEEP_ROW_CAP) in err
    offset = ("analytic-sweep", "quantity=offset-gain", "r=2", "s=1", "t=1", f"n={10**30}")
    code, _, _ = run_cli(capsys, *offset, "xstep=1")
    assert code == 2
    code, out, _ = run_cli(capsys, *step_poly, f"points={SWEEP_ROW_CAP}")
    assert code == 0 and len(parse_csv(out)[1]) == SWEEP_ROW_CAP
    code, out, _ = run_cli(capsys, *offset, f"xmax={SWEEP_ROW_CAP - 1}", "xstep=1")
    assert code == 0 and len(parse_csv(out)[1]) == SWEEP_ROW_CAP


def test_sweep_overflow_maps_to_exit_2(capsys):
    """A float that leaves the double range is a bad input, not a crash, and
    the message names the quantity, the grid point and the remedy."""
    sweep = ("analytic-sweep", "r=2", "s=1", "t=30", "points=2")
    code, out, err = run_cli(capsys, *sweep, "quantity=step-poly", "zmax=1e300")
    assert (code, out) == (2, "")
    assert "step-poly overflowed at z=1e+300; lower zmax" in err
    code, out, err = run_cli(capsys, *sweep, "quantity=gain-rate", "alpha=1", "xmax=1e300")
    assert (code, out) == (2, "")
    assert "gain-rate overflowed at x=1e+300, alpha=1.0; lower alpha or xmax" in err


def test_sweep_infinite_value_exits_2(capsys):
    """A product that leaves the double range without raising gives inf;
    it is refused like an overflow instead of printed."""
    sweep = ("analytic-sweep", "quantity=gain-rate", "r=2", "s=1", "t=2", "points=2")
    code, out, err = run_cli(capsys, *sweep, "alpha=1e300")
    assert (code, out) == (2, "")
    assert "gain-rate overflowed at x=1000.0, alpha=1e+300; lower alpha or xmax" in err


def test_sweep_rejects_unknown_quantity(capsys):
    code, _, _ = run_cli(
        capsys, "analytic-sweep", "quantity=spectra", "r=2", "s=1", "t=2"
    )
    assert code == 2
