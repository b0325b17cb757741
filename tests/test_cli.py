from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperch import (
    CaseSpec,
    DiagRecord,
    ModelParams,
    build_grid,
    convergence_study,
    init_case,
    init_state,
)
from hyperch.cli import (
    ConfigError,
    RunConfig,
    config_text,
    main,
    parse_config,
    trace_csv_path,
    write_diag_csv,
    write_vtk_snapshot,
)
from hyperch.operators import to_full_grid


# ---- config parsing --------------------------------------------------------


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg.params.M1 == 0.001 and cfg.params.M2 == 0.001
    assert cfg.params.tau == 1e-4
    assert cfg.n == 100
    assert cfg.params.beta1 == 0.0 and cfg.params.beta2 == 0.0
    assert cfg.params.eps == pytest.approx(0.02) and cfg.params.delta == pytest.approx(0.02)
    assert cfg.params.s1 == pytest.approx(5000.0) and cfg.params.s2 == pytest.approx(5000.0)


def test_derived_widths_track_n():
    cfg = parse_config("n = 50\n")
    assert cfg.params.eps == pytest.approx(0.04) and cfg.params.delta == pytest.approx(0.04)
    assert cfg.params.s1 == pytest.approx(1250.0) and cfg.params.s2 == pytest.approx(1250.0)


def test_explicit_eps_not_overridden():
    cfg = parse_config("n = 50\neps = 0.1\n")
    assert cfg.params.eps == 0.1
    assert cfg.params.s1 == pytest.approx(2.0 / 0.01)
    assert cfg.params.delta == pytest.approx(0.04)


def test_constraint_error_names_key():
    with pytest.raises(ConfigError, match="beta1"):
        parse_config("beta1 = -1\n")


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("n = 10\nbogus = 3\n")


def test_parse_error_reports_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("n = 10\n# fine\nnot a pair\n")


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nn = 8   # trailing comment\n")
    assert cfg.n == 8


def test_list_values():
    cfg = parse_config("betas = 1, 0.1, 0\nsnapshot_times = 0.01,0.02\n")
    assert cfg.betas == (1.0, 0.1, 0.0)
    assert cfg.snapshot_times == (0.01, 0.02)


def test_effective_config_round_trip():
    cfg = parse_config("n = 12\ncase = 3\nbeta1 = 0.5\nsnapshot_times = 0.001\n")
    echoed = parse_config(config_text(cfg))
    for f in fields(RunConfig):
        assert getattr(echoed, f.name) == getattr(cfg, f.name), f.name


def test_effective_config_key_order():
    lines = config_text(parse_config("")).splitlines()
    assert [line.split(" = ")[0] for line in lines if not line.startswith("#")] == [
        "n", "tau", "t_end", "case", "seed", "M1", "M2", "beta1", "beta2", "eps", "delta",
        "s1", "s2", "diag_cadence", "snapshot_times", "betas", "probe_times", "output_dir",
    ]


def finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# every value a parsed config can hold: range-valid, and output_dir as the
# parser leaves it, stripped and free of comments and line breaks
run_configs = st.builds(
    RunConfig,
    n=st.integers(4, 10**6),
    t_end=finite(0.0, 1e3),
    case=st.integers(1, 4),
    seed=st.integers(0, 2**63),
    params=st.builds(
        ModelParams, M1=finite(1e-6, 1e6), M2=finite(1e-6, 1e6), beta1=finite(0.0, 1e6),
        beta2=finite(0.0, 1e6), eps=finite(1e-6, 1e6), delta=finite(1e-6, 1e6),
        s1=finite(0.0, 1e9), s2=finite(0.0, 1e9), tau=finite(1e-8, 1.0),
    ),
    diag_cadence=st.integers(1, 10**6),
    snapshot_times=st.lists(finite(-1e3, 1e3), max_size=4).map(tuple),
    betas=st.lists(finite(0.0, 1e6), min_size=1, max_size=4).map(tuple),
    probe_times=st.lists(finite(-1e3, 1e3), max_size=4).map(tuple),
    output_dir=st.text(st.characters(exclude_characters="#").filter(str.isprintable), min_size=1)
    .map(str.strip).filter(bool),
)


@settings(max_examples=200, deadline=None)
@given(cfg=run_configs)
def test_effective_config_parses_back_to_the_run(cfg):
    # config_text promises that its output parses to reproduce the run
    assert parse_config(config_text(cfg)) == cfg


MODEL_KEYS = [f.name for f in fields(ModelParams)]
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 400), given_keys=st.dictionaries(st.sampled_from(MODEL_KEYS), positive))
def test_model_fields_match_with_defaults(n, given_keys):
    text = f"n = {n}\n" + "".join(f"{k} = {v!r}\n" for k, v in given_keys.items())
    cfg = parse_config(text)
    want = ModelParams.with_defaults(1 / n, **given_keys)
    for key in MODEL_KEYS:
        assert getattr(cfg.params, key) == getattr(want, key), key


# ---- CSV writer --------------------------------------------------------------


def make_record(step=0, time=0.0):
    return DiagRecord(
        step=step, time=time, e_bulk=1.0 / 3.0, e_surf=2.0 / 7.0, e_total=0.619,
        e_modified=0.62, mass_bulk=0.0199, mass_surf=4.0, solver_residual=1.234e-12,
    )


def test_diag_csv_single_record(tmp_path):
    path = tmp_path / "diag.csv"
    write_diag_csv([make_record()], str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == (
        "step,time,E_bulk,E_surf,E_total,E_modified,mass_bulk,mass_surf,solver_residual"
    )


def test_diag_csv_round_trip_last_bit(tmp_path):
    recs = [make_record(step=k, time=k * 1e-4) for k in range(3)]
    path = tmp_path / "diag.csv"
    write_diag_csv(recs, str(path))
    lines = path.read_text().splitlines()[1:]
    assert path.read_text().endswith("\n")
    for rec, line in zip(recs, lines):
        toks = line.split(",")
        assert len(toks) == 9
        assert int(toks[0]) == rec.step
        assert float(toks[1]) == rec.time
        assert float(toks[2]) == rec.e_bulk
        assert float(toks[3]) == rec.e_surf
        assert float(toks[6]) == rec.mass_bulk
        assert float(toks[7]) == rec.mass_surf
        assert float(toks[8]) == rec.solver_residual


def test_diag_csv_empty_series_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_diag_csv([], str(tmp_path / "diag.csv"))


# ---- VTK writer ----------------------------------------------------------------


def read_vtk_scalars(path):
    lines = Path(path).read_text().splitlines()
    idx = lines.index("LOOKUP_TABLE default")
    return lines, np.array([float(v) for v in lines[idx + 1 :]])


def test_vtk_snapshot_case1(tmp_path):
    g = build_grid(4)
    phi0, psi0 = init_case(CaseSpec(case=1), g)
    st = init_state(phi0, psi0, g)
    path = str(tmp_path / "snap.vtk")
    write_vtk_snapshot(st, g, path)
    lines, vals = read_vtk_scalars(path)
    assert lines[0].startswith("# vtk DataFile Version")
    assert "ASCII" in lines
    assert "DATASET STRUCTURED_POINTS" in lines
    assert "DIMENSIONS 5 5 1" in lines
    assert any(l.startswith("ORIGIN 0 0 0") for l in lines)
    assert any(l.startswith("SPACING") for l in lines)
    assert "POINT_DATA 25" in lines
    assert vals.size == 25
    assert (vals == 0.0).sum() == 9
    assert (vals == 1.0).sum() == 16
    # trace CSV: one row per loop node, all ones
    trace = Path(trace_csv_path(path)).read_text().splitlines()
    assert trace[0] == "arc_length,psi"
    assert len(trace) == 1 + 16
    for k, row in enumerate(trace[1:]):
        s, v = row.split(",")
        assert float(s) == pytest.approx(k * g.h)
        assert float(v) == 1.0


def test_vtk_snapshot_constant_state(tmp_path):
    g = build_grid(4)
    st = init_state(np.full(g.n_int, 0.5), np.full(g.n_loop, 0.5), g)
    path = str(tmp_path / "c.vtk")
    write_vtk_snapshot(st, g, path)
    _, vals = read_vtk_scalars(path)
    assert (vals == 0.5).all()


@pytest.mark.parametrize("n", [5, 12])
def test_vtk_data_is_one_full_precision_value_per_line(tmp_path, n):
    # the writer formats a grid row at a time; the bytes are those of one
    # "%.17e\n" per vertex value, x varying fastest
    g = build_grid(n)
    rng = np.random.default_rng(n)
    st = init_state(rng.standard_normal(g.n_int), rng.standard_normal(g.n_loop), g)
    path = tmp_path / "r.vtk"
    write_vtk_snapshot(st, g, str(path))
    _, sep, data = path.read_text().partition("LOOKUP_TABLE default\n")
    want = "".join("%.17e\n" % v for v in to_full_grid(st.phi, st.psi, g).T.ravel())
    assert sep and data == want


def test_vtk_values_ordered_x_fastest(tmp_path):
    g = build_grid(4)
    xi, yi = g.interior_xy()
    xl, yl = g.loop_xy()
    st = init_state(xi + 10 * yi, xl + 10 * yl, g)
    path = str(tmp_path / "o.vtk")
    write_vtk_snapshot(st, g, path)
    _, vals = read_vtk_scalars(path)
    grid_vals = vals.reshape(5, 5)  # row-major: j slow, i fast
    for j in range(5):
        for i in range(5):
            assert grid_vals[j, i] == pytest.approx(i * 0.25 + 10 * j * 0.25)


# ---- main ------------------------------------------------------------------------


def test_main_run_zero_steps(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["run", "n=8", "t_end=0", f"output_dir={out}"])
    assert rc == 0
    lines = (out / "diag.csv").read_text().splitlines()
    assert len(lines) == 2  # header + initial record
    assert (out / "effective.cfg").exists()
    assert (out / "final.vtk").exists()


def test_main_run_with_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 8\nt_end = 0.0005\ncase = 3\n")
    out = tmp_path / "o"
    rc = main(["run", str(cfg), f"output_dir={out}", "diag_cadence=2"])
    assert rc == 0
    lines = (out / "diag.csv").read_text().splitlines()
    # 5 steps at tau=1e-4: records at 0, 2, 4, 5
    assert len(lines) == 1 + 4


def test_main_run_snapshot_times(tmp_path):
    out = tmp_path / "o"
    rc = main(["run", "n=8", "t_end=0.0003", "snapshot_times=0.0002", f"output_dir={out}"])
    assert rc == 0
    assert (out / "snap_step0000002.vtk").exists()
    assert (out / "snap_step0000002_trace.csv").exists()


def test_main_run_rejects_snapshot_beyond_end(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["run", "n=8", "t_end=0.0003", "snapshot_times=0.0005", f"output_dir={out}"])
    assert rc != 0
    err = capsys.readouterr().err
    assert "snapshot_times" in err and "beyond t_end" in err
    assert not out.exists()


def test_main_cases_rejects_snapshot_beyond_end(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["cases", "n=8", "t_end=0.0003", "snapshot_times=0.0005", f"output_dir={out}"])
    assert rc == 1
    assert "snapshot_times" in capsys.readouterr().err
    assert not out.exists()


def test_main_run_rejects_snapshot_off_lattice(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["run", "n=8", "t_end=0.0003", "snapshot_times=0.00015", f"output_dir={out}"])
    assert rc != 0
    err = capsys.readouterr().err
    assert "snapshot_times" in err and "multiple of tau" in err
    assert not out.exists()


def test_main_beta_sweep_rejects_probe_off_lattice(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["beta-sweep", "n=8", "t_end=0.001", "betas=0", "probe_times=0.00055",
               f"output_dir={out}"])
    assert rc != 0
    err = capsys.readouterr().err
    assert "probe_times" in err and "multiple of tau" in err
    assert not out.exists()


def test_main_beta_sweep_rejects_empty_betas(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["beta-sweep", "n=8", "t_end=0.0002", "betas=", f"output_dir={out}"])
    assert rc == 1
    assert "override 3: betas: " in capsys.readouterr().err
    assert not out.exists()


def test_main_beta_sweep_honours_tau(tmp_path, capsys):
    # 0.0015 is on the default 1e-4 lattice but not on tau = 1e-3
    out = tmp_path / "o"
    rc = main(["beta-sweep", "n=8", "t_end=0.002", "tau=0.001", "betas=0",
               "probe_times=0.0015", f"output_dir={out}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "probe_times" in err and "multiple of tau" in err
    assert not (out / "beta_sweep.csv").exists()


def test_main_beta_sweep_matches_run(tmp_path):
    keys = ["n=8", "t_end=0.002", "tau=0.001", "case=3", "M1=0.002", "betas=0",
            "probe_times=0.002"]
    assert main(["run", *keys, f"output_dir={tmp_path / 'run'}"]) == 0
    assert main(["beta-sweep", *keys, f"output_dir={tmp_path / 'sweep'}"]) == 0
    diag = (tmp_path / "run" / "diag.csv").read_text().splitlines()
    sweep = (tmp_path / "sweep" / "beta_sweep.csv").read_text().splitlines()
    assert diag[0].split(",")[4] == sweep[0].split(",")[3] == "E_total"
    assert len(sweep) == 2
    assert sweep[1].split(",")[3] == diag[-1].split(",")[4]


def test_main_reruns_identically(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "n=8", "t_end=0.0005", "case=2", "seed=5", f"output_dir={out1}"]) == 0
    assert main(["run", "n=8", "t_end=0.0005", "case=2", "seed=5", f"output_dir={out2}"]) == 0
    assert (out1 / "diag.csv").read_bytes() == (out2 / "diag.csv").read_bytes()
    assert (out1 / "final.vtk").read_bytes() == (out2 / "final.vtk").read_bytes()


def test_main_effective_config_reproduces_run(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "n=8", "t_end=0.0004", "case=1", f"output_dir={out1}"]) == 0
    assert main(["run", str(out1 / "effective.cfg"), f"output_dir={out2}"]) == 0
    assert (out1 / "diag.csv").read_bytes() == (out2 / "diag.csv").read_bytes()


def test_main_bad_config_exits_nonzero(tmp_path, capsys):
    rc = main(["run", "beta1=-2"])
    assert rc != 0
    assert "beta1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key", ["tau", "t_end", "M1", "M2", "beta1", "beta2", "eps", "delta", "s1", "s2", "betas"]
)
@pytest.mark.parametrize("raw", ["nan", "inf"])
def test_non_finite_value_rejected_with_key(key, raw):
    with pytest.raises(ConfigError, match=rf"line 2: {key}: "):
        parse_config(f"n = 8\n{key} = {raw}\n")


@pytest.mark.parametrize(
    "command, override",
    [
        ("run", "tau=nan"),
        ("run", "tau=1e-200"),
        ("run", "tau=1e-100"),
        ("run", "eps=nan"),
        ("run", "eps=1e-200"),
        ("run", "delta=1e-160"),
        ("run", "snapshot_times=nan"),
        ("run", "snapshot_times=inf"),
        ("beta-sweep", "probe_times=nan"),
        ("convergence", "beta1=nan"),
    ],
)
def test_main_non_finite_override_exits_with_key(tmp_path, capsys, command, override):
    out = tmp_path / "o"
    assert main([command, "n=8", "t_end=0.001", override, f"output_dir={out}"]) == 1
    key = override.split("=")[0]
    assert f"{key}: " in capsys.readouterr().err
    assert not (out / "diag.csv").exists() and not (out / "beta_sweep.csv").exists()


def test_main_override_error_names_override(tmp_path, capsys):
    assert main(["run", "n=8", "beta1=-1", f"output_dir={tmp_path / 'o'}"]) == 1
    err = capsys.readouterr().err
    assert "override 2: beta1:" in err and "line" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override", ["solver=bicgstab", "solver_max_iter=5", "solver_tol=1e-10"])
def test_main_run_rejects_removed_solver_keys(tmp_path, capsys, override):
    out = tmp_path / "o"
    assert main(["run", "n=8", "t_end=0", override, f"output_dir={out}"]) == 1
    key = override.split("=")[0]
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_main_unknown_subcommand_fails():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code != 0


def test_main_beta_sweep(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main([
        "beta-sweep", "n=8", "t_end=0.001", "betas=0.1,0",
        "probe_times=0.0005,0.001", f"output_dir={out}",
    ])
    assert rc == 0
    rows = (out / "beta_sweep.csv").read_text().splitlines()
    assert rows[0] == "beta,time,E_modified,E_total,mass_bulk,mass_surf"
    assert len(rows) == 1 + 4  # two betas x two probes


def test_main_cases(tmp_path):
    out = tmp_path / "o"
    rc = main(["cases", "n=8", "t_end=0.0002", "seed=3", f"output_dir={out}"])
    assert rc == 0
    for case in (1, 2, 3, 4):
        assert (out / f"case{case}" / "diag.csv").exists()
        assert (out / f"case{case}" / "final.vtk").exists()


@pytest.mark.parametrize("command, key", [
    ("run", "snapshot_times"), ("cases", "snapshot_times"), ("beta-sweep", "probe_times"),
])
def test_main_repeated_output_time_fails_before_output(tmp_path, capsys, command, key):
    # two requested times on one step would merge into one output
    out = tmp_path / "o"
    rc = main([command, "n=8", "t_end=0.001", "betas=0", f"{key}=0.0005,0.0005,0.001",
               f"output_dir={out}"])
    assert rc == 1
    assert f"{key}: times 0.0005 and 0.0005 both fall on step 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "cases", "beta-sweep"])
def test_main_empty_output_dir_fails_with_key(tmp_path, monkeypatch, capsys, command):
    # an empty output_dir would write into the working directory
    monkeypatch.chdir(tmp_path)
    rc = main([command, "n=4", "t_end=0.0002", "betas=0", "output_dir="])
    assert rc == 1
    assert "override 4: output_dir: " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("raw", ["out#1", "a\nn = 4", "a\rn = 4"])
def test_main_unechoable_output_dir_fails_with_key(tmp_path, monkeypatch, capsys, raw):
    # effective.cfg would read '#' as a comment and a line break as a new
    # key: the echoed config would name another directory, or change n
    monkeypatch.chdir(tmp_path)
    assert main(["run", "n=8", "t_end=0.0002", f"output_dir={raw}"]) == 1
    assert "override 3: output_dir: " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "cases"])
def test_main_negative_seed_fails_before_output(tmp_path, capsys, command):
    out = tmp_path / "o"
    rc = main([command, "n=8", "case=2", "t_end=0.001", "seed=-1", f"output_dir={out}"])
    assert rc == 1
    assert "override 4: seed:" in capsys.readouterr().err
    assert not out.exists()


def test_main_convergence_smoke(capsys):
    rc = main(["convergence", "n=8", "t_end=0.004"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fitted slopes" in out


def test_main_convergence_prints_pairwise_orders(capsys):
    assert main(["convergence", "n=8", "t_end=0.004"]) == 0
    lines = capsys.readouterr().out.splitlines()
    res = convergence_study(
        8, [4e-3, 2e-3, 1e-3, 5e-4], 2.5e-5, 0.004, CaseSpec(case=1, n=8),
        params=ModelParams.with_defaults(1 / 8),
    )
    for name, orders in (("phi", res.orders_phi), ("psi", res.orders_psi)):
        assert len(orders) == 3
        assert f"pairwise orders {name}: " + ", ".join(f"{p:.4f}" for p in orders) in lines


def test_main_convergence_rejects_off_lattice_t_end(capsys):
    # 0.0101 is no multiple of the tested steps: the runs would end at
    # other times than the reference
    assert main(["convergence", "n=8", "t_end=0.0101"]) == 1
    captured = capsys.readouterr()
    assert "t_end:" in captured.err and "fitted slopes" not in captured.out


def convergence_slopes(out):
    return next(line for line in out.splitlines() if line.startswith("fitted slopes"))


def test_main_convergence_honours_model_keys(capsys):
    keys = ["n=8", "t_end=0.004"]
    model = {"M1": 0.5, "eps": 0.3, "beta1": 1.0, "beta2": 1.0}
    assert main(["convergence", *keys]) == 0
    plain = convergence_slopes(capsys.readouterr().out)
    assert main(["convergence", *keys, *(f"{k}={v!r}" for k, v in model.items())]) == 0
    tuned = convergence_slopes(capsys.readouterr().out)
    assert tuned != plain
    res = convergence_study(
        8, [4e-3, 2e-3, 1e-3, 5e-4], 2.5e-5, 0.004, CaseSpec(case=1, n=8),
        params=ModelParams.with_defaults(1 / 8, **model),
    )
    assert tuned == f"fitted slopes: phi {res.slope_phi:.4f}, psi {res.slope_psi:.4f}"
