"""End-to-end command line behavior: exit codes, reports, determinism."""

import json
import subprocess
import sys

from semiclab import experiments


def _cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "semiclab.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def test_list_prints_all_experiments():
    proc = _cli("list")
    assert proc.returncode == 0
    names = sorted(experiments.REGISTRY)
    assert len(names) == 12
    lines = proc.stdout.splitlines()
    listed = [ln.split()[0] for ln in lines if ln and not ln.startswith(" ")]
    assert listed == names
    for n in range(1, 13):
        assert f"[check {n}]" in proc.stdout
    assert "defaults:" in proc.stdout
    # each name line is followed by its defaults, then its rules
    for name in names:
        exp = experiments.REGISTRY[name]
        i = next(i for i, ln in enumerate(lines) if ln.split()[:1] == [name])
        assert lines[i + 1].split()[0] == "defaults:"
        rules = lines[i + 2].split(None, 1)
        assert rules[0] == "rules:"
        for _, text, _ in experiments.config_rules(name):
            assert text in rules[1], (name, text)
        assert ("seed unread" in rules[1]) == (not exp.reads_seed), name


def test_run_writes_report(tmp_path):
    proc = _cli("run", "--experiment", "pressure-bowen", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("pressure-bowen: PASS (")
    path = tmp_path / "pressure-bowen-report.json"
    raw = path.read_text(encoding="utf-8")
    assert raw.endswith("\n")
    report = json.loads(raw)
    assert set(report) == {"experiment", "inputs", "outputs", "pass", "wall_time_s"}
    assert report["experiment"] == "pressure-bowen"
    assert report["pass"] is True
    # keys are serialized in sorted order
    assert raw == json.dumps(report, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def test_run_is_deterministic_modulo_wall_time(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        proc = _cli("run", "--experiment", "pressure-bowen", "--out", str(d))
        assert proc.returncode == 0
    r1 = (d1 / "pressure-bowen-report.json").read_text().splitlines()
    r2 = (d2 / "pressure-bowen-report.json").read_text().splitlines()
    assert len(r1) == len(r2)
    for a, b in zip(r1, r2):
        if a != b:
            assert "wall_time_s" in a and "wall_time_s" in b


def test_seed_override_lands_in_report(tmp_path):
    proc = _cli("run", "--experiment", "pressure-bowen", "--seed", "99",
                "--out", str(tmp_path))
    assert proc.returncode == 0
    report = json.loads((tmp_path / "pressure-bowen-report.json").read_text())
    assert report["inputs"]["seed"] == 99


def test_config_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5}), encoding="utf-8")
    proc = _cli("run", "--experiment", "pressure-bowen", "--config", str(cfg),
                "--out", str(tmp_path))
    assert proc.returncode == 0
    report = json.loads((tmp_path / "pressure-bowen-report.json").read_text())
    assert report["inputs"]["seed"] == 5


def test_usage_errors_exit_1(tmp_path):
    assert _cli("run", "--experiment", "no-such-thing", "--out", str(tmp_path)).returncode == 1
    assert _cli("run", "--out", str(tmp_path)).returncode == 1
    assert _cli("frobnicate").returncode == 1
    assert _cli().returncode == 1
    # unknown config key
    cfg = tmp_path / "bad-key.json"
    cfg.write_text(json.dumps({"not_a_knob": 1}), encoding="utf-8")
    proc = _cli("run", "--experiment", "pressure-bowen", "--config", str(cfg),
                "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "not_a_knob" in proc.stderr
    # unreadable and malformed configs
    assert _cli("run", "--experiment", "pressure-bowen", "--config",
                str(tmp_path / "missing.json"), "--out", str(tmp_path)).returncode == 1
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert _cli("run", "--experiment", "pressure-bowen", "--config", str(bad),
                "--out", str(tmp_path)).returncode == 1
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]", encoding="utf-8")
    assert _cli("run", "--experiment", "pressure-bowen", "--config", str(lst),
                "--out", str(tmp_path)).returncode == 1


def test_invalid_config_value_exits_1(tmp_path):
    # each of these used to end in a traceback from deep inside the run
    for name, bad in (("lattice-jarnik", {"radii_squared": [0]}),
                      ("weyl-table", {"step": 0}),
                      ("torus-l4-sweep", {"max_m": "10"})):
        cfg = tmp_path / "bad-value.json"
        cfg.write_text(json.dumps(bad), encoding="utf-8")
        proc = _cli("run", "--experiment", name, "--config", str(cfg),
                    "--out", str(tmp_path))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("semiclab: "), proc.stderr
        key, value = next(iter(bad.items()))
        assert f"{key}={value!r}" in proc.stderr
        assert "Traceback" not in proc.stderr
    proc = _cli("run", "--experiment", "torus-l4-sweep", "--seed", "-1",
                "--out", str(tmp_path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("semiclab: ") and "seed=-1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unwritable_out_exits_1(tmp_path):
    # an existing file, and a directory below one, cannot hold the report
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    for out in (taken, taken / "sub"):
        proc = _cli("run", "--experiment", "pressure-bowen", "--out", str(out))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("semiclab: cannot write to --out: "), proc.stderr
        assert "Traceback" not in proc.stderr
    assert taken.read_text(encoding="utf-8") == ""


def test_fixture_failure_exits_2(tmp_path):
    # starved sample budget saturates the entropy estimate far from its target
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({"samples": 2000}), encoding="utf-8")
    proc = _cli("run", "--experiment", "entropy-oracle", "--config", str(cfg),
                "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "entropy-oracle: FAIL" in proc.stdout
    report = json.loads((tmp_path / "entropy-oracle-report.json").read_text())
    assert report["pass"] is False


def test_numerical_signal_exits_3(tmp_path):
    cfg = tmp_path / "bad-n.json"
    cfg.write_text(json.dumps({"n_values": [311]}), encoding="utf-8")
    proc = _cli("run", "--experiment", "catmap-scar", "--config", str(cfg),
                "--out", str(tmp_path))
    assert proc.returncode == 3
    assert "numerical-error signal [not-admissible]" in proc.stderr
