"""Tests for the `repro analyze` verb."""

import pytest

from repro.analysis.cli import main


def test_pair_matches_library(capsys):
    assert main(["pair", "18", "2"]) == 0
    out = capsys.readouterr().out
    assert "0.9900" in out and "Equation 1" in out


def test_pair_with_mc(capsys):
    assert main(["pair", "10", "2", "--mc-precision", "0.01", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Monte Carlo" in out and "Wilson" in out


def test_allpairs(capsys):
    assert main(["allpairs", "10", "3"]) == 0
    out = capsys.readouterr().out
    assert "whole cluster" in out and "pairwise" in out


def test_crossover(capsys):
    assert main(["crossover", "3"]) == 0
    assert "N = 32" in capsys.readouterr().out


def test_plan_deadline_mode(capsys):
    assert main(["plan", "--budget", "0.10", "--deadline", "1.0"]) == 0
    assert "N = 86" in capsys.readouterr().out


def test_plan_nodes_mode(capsys):
    assert main(["plan", "--budget", "0.10", "--nodes", "90"]) == 0
    assert "1.077" in capsys.readouterr().out


def test_availability(capsys):
    assert main(["availability", "10", "--repair-s", "1.1"]) == 0
    out = capsys.readouterr().out
    assert "minutes/year" in out and "nines" in out


def test_darkpairs(capsys):
    assert main(["darkpairs", "10", "3"]) == 0
    assert "of 45" in capsys.readouterr().out


def test_report(capsys):
    assert main(["report", "12"]) == 0
    out = capsys.readouterr().out
    assert "Survivability, N=12" in out
    assert "probe budget" in out and "nines" in out


def test_bad_values_exit_2(capsys):
    assert main(["pair", "1", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
