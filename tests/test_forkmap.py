"""The order-preserving map on two processes: the ladders it runs give the
serial route's reports bit for bit, and it raises what the serial loop
raises."""

import os

import pytest

from evocalc import forkmap
from evocalc.cli import main
from evocalc.experiments import DEFAULTS, RUNNERS
from test_causality_audit import on_both_routes


def test_the_lowest_index_exception_is_raised():
    # items 0 and 3 both raise; the child takes item 3 first, and item 0 is
    # the last one handed out
    def fn(i):
        if i == 0:
            raise ValueError("item 0")
        if i == 3:
            raise ArithmeticError("item 3")
        return i

    for route in on_both_routes(lambda: pytest.raises(Exception, forkmap.map, fn, range(5))):
        assert route.type is ValueError
        assert str(route.value) == "item 0"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_keep_the_items_order():
    assert on_both_routes(lambda: forkmap.map(lambda x: [x, x * x], range(7))) == (
        [[x, x * x] for x in range(7)],) * 2


@pytest.mark.parametrize("experiment, settings", [
    ("dbf", {"scales": (2, 3, 4)}),
    ("wave", {"scales": (2, 3, 4)}),
    ("heat", {"scales": (1, 2, 3, 4), "m_x": 20}),
])
def test_ladders_match_serial(experiment, settings):
    cfg = {**DEFAULTS[experiment], **settings}
    forked, serial = on_both_routes(lambda: RUNNERS[experiment](cfg))
    assert forked.rows == serial.rows
    assert forked.metadata == serial.metadata


def test_wave_error_line_is_the_first_failing_scale(tmp_path, capsys):
    # at nu = 200 every scale fails its norm bound; the serial loop meets
    # scale 8 first, and so must the forked route, which runs scale 64 first
    p = tmp_path / "w.cfg"
    p.write_text("experiment = wave\nnu = 200\n")

    def run():
        status = main(["run", str(p)])
        return status, capsys.readouterr().err

    for status, err in on_both_routes(run):
        assert status == 1
        assert err == ("error: wave: ValueError: norm bound violated: "
                       "|u|=6.0960e-03 > (1/c)|f|*1.05=5.2594e-03\n")
