"""Golden bytes for every CSV writer.

All of them share one format: UTF-8, the csv module's default dialect
(CRLF row ends, quotes only where a field needs them). The transition file
starts with a '# time_span:' comment line that ends in a bare LF.
"""

import numpy as np

from landchange.allocate import AllocationLogRow, write_allocation_log_csv
from landchange.classify import ClassSignature, ConfusionMatrix, write_confusion_csv, write_signatures_csv
from landchange.config import PipelineConfig
from landchange.grid import Grid, LandCoverMap, write_legend
from landchange.indices import write_grouping_csv
from landchange.markov import (
    SecondOrderTable,
    TransitionMatrix,
    write_expected_areas_csv,
    write_second_order_csv,
    write_transition_csv,
)
from landchange.mce import SaatyMatrix, WeightSet, write_saaty_csv, write_weights_csv
from landchange.mlp import write_history_csv
from landchange.pipeline import VALIDATION_CSV, stage_validate
from landchange.preprocess import (
    BandStats,
    OifRanking,
    write_band_stats_csv,
    write_correlation_csv,
    write_dark_values_csv,
    write_oif_csv,
)

_TM = TransitionMatrix(np.array([[0.9, 0.1], [0.25, 0.75]]), 6.0, (0, 2))
_STATS = BandStats(
    ("red", "nir, wide"),
    np.array([10.5, 0.1]),
    np.array([2.0, 1e-20]),
    np.array([[1.0, -0.5], [-0.5, 1.0]]),
)


def _written(tmp_path, write, *args) -> bytes:
    p = tmp_path / "out.csv"
    write(*args, p)
    return p.read_bytes()


def test_legend_bytes(tmp_path):
    legend = {2: "water, deep", 0: "forest", 1: 'say "hi"'}
    assert _written(tmp_path, write_legend, legend) == (
        b'id,name\r\n0,forest\r\n1,"say ""hi"""\r\n2,"water, deep"\r\n'
    )


def test_transition_bytes(tmp_path):
    assert _written(tmp_path, write_transition_csv, _TM) == (
        b"# time_span: 6.0\nclass,0,2\r\n0,0.9,0.1\r\n2,0.25,0.75\r\n"
    )


def test_second_order_bytes(tmp_path):
    probs = np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.25, 0.75], [0.0, 1.0]]])
    table = SecondOrderTable(probs, np.array([[False, True], [False, False]]), (0, 2))
    assert _written(tmp_path, write_second_order_csv, table) == (
        b"previous,current,next,probability,fallback\r\n"
        b"0,0,0,1.0,0\r\n0,0,2,0.0,0\r\n0,2,0,0.5,1\r\n0,2,2,0.5,1\r\n"
        b"2,0,0,0.25,0\r\n2,0,2,0.75,0\r\n2,2,0,0.0,0\r\n2,2,2,1.0,0\r\n"
    )


def test_expected_areas_bytes(tmp_path):
    got = _written(tmp_path, write_expected_areas_csv, {2: 3.25, 0: 10.5}, {0: 11, 2: 3})
    assert got == b"class_id,expected_pixels,target_pixels\r\n0,10.5,11\r\n2,3.25,3\r\n"


def test_allocation_log_bytes(tmp_path):
    log = [AllocationLogRow(1, 0, 5, 5), AllocationLogRow(1, 2, 3, 2)]
    assert _written(tmp_path, write_allocation_log_csv, log) == (
        b"iteration,class_id,target,allocated\r\n1,0,5,5\r\n1,2,3,2\r\n"
    )


def test_confusion_bytes(tmp_path):
    cm = ConfusionMatrix(np.array([[3, 1], [0, 2]]), (0, 2))
    assert _written(tmp_path, write_confusion_csv, cm) == (
        b"reference\\predicted,0,2\r\n0,3,1\r\n2,0,2\r\n"
    )


def test_signatures_bytes(tmp_path):
    sigs = [
        ClassSignature(1, np.array([1.5, 2.0]), np.array([[0.25, 0.0], [0.0, 1.0]]), 0.4, 4),
        ClassSignature(0, np.array([-1.0, 0.1]), np.array([[2.0, 0.5], [0.5, 3.0]]), 0.6, 6),
    ]
    assert _written(tmp_path, write_signatures_csv, sigs) == (
        b"class_id,sample_count,prior,field,values\r\n"
        b"0,6,0.6,mean,-1.0 0.1\r\n0,6,0.6,cov_0,2.0 0.5\r\n0,6,0.6,cov_1,0.5 3.0\r\n"
        b"1,4,0.4,mean,1.5 2.0\r\n1,4,0.4,cov_0,0.25 0.0\r\n1,4,0.4,cov_1,0.0 1.0\r\n"
    )


def test_grouping_bytes(tmp_path):
    # the fixed table; quoting is covered by the legend and band-label tests
    cats = (0, 7, 7, 9, 6, 6, 9, 9, 6, 4, 8, 8, 5, 1, 7, 9, 9, 6, 4, 8, 8, 3, 4, 8, 5, 5, 2)
    names = (
        "stable cleared/stressed", "stable medium vigour", "stable high vigour", "steady loss", "loss after t1",
        "loss after t2", "regrowth after t1", "regrowth after t2", "loss then regrowth", "regrowth then loss",
    )
    rows = [f"{code},{cat},{names[cat]}" for code, cat in enumerate(cats)]
    assert _written(tmp_path, write_grouping_csv) == (
        "code,category_id,category_name\r\n" + "".join(r + "\r\n" for r in rows)
    ).encode()


def test_saaty_bytes(tmp_path):
    m = SaatyMatrix(np.array([[1.0, 3.0], [1.0 / 3.0, 1.0]]))
    assert _written(tmp_path, write_saaty_csv, m) == b"1.0,3.0\r\n0.3333333333333333,1.0\r\n"


def test_weights_bytes(tmp_path):
    ws = WeightSet(np.array([0.75, 0.25]), 2.0, 0.0, 0.0)
    assert _written(tmp_path, write_weights_csv, ["rank1", "rank2"], ws) == (
        b"factor,weight\r\nrank1,0.75\r\nrank2,0.25\r\n"
        b"lambda_max,2.0\r\nconsistency_index,0.0\r\nconsistency_ratio,0.0\r\n"
    )


def test_band_stats_bytes(tmp_path):
    assert _written(tmp_path, write_band_stats_csv, _STATS) == (
        b'band_label,mean,std_dev\r\nred,10.5,2.0\r\n"nir, wide",0.1,1e-20\r\n'
    )


def test_correlation_bytes(tmp_path):
    assert _written(tmp_path, write_correlation_csv, _STATS) == (
        b'band,red,"nir, wide"\r\nred,1.0,-0.5\r\n"nir, wide",-0.5,1.0\r\n'
    )


def test_dark_values_bytes(tmp_path):
    assert _written(tmp_path, write_dark_values_csv, ["a", "b"], [1.0, np.float64(2.5)]) == (
        b"band_label,dark_value\r\na,1.0\r\nb,2.5\r\n"
    )


def test_oif_bytes(tmp_path):
    ranking = OifRanking(((0, 2, 3), (0, 1, 2)), (1.5, 0.25), ("a", "b", "c", "d\xe9"))
    assert _written(tmp_path, write_oif_csv, ranking) == (
        "b1,b2,b3,oif\r\na,c,d\xe9,1.5\r\na,b,c,0.25\r\n".encode("utf-8")
    )


def test_history_bytes(tmp_path):
    assert _written(tmp_path, write_history_csv, [0.25, 0.125, 1e-20]) == (
        b"epoch,mse\r\n0,0.25\r\n1,0.125\r\n2,1e-20\r\n"
    )


def test_validation_bytes(tmp_path):
    # the first prediction is all class 0, so the random baseline, which
    # takes its class counts, is all class 0 whatever the draw
    legend = {0: "a", 1: "b"}
    row = lambda *v: Grid(np.array([v], dtype=np.float64), 1.0)
    maps = [LandCoverMap(row(0.0, 0.0, 0.0, 1.0), legend, str(y)) for y in (2000, 2006, 2012)]
    cfg = PipelineConfig(
        out_dir=tmp_path, seed=1, model="both",
        maps=tuple((y, tmp_path / f"{y}.asc") for y in (2000, 2006, 2012)), legend_path=None,
        criteria={}, constraints={}, fuzzy={}, saaty_path=None, mce_method="wlc", order_weights=None,
        suitability={},
    )
    handed = {
        "maps": maps,
        "predicted_ca.asc": LandCoverMap(row(0.0, 0.0, 0.0, 0.0), legend),
        "predicted_mlp.asc": LandCoverMap(row(0.0, 0.0, 1.0, 1.0), legend),
    }
    stage_validate(cfg, handed)
    assert (tmp_path / VALIDATION_CSV).read_bytes() == (
        b"model,kappa,overall_accuracy\r\n"
        b"ca_markov,0.0,0.75\r\nmlp,0.5,0.75\r\nrandom_baseline,0.0,0.75\r\n"
    )
