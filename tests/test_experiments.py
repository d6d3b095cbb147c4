import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import qdiscord as qd
from qdiscord import experiments
from qdiscord.errors import DimensionMismatchError, InvalidInputError
from qdiscord.experiments import write_qfi
from qdiscord.tables import Columns, format_number, write_csv

from helpers import (
    forceable_core_types,
    loop_region_map,
    outputs_under,
    outputs_under_core_types,
    pipeline_hashes,
    simd_dispatch_levels,
)


class TestFig1Config:
    def test_defaults(self):
        config = qd.Fig1Config(2, (0.3, 0.7))
        assert config.spectrum.values == qd.MeasurementSpectrum.default(2).values
        assert config.samples == 10000
        assert config.s2 is None

    def test_probabilities(self):
        config = qd.Fig1Config(2, (0.3,))
        assert np.allclose(config.probabilities(0.3), [0.3, 0.7])
        three = qd.Fig1Config(3, (0.5,), s2=0.2, samples=10)
        assert np.allclose(three.probabilities(0.5), [0.5, 0.2, 0.3])

    def test_probabilities_clipped_at_edge(self):
        config = qd.Fig1Config(2, (1.0,))
        p = config.probabilities(1.0)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            qd.Fig1Config(4, (0.5,))
        with pytest.raises(InvalidInputError):
            qd.Fig1Config(2, ())
        with pytest.raises(InvalidInputError):
            qd.Fig1Config(2, (1.5,))
        with pytest.raises(InvalidInputError):
            qd.Fig1Config(2, (0.5,), s2=0.2)
        with pytest.raises(InvalidInputError):
            qd.Fig1Config(3, (0.5,))
        with pytest.raises(InvalidInputError):
            qd.Fig1Config(3, (0.9,), s2=0.2)
        with pytest.raises(DimensionMismatchError):
            qd.Fig1Config(2, (0.5,), spectrum=(1.0, 2.0, 3.0))
        for kwargs in ({"samples": 0}, {"samples": 2.5}, {"seed": -1}, {"seed": 0.5}):
            with pytest.raises(InvalidInputError, match="samples|seed"):
                qd.Fig1Config(2, (0.5,), **kwargs)
        with pytest.raises(InvalidInputError, match="dim_a"):
            qd.Fig1Config(2.5, (0.5,))
        for grid in ((np.nan,), (-0.5,)):
            with pytest.raises(InvalidInputError, match="weights at s1"):
                qd.Fig1Config(2, grid)
        with pytest.raises(InvalidInputError, match="weights at s1"):
            qd.Fig1Config(3, (0.5,), s2=-0.1)

    def test_to_dict_is_json_ready(self, tmp_path):
        config = qd.Fig1Config(np.int64(3), (0.4,), s2=0.3, samples=np.int32(5), seed=7.0)
        data = json.loads(json.dumps(config.to_dict()))
        assert data["command"] == "fig1"
        assert data["dim_a"] == 3
        qd.write_fig1(config, tmp_path / "fig1.csv")
        sidecar = json.loads((tmp_path / "fig1.csv.json").read_text())
        assert sidecar == dict(data, version=qd.__version__)


class TestRunFig1:
    def test_row_layout(self):
        config = qd.Fig1Config(2, (0.3, 0.7), samples=5, seed=1)
        rows = list(qd.run_fig1(config))
        assert len(rows) == 10
        assert [row[0] for row in rows[:5]] == [0.3] * 5
        assert [row[0] for row in rows[5:]] == [0.7] * 5

    def test_deterministic(self):
        config = qd.Fig1Config(2, (0.4,), samples=6, seed=2)
        assert list(qd.run_fig1(config)) == list(qd.run_fig1(config))

    def test_rows_rebuild_from_recorded_seeds(self):
        config = qd.Fig1Config(2, (0.35,), samples=4, seed=3)
        s1, seed, q, u = qd.run_fig1(config)[2]
        state = qd.PureBipartiteState.from_probabilities([s1, 1.0 - s1])
        rho = qd.DensityMatrix.from_pure(state)
        basis = qd.VonNeumannBasis.from_seed(2, seed)
        assert qd.measurement_uncertainty(rho, basis) == q
        assert qd.observable_uncertainty(rho, basis, config.spectrum) == u

    def test_samples_bounded_below_by_closed_form(self):
        config = qd.Fig1Config(2, (0.2, 0.5), samples=50, seed=4)
        for s1, _, q, _ in qd.run_fig1(config):
            assert q >= 2.0 * s1 * (1.0 - s1) - 1e-9

    def test_write_outputs_csv_and_sidecar(self, tmp_path):
        config = qd.Fig1Config(2, (0.5,), samples=3, seed=5)
        path = tmp_path / "fig1.csv"
        rows = qd.write_fig1(config, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s1,seed,Q,U"
        assert len(lines) == len(rows) + 1
        sidecar = json.loads((tmp_path / "fig1.csv.json").read_text())
        assert sidecar["command"] == "fig1"
        assert sidecar["samples"] == 3

    def test_reruns_are_byte_identical(self, tmp_path):
        config = qd.Fig1Config(2, (0.25, 0.75), samples=4, seed=6)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        qd.write_fig1(config, first)
        qd.write_fig1(config, second)
        assert first.read_bytes() == second.read_bytes()


class TestFig2Config:
    def test_coerces_spectrum(self):
        config = qd.Fig2Config((2, 4, 1), resolution=5)
        assert isinstance(config.spectrum, qd.MeasurementSpectrum)

    def test_validation(self):
        with pytest.raises(DimensionMismatchError):
            qd.Fig2Config((1.0, 2.0), resolution=5)
        for resolution in (1, 2.7, True):
            with pytest.raises(InvalidInputError, match="resolution"):
                qd.Fig2Config((2, 4, 1), resolution=resolution)
        assert qd.Fig2Config((2, 4, 1), resolution=np.int64(5)).resolution == 5
        for spectrum in (None, 3.0, "241"):
            with pytest.raises(InvalidInputError, match="spectrum"):
                qd.Fig2Config(spectrum)


class TestRunFig2:
    def test_grid_covers_the_simplex(self):
        rows = qd.run_fig2(qd.Fig2Config((2, 4, 1), resolution=5))
        assert len(rows) == 15  # 5 + 4 + 3 + 2 + 1 points with s1 + s2 <= 1
        for s1, s2, label in rows:
            assert s1 + s2 <= 1.0 + 1e-12
            assert sorted(label) == ["0", "1", "2"]

    def test_degenerate_corner_takes_first_assignment(self):
        rows = dict(((s1, s2), label) for s1, s2, label in
                    qd.run_fig2(qd.Fig2Config((2, 4, 1), resolution=3)))
        # at a simplex corner every assignment costs zero; ties resolve to
        # the identity labeling
        assert rows[(1.0, 0.0)] == "012"
        assert rows[(0.0, 0.0)] == "012"

    @pytest.mark.parametrize("spectrum", [(2, 4, 1), (4, 3, 2), (1, 2, 3)])
    def test_rows_equal_loop_reference(self, spectrum):
        # (1, 2, 3) ties along whole lines of the simplex, where roundoff
        # in the summed costs decides the label
        values = qd.MeasurementSpectrum(spectrum).values
        rows = qd.run_fig2(qd.Fig2Config(spectrum, 200))
        assert list(rows) == loop_region_map(values, 200)

    def test_frozen_interior_label(self):
        rows = dict(((round(s1, 3), round(s2, 3)), label) for s1, s2, label in
                    qd.run_fig2(qd.Fig2Config((2, 4, 1), resolution=11)))
        assert rows[(0.7, 0.2)] == "021"

    def test_write_outputs(self, tmp_path):
        path = tmp_path / "fig2.csv"
        rows = qd.write_fig2(qd.Fig2Config((2, 4, 1), resolution=4), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s1,s2,assignment"
        assert len(lines) == len(rows) + 1
        sidecar = json.loads((tmp_path / "fig2.csv.json").read_text())
        assert sidecar["resolution"] == 4

    @pytest.mark.parametrize("resolution", [2, 3, 200])
    @pytest.mark.parametrize("spectrum", [(2, 4, 1), (4, 3, 2)])
    def test_write_returns_the_rows_of_run(self, tmp_path, spectrum, resolution):
        # write_fig2 returns the coded table it writes, built as run_fig2 builds it:
        # rows of equal values of equal types.
        config = qd.Fig2Config(spectrum, resolution)
        written, run = qd.write_fig2(config, tmp_path / "fig2.csv"), qd.run_fig2(config)
        assert type(written) is type(run) is Columns
        assert list(written) == list(run)
        assert [tuple(map(type, row)) for row in written] == [(float, float, str)] * len(run)
        assert {type(row) for row in written} == {tuple}

    def test_csv_bytes_are_pinned(self, tmp_path):
        # fig2 is elementwise arithmetic only, so its bytes do not depend on
        # the BLAS build; a change to the CSV writer that moves a byte fails here.
        path = tmp_path / "fig2.csv"
        qd.write_fig2(qd.Fig2Config((2, 4, 1), resolution=50), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "dc91dd300177d5f41c6dd3f2fa3dc42d70ec5e4a49061c5ae0416fe1a20e5760"

    @pytest.mark.parametrize("spectrum, expected", [
        ((2, 4, 1), "5429c4dde320f34fcc9b13320d53384eab6ac3b7a6067f0fe0b14310a9be1912"),
        ((4, 3, 2), "06c65a8207efe83419185ae2cbee9d3e341ef012a33cd7b4836bdbc2c45c4475"),
    ])
    def test_csv_bytes_are_pinned_across_blocks(self, tmp_path, spectrum, expected):
        # Resolution 200 gives 20,100 rows: five blocks of the CSV writer.
        path = tmp_path / "fig2.csv"
        qd.write_fig2(qd.Fig2Config(spectrum, resolution=200), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


class TestRunFig4:
    def test_slope_recovers_squared_photon_number(self):
        result = qd.run_fig4(3, (0.2, 0.5, 0.8, 1.0))
        assert abs(result.slope - 9.0) < 1e-6
        assert result.max_residual < 1e-9

    def test_row_contents(self):
        result = qd.run_fig4(2, (0.5, 1.0))
        last = result.rows[-1]
        assert last[0] == 1.0
        assert abs(last[1] - 4.0) < 1e-12   # Fisher information, lossless
        assert abs(last[2] - 1.0) < 1e-9    # discord factor
        assert abs(last[3] - 0.5) < 1e-12   # negativity

    def test_single_photon_deviation_is_visible(self):
        result = qd.run_fig4(1, (0.2, 0.5, 0.8))
        assert result.max_residual > 0.2

    def test_needs_two_grid_points(self):
        with pytest.raises(InvalidInputError):
            qd.run_fig4(2, (0.5,))

    @pytest.mark.parametrize("grid", [(0.0, 0.0), (0.5, 0.5)])
    def test_constant_dg_grid_raises(self, capfd, grid):
        with pytest.raises(InvalidInputError, match="two distinct DG values"):
            qd.run_fig4(50, grid)
        assert capfd.readouterr().err == ""

    def test_ten_thousand_photons_in_block_form(self):
        # Past the dense builders' n = 1029: no 2(n+1) x 2(n+1) matrix is made.
        n = 10_000
        tracemalloc.start()
        try:
            result = qd.run_fig4(n, np.linspace(0.0, 1.0, 101))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.max_residual / n**2 <= 1e-12
        assert peak < 50e6
        assert result.rows[-1] == (1.0, 1e8, 1.0, 0.5)

    def test_ten_thousand_photons_near_full_transmission(self):
        # On a 0..1 grid T^n underflows below T = 1; here T^n = e^-j runs from 1 to 2e-9.
        n = 10_000
        result = qd.run_fig4(n, [1.0 - j / n for j in range(21)])
        assert result.max_residual / n**2 <= 1e-12
        for t2, f, dg, neg in result.rows:
            assert 0.0 < dg <= 1.0 and f > 0.0, t2
            a = 0.5 * (1.0 - t2) ** n
            assert abs(neg - 0.5 * (math.hypot(a, t2 ** (n / 2)) - a)) <= 1e-12, t2

    def test_write_outputs_and_reruns_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        result = qd.write_fig4(4, (0.3, 0.6, 0.9), first)
        qd.write_fig4(4, (0.3, 0.6, 0.9), second)
        lines = first.read_text().splitlines()
        assert lines[0] == "t2,F,DG,negativity"
        assert len(lines) == len(result.rows) + 1
        assert first.read_bytes() == second.read_bytes()
        sidecar = json.loads((tmp_path / "a.csv.json").read_text())
        assert sidecar["n"] == 4
        assert sidecar["t2_grid"] == [0.3, 0.6, 0.9]


class TestWriteQfi:
    @pytest.mark.parametrize("n, phi", [
        (np.int64(2), np.int64(0)),
        (2.0, 0),
        (np.float64(2.0), np.float64(0.0)),
    ], ids=["numpy-ints", "float-n-int-phi", "numpy-floats"])
    def test_sidecar_records_the_sweep_values(self, tmp_path, n, phi):
        write_qfi(2, (0.5, 1.0), 0.0, 1e-9, tmp_path / "ref.csv")
        write_qfi(n, (0.5, 1.0), phi, 1e-9, tmp_path / "got.csv")
        for suffix in (".csv", ".csv.json"):
            assert (tmp_path / f"got{suffix}").read_bytes() == (tmp_path / f"ref{suffix}").read_bytes()
        sidecar = json.loads((tmp_path / "got.csv.json").read_text())
        assert type(sidecar["n"]) is int and type(sidecar["phi"]) is float

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-9, "x"],
                             ids=["nan-tolerance", "inf-tolerance", "negative-tolerance", "string-tolerance"])
    def test_bad_step_or_tolerance_writes_nothing(self, tmp_path, tolerance):
        # the step is derived from n, so the tolerance is the one input left to check
        with pytest.raises(InvalidInputError, match="tolerance"):
            write_qfi(2, (0.5, 1.0), 0.0, tolerance, tmp_path / "qfi.csv")
        assert list(tmp_path.iterdir()) == []


class TestPipelineLines:
    """Each writer returns the very :class:`Columns` table it handed to ``write_csv``
    (``write_fig4`` as its result's ``rows``), with the rows of its ``run_*``; its CSV
    line r is row r through the per-cell rule. Each table crosses a block."""

    @pytest.fixture
    def written(self, monkeypatch):
        """The tables handed to ``write_csv``, in order."""
        tables = []

        def record(path, header, rows):
            tables.append(rows)
            write_csv(path, header, rows)

        monkeypatch.setattr(experiments, "write_csv", record)
        return tables

    @staticmethod
    def assert_lines(path, header, rows, written):
        assert isinstance(rows, Columns) and len(written) == 1 and written[0] is rows
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == header and lines[-1] == "" and len(lines) == len(rows) + 2
        assert lines[1:-1] == [",".join(map(format_number, row)) for row in rows]

    def test_fig1(self, tmp_path, written):
        config = qd.Fig1Config(3, (0.1, 0.3), s2=0.2, samples=2100)
        rows = qd.write_fig1(config, tmp_path / "fig1.csv")
        assert len(rows) == 4200 and list(rows) == list(qd.run_fig1(config))
        self.assert_lines(tmp_path / "fig1.csv", "s1,seed,Q,U", rows, written)

    def test_fig2(self, tmp_path, written):
        config = qd.Fig2Config((2, 4, 1), 100)
        rows = qd.write_fig2(config, tmp_path / "fig2.csv")
        assert list(rows) == list(qd.run_fig2(config))
        self.assert_lines(tmp_path / "fig2.csv", "s1,s2,assignment", rows, written)

    def test_fig4(self, tmp_path, written):
        grid = np.linspace(0.0, 1.0, 4097)
        result = qd.write_fig4(50, grid, tmp_path / "fig4.csv")
        assert list(result.rows) == list(qd.run_fig4(50, grid).rows)
        self.assert_lines(tmp_path / "fig4.csv", "t2,F,DG,negativity", result.rows, written)

    def test_qfi(self, tmp_path, written):
        rows = write_qfi(10, np.linspace(0.0, 1.0, 4097), 0.0, 1e-9, tmp_path / "qfi.csv")
        self.assert_lines(tmp_path / "qfi.csv", "t2,F_closed,F_oracle,DG,residual", rows, written)


#: SHA-256 of each helpers.PIPELINES CSV, keyed by the numpy version it was
#: recorded on (x86-64 with AVX-512, OpenBLAS 0.3.31). No BLAS or LAPACK
#: call reaches fig1's or fig2's bytes; fig4 runs from the probe's block
#: form, whose LAPACK call, one eigvalsh of a diagonal 3 x 3 matrix per grid
#: point, stacked per block, returns its entries; qfi's oracle takes the SVD
#: of the probe's 2 x 2 core roots through LAPACK. Each has one hash under
#: every core type tried and under every SIMD dispatch level of numpy, from
#: its X86_V2 baseline to AVX512_SPR: fig4 takes its powers on Python floats,
#: so its arrays see only correctly rounded ufuncs and einsum. numpy's own
#: loops (log1p, cos, sin, einsum) may round differently in another version.
PIPELINE_SHA256 = {
    "2.4.6": {
        "fig1": "65d1b4051bef897424e29b9cfa967cfa6b2e04335399e54e6050ef74ec0b5734",
        "fig2": "5429c4dde320f34fcc9b13320d53384eab6ac3b7a6067f0fe0b14310a9be1912",
        "fig4": "ae6a976e27529f248e97e74ffb8871e80c0a5c86aa92aa4f6e9c167e447fef8b",
        "fig4_n50": "7b4e1b8b3ddc837ab6e26bbe92b379d02c31cbc7c3dabe9ffc8c39aeb023aaf4",
        "qfi": "7bf1f763487eebccfc267041054415cfc59cffb1e5805877394ededf752de547",
    },
}


#: A child's script: the pipeline hashes as one JSON line.
PIPELINE_SCRIPT = "import json\nfrom helpers import pipeline_hashes\nprint(json.dumps(pipeline_hashes()))\n"


class TestPipelineBytes:
    @pytest.mark.skipif(len(forceable_core_types()) < 2,
                        reason="no DYNAMIC_ARCH OpenBLAS with two core types this CPU runs")
    def test_one_hash_under_every_blas_core_type(self):
        # The draw, the block traces, the Q/U kernel and a pure state's root
        # make no BLAS call. What still goes through BLAS or LAPACK (the exact
        # roots' checks, the oracle's fidelity and the eigvalsh of the probe's
        # diagonal LQU matrix) gives the same bits under every kernel here.
        assert len(outputs_under_core_types(PIPELINE_SCRIPT)) == 1

    @pytest.mark.skipif(len(simd_dispatch_levels()) < 2,
                        reason="no SIMD target above numpy's baseline is enabled on this CPU")
    def test_one_hash_under_every_simd_dispatch_level(self):
        # numpy picks each ufunc and einsum loop at import by the CPU; each
        # child disables the top dispatched targets one more level down.
        assert len(outputs_under(PIPELINE_SCRIPT, "NPY_DISABLE_CPU_FEATURES", simd_dispatch_levels())) == 1

    @pytest.mark.skipif(np.__version__ not in PIPELINE_SHA256,
                        reason=f"no pipeline hashes recorded for numpy {np.__version__}")
    def test_csv_bytes_are_pinned(self):
        assert pipeline_hashes() == PIPELINE_SHA256[np.__version__]
