import concurrent.futures
import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from afc import cli, decoder, harness
from afc.cli import main as cli_main
from afc.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    SweepPoint,
    SweepResult,
    config_from_mapping,
    emit_csv,
    parse_config_file,
    parse_csv,
    resolve_weight_set,
    run_ber_sweep,
    run_throughput_sweep,
)
from afc.rng import substream


_BLAS = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
_BLAS_BUILD = f"{_BLAS.get('name')} {_BLAS.get('version')}"
# sweep CSV bytes depend on the BLAS build's summation order: the digests
# pinned below were taken on this build only
_PINNED_BUILD = pytest.mark.skipif(
    np.__version__ != "2.4.6" or not _BLAS_BUILD.startswith("scipy-openblas 0.3.31."),
    reason=f"the CSV digests were taken on numpy 2.4.6 with scipy-openblas 0.3.31; this is numpy "
    f"{np.__version__} with {_BLAS_BUILD}, whose summation order may differ",
)


def tiny_cfg(**kw):
    base = dict(
        k_msg=100,
        snr_db=(15.0,),
        rates=(1.0, 2.0),
        trials=5,
        seed=7,
        variants=("min-degree",),
        max_iters=40,
    )
    base.update(kw)
    return ExperimentConfig(**base)


HEADER = "snr_db,n_symbols,rate_bits_per_cu,ber,fer,trials,seed\n"


class TestCsv:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(SweepResult(variant="x"), path)
        assert path.read_text() == "snr_db,n_symbols,rate_bits_per_cu,ber,fer,trials,seed\n"

    def test_roundtrip(self, tmp_path):
        res = SweepResult(variant="x")
        res.points.append(SweepPoint(15.0, 400, 0.5, 1.25e-3, 0.1, 200, 7))
        res.points.append(SweepPoint(15.0, 222, 0.9009, 0.0, 0.0, 50, 7))
        path = tmp_path / "r.csv"
        emit_csv(res, path)
        parsed = parse_csv(path)
        assert [p.csv_row() for p in parsed] == [p.csv_row() for p in res.points]

    def test_gnuplot_twin(self, tmp_path):
        res = SweepResult(variant="x")
        res.points.append(SweepPoint(5.0, 10, 2.0, 0.5, 1.0, 3, 1))
        path = tmp_path / "r.csv"
        emit_csv(res, path, gnuplot=True)
        twin = tmp_path / "r.csv.gnuplot.dat"
        assert twin.exists()
        assert twin.read_text().startswith("# snr_db")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("a,b\n", "unexpected columns"),
            (f"{HEADER}15.0,400,0.5,0.001,0.1,200,7\n15.0,400,0.5\n", "line 3 has 3 fields, expected 7"),
            (f"{HEADER}15.0,400,0.5,0.001,0.1,200,7,9\n", "line 2 has 8 fields, expected 7"),
        ],
        ids=["foreign-columns", "short-row", "long-row"],
    )
    def test_rejects_foreign_columns(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=message):
            parse_csv(path)


class TestBerSweep:
    def test_noiseless_zero_ber(self):
        cfg = tiny_cfg(noiseless=True)
        (res,) = run_ber_sweep(cfg)
        assert all(p.ber == 0.0 for p in res.points)
        assert all(p.low_confidence for p in res.points)

    def test_rate_accounting(self):
        cfg = tiny_cfg(noiseless=True)
        (res,) = run_ber_sweep(cfg)
        for pt in res.points:
            assert pt.rate_bits_per_cu == cfg.k_msg / ((pt.n_symbols + 1) // 2)
            assert 0.0 <= pt.ber <= 1.0

    def test_deterministic_csv_bytes(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_ber_sweep(tiny_cfg(out=str(out1)))
        run_ber_sweep(tiny_cfg(out=str(out2)))
        f1 = out1.with_name("a_min-degree.csv")
        f2 = out2.with_name("b_min-degree.csv")
        assert f1.read_bytes() == f2.read_bytes()

    def test_precode_beats_plain_at_every_point(self):
        # rates past the plain variant's floor, where cleanup matters
        rates = (3.5, 4.0)
        plain = run_ber_sweep(tiny_cfg(k_msg=1000, rates=rates, trials=15, max_iters=100,
                                       variants=("min-degree",)))[0]
        coded = run_ber_sweep(tiny_cfg(k_msg=950, rates=rates, trials=15, max_iters=100,
                                       variants=("min-degree+precode",)))[0]
        for p, c in zip(plain.points, coded.points):
            assert p.ber > 0
            assert c.ber <= p.ber

    def test_needs_rate_grid(self):
        with pytest.raises(ValueError):
            run_ber_sweep(tiny_cfg(rates=None))

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            tiny_cfg(rates=(2.0, 1.0))


class TestThroughputSweep:
    def test_noiseless_projects_high_rate(self):
        cfg = tiny_cfg(rates=None, noiseless=True, trials=3, k_msg=95, max_trial_factor=1, target_ber=1e-2)
        res = run_throughput_sweep(cfg)
        (pt,) = res.points
        assert pt.reached
        assert pt.rate_bits_per_cu > 0.5

    def test_rate_below_capacity(self):
        cfg = tiny_cfg(rates=None, trials=10, k_msg=190, snr_db=(15.0,), target_ber=1e-2)
        res = run_throughput_sweep(cfg)
        (pt,) = res.points
        from afc.channel import capacity_bits

        assert pt.rate_bits_per_cu < capacity_bits(15.0)

    def test_zero_capacity_refused_before_any_frame(self, monkeypatch):
        def no_frame(*args):
            raise AssertionError("a frame ran")

        monkeypatch.setattr(harness, "_run_frame", no_frame)
        with pytest.raises(ValueError, match="snr_db -400.0 has zero capacity"):
            run_throughput_sweep(tiny_cfg(rates=None, snr_db=(15.0, -400.0)))

    @pytest.mark.parametrize("errors,stop", [((0, 4, 0, 6, 1, 9), 5), ((0, 4, 0, 6, 0, 0), 10)])
    def test_probe_stops_at_the_first_frame_past_its_bound(self, errors, stop):
        # 1e-2 over 10 trials of 100 bits allows 10 bit errors: the probe stops
        # at the frame that brings the 11th, and runs on while it holds 10
        cfg = tiny_cfg(trials=10)
        served = []

        def frames(setup, n_symbols, snr_db, point_tag, max_trials):
            for trial in range(max_trials):
                served.append(trial)
                yield (errors[trial] if trial < len(errors) else 0), 3

        pt = harness._measure_point(cfg, SimpleNamespace(k_msg=100), 400, 15.0, 0, frames, abort_ber=1e-2)
        assert served == list(range(stop)) and pt.trials == stop
        assert (pt.ber > 1e-2) == (stop < cfg.trials)

    def test_outer_code_checked_whatever_the_variants(self):
        cfg = ExperimentConfig(k_msg=100, precode_rate=0.999, variants=("uniform",))
        with pytest.raises(ValueError, match="outer code's 0 checks"):
            run_throughput_sweep(cfg)


class TestParallelFrames:
    """Frames on a process pool are read back in trial order, so a sweep
    stops after the same trials and writes the same bytes at any worker count."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The frame pools the test's sweeps open, each with its worker count
        and the number of frames submitted to it."""
        opened = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, workers, **kwargs):
                super().__init__(workers, **kwargs)
                self.workers = workers
                self.submitted = 0
                opened.append(self)

            def submit(self, *args, **kwargs):
                self.submitted += 1
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        return opened

    @staticmethod
    def use_workers(monkeypatch, workers):
        monkeypatch.setattr(harness, "_default_workers", lambda: workers)

    def test_ber_sweep_bytes_do_not_depend_on_workers(self, tmp_path, monkeypatch, pools):
        # C9's config; max_trial_factor 10 lets quiet points run past 20 trials
        cfg = ExperimentConfig(
            k_msg=200, snr_db=(15.0,), rates=(2.0, 3.0), trials=20, seed=99,
            variants=("min-degree", "min-degree+precode"), max_trial_factor=10,
        )
        results = {}
        for workers in (1, 2):
            self.use_workers(monkeypatch, workers)
            out = tmp_path / f"w{workers}.csv"
            results[workers] = run_ber_sweep(replace(cfg, out=str(out)))
        assert len(pools) == 1
        assert any(pt.trials > cfg.trials for res in results[1] for pt in res.points)
        for name in ("min-degree", "min-degree-precode"):
            assert (tmp_path / f"w1_{name}.csv").read_bytes() == (tmp_path / f"w2_{name}.csv").read_bytes()
        assert [[vars(pt) for pt in res.points] for res in results[1]] == [
            [vars(pt) for pt in res.points] for res in results[2]
        ]

    def test_throughput_sweep_bytes_do_not_depend_on_workers(self, tmp_path, monkeypatch, pools):
        measure = harness._measure_point
        probes = []

        def spy(cfg, setup, n_symbols, snr_db, point_tag, frames, abort_ber=None):
            pt = measure(cfg, setup, n_symbols, snr_db, point_tag, frames, abort_ber)
            probes.append((abort_ber is not None, n_symbols, pt.trials, pt.bit_errors))
            return pt

        monkeypatch.setattr(harness, "_measure_point", spy)
        cfg = ExperimentConfig(k_msg=95, snr_db=(10.0, 15.0), trials=20, seed=5, max_trial_factor=2, target_ber=1e-3)
        seen = {}
        for workers in (1, 2):
            self.use_workers(monkeypatch, workers)
            probes.clear()
            res = run_throughput_sweep(cfg)
            emit_csv(res, tmp_path / f"w{workers}.csv")
            seen[workers] = list(probes)
        assert len(pools) == 1
        # some bisection probe stopped on abort_ber before its 20 trials
        assert any(is_probe and 1 <= trials < cfg.trials for is_probe, _, trials, _ in seen[1])
        assert seen[1] == seen[2]
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    @_PINNED_BUILD
    @pytest.mark.parametrize("workers, threads", [(1, 1), (1, 2), (2, 1)])
    def test_c9_csv_bytes_pinned(self, tmp_path, monkeypatch, workers, threads):
        """C9's BER and throughput CSVs, byte for byte on 1 frame worker with 1
        and 2 decode threads and on 2 frame workers. The bytes depend on the
        BLAS build's summation order, so another build skips this test rather
        than fail it."""
        self.use_workers(monkeypatch, workers)
        cfg = ExperimentConfig(
            k_msg=200, snr_db=(15.0,), rates=(2.0, 3.0), trials=20, seed=99,
            variants=("min-degree", "min-degree+precode"), out=str(tmp_path / "c9.csv"),
        )
        decoder._use_threads(threads)
        try:
            run_ber_sweep(cfg)
            thr = run_throughput_sweep(
                ExperimentConfig(k_msg=95, snr_db=(15.0,), trials=3, seed=5, max_trial_factor=1, target_ber=1e-2)
            )
            assert (decoder._THREADS.pool is not None) == (threads > 1)
        finally:
            decoder._use_threads(None)
        emit_csv(thr, tmp_path / "c9_throughput.csv")
        digests = {
            name: hashlib.sha256((tmp_path / f"c9_{name}.csv").read_bytes()).hexdigest()
            for name in ("min-degree", "min-degree-precode", "throughput")
        }
        assert digests == {
            "min-degree": "0242cb457ecf92eda55a22f8d566c5a4aefb1415959851aaae47c98d2bdcdd6b",
            "min-degree-precode": "353f1cfab120712b078f477ecc922060664571173c1b48393bb9d1d8b5d591b1",
            "throughput": "c77971f08dc06c2a5a33e1fd7b18bd3b4eac7816f4b3df70c168e536538a1907",
        }

    @_PINNED_BUILD
    @pytest.mark.parametrize("workers, threads", [(1, 1), (1, 2), (2, 1)])
    def test_c6_shaped_csv_bytes_pinned(self, tmp_path, monkeypatch, workers, threads):
        """A reduced C6 sweep, all three variants at k_msg 1000 and rates 2.5
        and 3.0, byte for byte on 1 frame worker with 1 and 2 decode threads
        and on 2 frame workers. Its check updates of 668 and 800 rows run in 3
        blocks each, so on 2 decode threads they really run threaded."""
        self.use_workers(monkeypatch, workers)
        cfg = ExperimentConfig(
            k_msg=1000, snr_db=(15.0,), rates=(2.5, 3.0), trials=8, seed=11, max_trial_factor=1,
            out=str(tmp_path / "c6.csv"),
        )
        decoder._use_threads(threads)
        try:
            run_ber_sweep(cfg)
            assert (decoder._THREADS.pool is not None) == (threads > 1)
        finally:
            decoder._use_threads(None)
        digests = {
            name: hashlib.sha256((tmp_path / f"c6_{name}.csv").read_bytes()).hexdigest()
            for name in ("uniform", "min-degree", "min-degree-precode")
        }
        assert digests == {
            "uniform": "fa7a6cea8acb69a5bc07884f0fa9f130ffba6d7629da0f59ba2d7d670f1b5cf5",
            "min-degree": "66fde488e2dc44ffe397a8c891f3692e19c9aa51fc889d2ff4b985a2ef4bf6cb",
            "min-degree-precode": "ae666203c9e0ff593d1a1af0db250d81743f4b6d419a36d5f02447f9f596662a",
        }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trial_factor_below_one_runs_the_base_trials(self, workers, monkeypatch):
        self.use_workers(monkeypatch, workers)
        (res,) = run_ber_sweep(tiny_cfg(trials=4, max_trial_factor=0))
        assert [pt.trials for pt in res.points] == [4, 4]

    def test_more_workers_than_cores_keep_trial_order(self, monkeypatch, pools):
        # frames finish out of order on an oversubscribed pool; points must not see it
        cfg = tiny_cfg(rates=(2.0, 3.0), trials=6, max_trial_factor=4, min_error_events=10)
        self.use_workers(monkeypatch, 1)
        serial = run_ber_sweep(cfg)
        self.use_workers(monkeypatch, 5)
        pooled = run_ber_sweep(cfg)
        assert [pool.workers for pool in pools] == [5]
        assert [vars(pt) for pt in serial[0].points] == [vars(pt) for pt in pooled[0].points]

    def test_stopped_point_submits_at_most_two_frames_per_worker_ahead(self, monkeypatch, pools):
        # far above capacity every frame fails, so the point stops at cfg.trials
        # of its 10 x cfg.trials cap; the frames run ahead of it are bounded
        cfg = tiny_cfg(snr_db=(0.0,), rates=(4.0,), trials=6, max_trial_factor=10, variants=("uniform",))
        self.use_workers(monkeypatch, 2)
        (res,) = run_ber_sweep(cfg)
        assert [pt.trials for pt in res.points] == [cfg.trials]
        (pool,) = pools
        assert cfg.trials < pool.submitted <= cfg.trials + 2 * pool.workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_frame_error_surfaces_and_leaves_no_worker(self, workers, monkeypatch, pools):
        # the error is raised inside the frame, by its first draw: a rebound
        # frame call would keep the frames out of the pool
        substream = harness.rngmod.substream

        def failing(seed, *path):
            if path[-1] == 5:  # the trial
                raise RuntimeError(f"frame {path[-1]} failed")
            return substream(seed, *path)

        monkeypatch.setattr(harness.rngmod, "substream", failing)
        self.use_workers(monkeypatch, workers)
        with pytest.raises(RuntimeError, match="frame 5 failed"):
            run_ber_sweep(tiny_cfg(trials=10))
        assert len(pools) == workers - 1
        assert multiprocessing.active_children() == []

    def test_single_frame_points_open_no_pool(self, monkeypatch, pools):
        self.use_workers(monkeypatch, 2)
        (res,) = run_ber_sweep(tiny_cfg(trials=1, max_trial_factor=1))
        assert [pt.trials for pt in res.points] == [1, 1]
        assert pools == []

    @pytest.mark.parametrize("name", ["bp_decode", "_run_frame"])
    def test_rebound_frame_call_keeps_frames_in_the_sweep_process(self, monkeypatch, pools, name):
        # a caller tracing or counting the frames or a layer call must see every frame's call
        calls = []
        call = getattr(harness, name)

        def counted(*args):
            calls.append(os.getpid())
            return call(*args)

        monkeypatch.setattr(harness, name, counted)
        self.use_workers(monkeypatch, 2)
        (res,) = run_ber_sweep(tiny_cfg(trials=4))
        assert pools == []
        assert len(calls) == sum(pt.trials for pt in res.points)

    def test_ber_sweep_bytes_do_not_depend_on_decode_threads(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(
            k_msg=200, snr_db=(15.0,), rates=(2.0, 3.0), trials=20, seed=99,
            variants=("min-degree", "min-degree+precode"),
        )
        self.use_workers(monkeypatch, 1)
        try:
            for threads in (1, 2):
                decoder._use_threads(threads)
                run_ber_sweep(replace(cfg, out=str(tmp_path / f"t{threads}.csv")))
            assert decoder._THREADS.pool is not None
        finally:
            decoder._use_threads(None)
        for name in ("min-degree", "min-degree-precode"):
            assert (tmp_path / f"t1_{name}.csv").read_bytes() == (tmp_path / f"t2_{name}.csv").read_bytes()

    def test_pooled_sweep_after_a_threaded_decode(self, tmp_path):
        """A process whose decode left pool threads running forks its sweep's
        workers; they must not wait on those threads, which the fork did not
        copy, and must decode on one thread of their own."""
        script = tmp_path / "threads_then_pool.py"
        script.write_text(textwrap.dedent(f"""
            import os, signal
            from afc import decoder, harness

            os.sched_getaffinity = lambda pid: {{0, 1}}
            cfg = harness.ExperimentConfig(k_msg=200, rates=(2.0,), trials=4, max_trial_factor=1,
                                           variants=("min-degree+precode",))
            setup = harness._VariantSetup(cfg, "min-degree+precode")
            harness._run_frame(cfg, setup, 600, 15.0, 0, 0)  # 600 rows: over two blocks
            assert decoder._THREADS.pool is not None, "the decode ran serially"
            child = os.fork()
            if child == 0:  # a threaded decode in a bare fork starts threads of its own
                signal.alarm(60)
                harness._run_frame(cfg, setup, 600, 15.0, 0, 1)
                os._exit(0 if decoder._THREADS.pool is not None else 3)
            assert os.waitpid(child, 0)[1] == 0, "the forked decode failed"
            pool_frame = harness._pool_frame

            def recording(*args):  # the task a pool worker runs for each frame
                out = pool_frame(*args)
                with open(os.path.join({str(tmp_path)!r}, f"{{os.getpid()}}.worker"), "a") as fh:
                    fh.write(f"{{decoder._THREADS.count}} {{decoder._THREADS.pool is None}}\\n")
                return out

            harness._pool_frame = recording
            (res,) = harness.run_ber_sweep(cfg)
            print(res.points[0].trials, flush=True)
        """))
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == b"4\n"
        lines = [line for path in tmp_path.glob("*.worker") for line in path.read_text().splitlines()]
        assert len(lines) == 4 and 1 <= len(list(tmp_path.glob("*.worker"))) <= 2
        assert set(lines) == {"1 True"}

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states from /proc")
    def test_killed_sweep_takes_its_workers_along(self, tmp_path):
        """Workers write nothing to their sweep's stdout, and when the sweep
        is SIGKILLed they exit instead of blocking on the task queue for good."""
        script = tmp_path / "stuck_sweep.py"
        script.write_text(textwrap.dedent(f"""
            import os, time
            from afc import harness

            def stuck(*args):
                print("from a worker", flush=True)
                open(os.path.join({str(tmp_path)!r}, f"{{os.getpid()}}.pid"), "w").close()
                time.sleep(600)

            harness._pool_frame = stuck  # the task a pool worker runs for each frame
            harness._default_workers = lambda: 2
            print("sweeping", flush=True)
            harness.run_ber_sweep(harness.ExperimentConfig(k_msg=100, rates=(1.0,), trials=4, variants=("uniform",)))
        """))
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE, env=env)
        pids = []
        try:
            deadline = time.monotonic() + 60
            while len(pids) < 2 and time.monotonic() < deadline and proc.poll() is None:
                time.sleep(0.05)
                pids = [int(p.stem) for p in tmp_path.glob("*.pid")]
            assert len(pids) == 2, "the workers never started their frames"
            proc.kill()
            proc.wait()
            out = []
            reader = threading.Thread(target=lambda: out.append(proc.stdout.read()))
            reader.start()
            reader.join(timeout=10)
            assert not reader.is_alive(), "a worker still holds the sweep's stdout"
            assert out == [b"sweeping\n"]
            deadline = time.monotonic() + 10
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, pids)), "a worker outlived its sweep"
        finally:
            proc.kill()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.stdout.close()

    @pytest.mark.parametrize(
        "env, cpus, workers",
        [
            ({}, 2, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
            ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
            ({"OPENBLAS_NUM_THREADS": "2"}, 8, 4),
            ({"OPENBLAS_NUM_THREADS": "3"}, 2, 1),
            ({"OMP_NUM_THREADS": "1"}, 4, 4),
            ({"MKL_NUM_THREADS": "1"}, 4, 1),
            ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, 1),
            ({"OPENBLAS_NUM_THREADS": "0"}, 4, 1),
            ({"OPENBLAS_NUM_THREADS": "many"}, 4, 1),
        ],
    )
    def test_worker_count_rule(self, env, cpus, workers, monkeypatch):
        # OpenBLAS reads OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS; MKL's setting does not pin it
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert harness._default_workers() == workers


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestConfig:
    def test_parse_file_and_override(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# comment\n"
            "k-msg = 500\n"
            "snr_db = 5, 15\n"
            "trials = 9\n"
            "noiseless = true\n"
        )
        cfg = config_from_mapping(parse_config_file(path))
        assert cfg.k_msg == 500
        assert cfg.snr_db == (5.0, 15.0)
        assert cfg.noiseless
        cfg2 = config_from_mapping({"trials": "11"}, base=cfg)
        assert cfg2.trials == 11 and cfg2.k_msg == 500

    def test_bad_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("what even is this\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    @pytest.mark.parametrize("text", ["k-msg = 100\nk_msg = 200\n", "# two\nk_msg = 100\nk_msg = 100\n"])
    def test_repeated_key(self, tmp_path, text, capsys):
        # the dashed and underscored spellings name one key, which a file sets once
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        line = len(text.splitlines())
        with pytest.raises(ValueError, match=f"config key 'k_msg' repeated on line {line}"):
            parse_config_file(path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["ber-sweep", "--config", str(path), "--rates", "1.0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repeated on line {line}" in err and "Traceback" not in err

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            config_from_mapping({"frobnicate": "1"})

    def test_every_field_parses_from_its_string_form(self):
        # one non-default value per field, written as a config file would
        samples = {
            "k_msg": ("321", 321),
            "precode_rate": ("0.9", 0.9),
            "degree": ("5", 5),
            "weight_set": ("1/2,1/3,1/5", "1/2,1/3,1/5"),
            "assignment": ("with-replacement", "with-replacement"),
            "variants": ("uniform, min-degree", ("uniform", "min-degree")),
            "snr_db": ("5,12.5", (5.0, 12.5)),
            "rates": ("1.5,2.25", (1.5, 2.25)),
            "target_ber": ("0.001", 0.001),
            "trials": ("7", 7),
            "seed": ("42", 42),
            "out": ("x.csv", "x.csv"),
            "noiseless": ("true", True),
            "per_complex_noise": ("yes", True),
            "gnuplot": ("on", True),
            "max_iters": ("77", 77),
            "damping": ("0.25", 0.25),
            "ldpc_var_degree": ("4", 4),
            "min_error_events": ("12", 12),
            "max_trial_factor": ("3", 3),
            "n_budget_factor": ("6", 6),
        }
        assert set(samples) == {f.name for f in fields(ExperimentConfig)}
        default = ExperimentConfig()
        cfg = config_from_mapping({key: text for key, (text, _) in samples.items()})
        for key, (_, value) in samples.items():
            assert getattr(cfg, key) == value != getattr(default, key), key

    @pytest.mark.parametrize(
        "bad",
        [
            {"k_msg": 0},
            {"precode_rate": 0.0},
            {"precode_rate": 1.5},
            {"assignment": "bogus"},
            {"degree": 6},
            {"degree": 9, "assignment": "permutation"},
            {"degree": 9, "assignment": "without-replacement"},
            {"degree": 15, "assignment": "with-replacement"},
            {"degree": 0, "assignment": "with-replacement"},
            {"damping": 1.5, "variants": ("min-degree+precode",)},
            {"damping": -0.1},
            {"max_iters": 0},
            {"rates": (0.0, 1.0)},
            {"rates": (-1.0, 1.0)},
            {"rates": ()},
            {"snr_db": ()},
            {"variants": ()},
            {"variants": ("uniform", "uniform")},  # both copies would write one CSV
            {"variants": ("min-degree", "uniform", "min-degree")},
            {"ldpc_var_degree": 0},
            {"k_msg": 950, "ldpc_var_degree": 60},  # outer code has m = 50 checks
            {"k_msg": 95, "ldpc_var_degree": 5},  # m = 5: every bit would cover every check
            {"k_msg": 950, "ldpc_var_degree": 4},  # even: the checks of every code sum to zero
            {"k_msg": 100, "precode_rate": 0.999},  # outer code has m = 0 checks
        ],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_bad_config_fails_at_construction(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "text,value",
        [("TRUE", True), ("Yes", True), ("on", True), ("1", True),
         ("false", False), ("NO", False), ("Off", False), ("0", False)],
    )
    def test_bool_spellings(self, text, value):
        assert config_from_mapping({"noiseless": text}).noiseless is value

    @pytest.mark.parametrize("text", ["ture", "", "2", "y"])
    def test_unknown_bool_spelling_rejected(self, text):
        with pytest.raises(ValueError):
            config_from_mapping({"noiseless": text})

    def test_outer_code_checked_only_when_precoded(self):
        cfg = ExperimentConfig(k_msg=100, precode_rate=0.999, variants=("uniform", "min-degree"))
        assert cfg.precode_rate == 0.999
        assert ExperimentConfig(k_msg=114, ldpc_var_degree=5).ldpc_var_degree == 5  # m = 6
        assert ExperimentConfig(k_msg=19, ldpc_var_degree=1).ldpc_var_degree == 1  # m = 1: one check on every bit

    def test_without_replacement_allows_smaller_degree(self):
        assert ExperimentConfig(degree=5, assignment="without-replacement").degree == 5

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"snr_db": (15.0, float("nan"))}, "snr_db entries must be finite"),
            ({"snr_db": (float("-inf"),)}, "snr_db entries must be finite"),
            ({"rates": (1.0, float("nan"), 2.0)}, "rates must be finite"),
            ({"rates": (1.0, float("inf"))}, "rates must be finite"),
            ({"k_msg": 5, "variants": ("uniform",)}, "degree 8 exceeds k_msg 5"),
            ({"k_msg": 5, "precode_rate": 0.5, "degree": 14, "assignment": "with-replacement",
              "variants": ("min-degree+precode",)}, "degree 14 exceeds the outer code's 10 bits"),
            ({"snr_db": (15.0, 3100.0)}, "snr_db 3100.0 is out of range"),
            ({"snr_db": (3081.0,), "per_complex_noise": True}, "snr_db 3081.0 is out of range"),
            ({"snr_db": (1e308,)}, r"snr_db 1e\+308 is out of range"),
            ({"snr_db": (-3100.0,)}, "snr_db -3100.0 is out of range"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"n_budget_factor": 0, "k_msg": 2000, "snr_db": (5.0,)}, "n_budget_factor must be >= 1"),
            ({"min_error_events": -5}, "min_error_events must be >= 0"),
        ],
        ids=["snr-nan", "snr-inf", "rate-nan", "rate-inf", "degree-above-k-msg", "degree-above-outer-code",
             "snr-capacity-overflow", "snr-capacity-inf-per-complex", "snr-noise-underflow", "snr-noise-overflow",
             "seed-negative", "n-budget-factor-0", "min-error-events-negative"],
    )
    def test_refused_before_any_frame(self, bad, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**bad)

    def test_ber_sweep_runs_where_capacity_is_zero(self):
        # 1 + 10**(-40) rounds to 1; a BER sweep never divides by capacity
        (res,) = run_ber_sweep(tiny_cfg(snr_db=(-400.0,), rates=(1.0,), trials=1, max_trial_factor=1))
        assert 0.0 < res.points[0].ber < 1.0

    def test_ber_sweep_runs_without_warning_near_the_snr_ceiling(self):
        # noise variance about 1e-308: the far configurations' likelihood terms overflow
        cfg = tiny_cfg(snr_db=(3080.0,), rates=(1.0,), trials=2, max_trial_factor=1, variants=("uniform",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (res,) = run_ber_sweep(cfg)
        assert res.points[0].ber == 0.0

    def test_precoded_degree_may_exceed_k_msg(self):
        # the fountain rows of a precoded variant span the outer code's n = 10 bits
        cfg = ExperimentConfig(k_msg=5, precode_rate=0.5, variants=("min-degree+precode",))
        assert cfg.degree == 8 > cfg.k_msg

    def test_resolve_weight_set(self):
        ws = resolve_weight_set("1/2,1/4")
        assert ws.values == (0.5, 0.25)
        assert resolve_weight_set("reciprocal-primes").f == 8


class TestRngSubstreams:
    def test_same_path_same_stream(self):
        a = substream(3, 1, 2).normal(size=8)
        b = substream(3, 1, 2).normal(size=8)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = substream(3, 1, 2).normal(size=8)
        b = substream(3, 1, 3).normal(size=8)
        c = substream(4, 1, 2).normal(size=8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCli:
    def test_import_leaves_scipy_special_unloaded(self):
        # the Q-function imports scipy.special when it is first evaluated
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, afc.cli; print('scipy.special' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == b"False\n"

    def test_weights_check_pass(self, capsys):
        rc = cli_main(["weights", "check", "--values", "1/2,1/3,1/5", "--degree", "3"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_weights_check_zero_sum(self, capsys):
        rc = cli_main(["weights", "check", "--zero-sum-template"])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL: zero sum witness:") and out.rstrip().endswith("= 0")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["ber-sweep", "--assignment", "without-replacement", "--weight-set", "1/2,1/3", "--trials", "1"],
             "degree 8 exceeds weight set size 2"),
            (["weights", "check", "--values", "1/2,1/3,1/5", "--degree", "4"], "degree 4 exceeds weight set size 3"),
            (["ber-sweep", "--k-msg", "100", "--precode-rate", "0.999", "--rates", "1.0"], "outer code's 0 checks"),
            (["throughput-sweep", "--trials", "0"], "trials must be >= 1"),
            (["analyze", "shaping", "--delta", "0", "--samples", "1000"], "delta and eps must be finite and positive"),
            (["analyze", "shaping", "--delta", "nan", "--samples", "1000"], "delta and eps must be finite and positive"),
            (["weights", "search", "--size", "8", "--degree", "9"], "degree 9 exceeds weight set size 8"),
            (["analyze", "unique-solution", "--weights", "1,2", "--l-max", "1"], "l_max must be >= 2"),
            (["analyze", "unique-solution", "--weights", "1,2", "--l-max", "5"], "need l_max weights"),
            (["analyze", "unique-solution", "--weights", "x"], "Invalid literal for Fraction"),
            (["analyze", "pairwise", "--flips", "99"], "flip index out of range"),
            (["weights", "check", "--values", "1/0"], "zero denominator"),
            (["analyze", "unique-solution", "--weights", "1/0"], "zero denominator"),
            (["ber-sweep", "--weight-set", "1/0", "--rates", "1.0"], "zero denominator"),
            (["ber-sweep", "--trials", "1"], "ber sweep needs a rate grid"),
            (["ber-sweep", "--rates", "1.0", "--snr-db", "5,15"], "ber sweep runs at a single SNR"),
            (["ber-sweep", "--k-msg", "5", "--rates", "1.0", "--trials", "1"], "degree 8 exceeds k_msg 5"),
            (["ber-sweep", "--rates", "1.0", "--snr-db", "nan"], "snr_db entries must be finite"),
            (["analyze", "pairwise", "--snr-db", "nan"], "sigma must be finite and positive"),
            (["analyze", "pairwise", "--mc-draws", "-5"], "mc_draws must be >= 0"),
            (["ber-sweep", "--trials", "3.5"], "trials: invalid literal"),
            (["ber-sweep", "--rates", "1.0,nan"], "rates must be finite and > 0"),
            (["analyze", "unique-solution", "--weights", "1,2", "--l-max", "0"], "l_max must be >= 2"),
            (["throughput-sweep", "--k-msg", "100", "--snr-db", "1e308", "--trials", "1"], "is out of range"),
            (["ber-sweep", "--k-msg", "100", "--snr-db", "1e308", "--rates", "1.0", "--variants", "uniform"],
             "is out of range"),
            (["weights", "search", "--size", "8", "--degree", "8", "--budget", "-3"], "budget must be >= 1"),
            (["throughput-sweep", "--n-budget-factor", "0", "--k-msg", "2000", "--snr-db", "5"],
             "n_budget_factor must be >= 1"),
            (["ber-sweep", "--k-msg", "50", "--snr-db", "10", "--rates", "1.0", "--trials", "1",
              "--variants", "min-degree+precode"], "needs more than the outer code's 3 checks"),
            (["ber-sweep", "--rates", "1.0", "--variants", "uniform,uniform"], "each only once"),
        ],
        ids=["ber-sweep", "weights-check", "outer-code", "throughput-sweep", "shaping-delta", "shaping-nan",
             "weights-search", "unique-solution-l-max-1", "unique-solution-l-max-5", "unique-solution-weights",
             "pairwise-flips", "weights-check-zero-denominator", "unique-solution-zero-denominator",
             "ber-sweep-zero-denominator", "ber-sweep-no-rates", "ber-sweep-two-snrs", "ber-sweep-k-msg-5",
             "ber-sweep-snr-nan", "pairwise-snr-nan", "pairwise-mc-draws", "ber-sweep-trials-not-int",
             "ber-sweep-rate-nan", "unique-solution-l-max-0", "throughput-sweep-snr-overflow",
             "ber-sweep-snr-overflow", "weights-search-negative-budget", "throughput-sweep-n-budget-factor-0",
             "ber-sweep-outer-code-of-rank-one", "ber-sweep-repeated-variant"],
    )
    def test_refused_configuration_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, runner, result",
        [("ber-sweep", "run_ber_sweep", []), ("throughput-sweep", "run_throughput_sweep", SweepResult("throughput"))],
    )
    def test_every_config_key_is_a_sweep_flag(self, command, runner, result, monkeypatch):
        # one non-default value per config key, as flag text; bools are bare flags
        flags = {
            "k_msg": "500", "precode_rate": "0.9", "degree": "4", "weight_set": "1/2,1/3,1/5,1/7",
            "assignment": "without-replacement", "variants": "uniform,min-degree", "snr_db": "5,15",
            "rates": "1.0,2.0", "target_ber": "0.001", "trials": "7", "seed": "3", "out": "x.csv",
            "noiseless": None, "per_complex_noise": None, "gnuplot": None, "max_iters": "20",
            "damping": "0.25", "ldpc_var_degree": "4", "min_error_events": "12", "max_trial_factor": "3",
            "n_budget_factor": "6",
        }
        assert set(flags) == {f.name for f in fields(ExperimentConfig)}
        seen = []
        monkeypatch.setattr(cli, runner, lambda cfg: seen.append(cfg) or result)
        argv = [command]
        for key, text in flags.items():
            argv += ["--" + key.replace("_", "-")] + ([] if text is None else [text])
        assert cli_main(argv) == 0
        expected = config_from_mapping({key: "true" if text is None else text for key, text in flags.items()})
        assert seen == [expected]
        default = ExperimentConfig()
        assert [key for key in flags if getattr(expected, key) == getattr(default, key)] == []

    def test_throughput_sweep_refuses_outer_code_as_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("k_msg = 100\nprecode_rate = 0.999\nvariants = uniform\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["throughput-sweep", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "outer code's 0 checks" in err and "Traceback" not in err

    def test_shaping_csv_bytes_pinned(self, tmp_path, capsys):
        out = tmp_path / "bins.csv"
        assert cli_main(["analyze", "shaping", "--samples", "100000", "--out", str(out)]) == 0
        digest = "c788dee0293a5e913e4fa3c85aa3bef6435e0a256c8cad122533409363537d2f"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_ber_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli_main([
            "ber-sweep", "--k-msg", "100", "--rates", "1.0", "--snr-db", "15",
            "--trials", "3", "--seed", "1", "--noiseless",
            "--variants", "min-degree", "--out", str(out),
        ])
        assert rc == 0
        lines = (tmp_path / "sweep_min-degree.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS) and len(lines) == 2

    def test_unique_solution_report(self, capsys):
        rc = cli_main(["analyze", "unique-solution", "--weights", "1/2,1/3,1/5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "e_3 = 0" in out
        assert cli_main(["analyze", "unique-solution", "--weights", "1,1,2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["e_3 = 3/4 (unique-solution fraction 1/4)", "  step 2 -> 3: collision prob 1/2, e = 3/4"]

    def test_config_file_drives_sweep(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.txt"
        out = tmp_path / "c.csv"
        cfgfile.write_text(
            "k_msg = 100\nrates = 1.0\nsnr_db = 15\ntrials = 2\nnoiseless = true\n"
            "variants = min-degree\n"
        )
        rc = cli_main(["ber-sweep", "--config", str(cfgfile), "--seed", "2", "--out", str(out)])
        assert rc == 0
        assert (tmp_path / "c_min-degree.csv").exists()

    def test_shaping_report(self, tmp_path, capsys):
        out = tmp_path / "bins.csv"
        rc = cli_main([
            "analyze", "shaping", "--samples", "100000", "--out", str(out),
        ])
        assert rc == 0
        n_bins = int(capsys.readouterr().out.split(" over ")[1].split()[0])
        lines = out.read_text().splitlines()
        assert lines[0] == "bin_index,p_hat,q_ref,gap_sq" and len(lines) == n_bins + 1

    def test_pairwise_report(self, capsys):
        rc = cli_main(["analyze", "pairwise", "--flips", "0,1", "--mc-draws", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "closed form" in out and "over 2000 draws" in out
