"""Columnar observation logs: the one recorded form of a receiver's stream.

Every event round-trips the typed columns bit-exactly, so replaying an
:class:`~repro.core.obslog.ObservationColumns` log gives the same tables
as replaying the plain event tuples it holds, and one-pass multi-shard
replay matches shard-by-shard replay.
"""

import pickle

import pytest

from repro.core.obslog import ObservationColumns
from repro.core.receiver import REF_OBS, REG_OBS
from repro.core.replay import replay_observations, replay_observations_multi


def synthetic_events():
    a, b = (167837697, 167903233, 4242, 80, 6), (2, 9, 2, 2, 17)
    return [
        (REF_OBS, 0, 0.010, 20e-6),
        (REG_OBS, 0, 0.012, a, 25.3e-6),
        (REG_OBS, 1, 0.014, b, 28.7e-6),
        (REF_OBS, 1, 0.020, 30e-6),
        (REG_OBS, 0, 0.031, a, 31e-6),
    ]


class TestObservationColumns:
    def test_roundtrips_exact_tuples(self):
        events = synthetic_events()
        columns = ObservationColumns(events)
        assert len(columns) == len(events)
        assert list(columns) == events

    def test_floats_roundtrip_bitwise(self):
        # values that don't have short decimal representations
        value = 1.0 / 3.0
        now = 2.0 / 7.0
        columns = ObservationColumns([(REF_OBS, 0, now, value)])
        _, _, got_now, got_value = next(iter(columns))
        assert (got_now, got_value) == (now, value)
        assert pickle.dumps(got_value) == pickle.dumps(value)

    def test_append_api_matches_list(self):
        as_list, as_columns = [], ObservationColumns()
        for event in synthetic_events():
            as_list.append(event)
            as_columns.append(event)
        assert list(as_columns) == as_list

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            ObservationColumns().append((7, 0, 0.0, 0.0))

    def test_pickle_roundtrip(self):
        columns = ObservationColumns(synthetic_events())
        clone = pickle.loads(pickle.dumps(columns))
        assert list(clone) == list(columns)

    def test_columns_are_smaller_than_tuples(self):
        import sys

        events = synthetic_events() * 200
        columns = ObservationColumns(events)
        tuple_floor = sum(sys.getsizeof(e) for e in events)  # tuples alone
        assert columns.nbytes < tuple_floor

    def test_numpy_views(self):
        columns = ObservationColumns(synthetic_events())
        arrays = columns.arrays()
        assert arrays["tag"].tolist() == [REF_OBS, REG_OBS, REG_OBS,
                                          REF_OBS, REG_OBS]
        assert arrays["time"].tolist() == [e[2] for e in synthetic_events()]
        assert arrays["key"][0][1] == 167837697


class TestReplayEquivalence:
    def test_synthetic_replay_identical(self):
        events = synthetic_events()
        from_list = replay_observations(events)
        from_columns = replay_observations(ObservationColumns(events))
        assert pickle.dumps(from_list.estimated) == pickle.dumps(from_columns.estimated)
        assert pickle.dumps(from_list.true) == pickle.dumps(from_columns.true)
        assert from_list.unestimated == from_columns.unestimated

    def test_recorded_receiver_replay_identical(self, tiny_workload):
        """A real pipeline run's recorded columns replay exactly like the
        plain event tuples they hold, sharded or not."""
        from repro.sim.pipeline import TwoSwitchPipeline

        log = ObservationColumns()
        receiver = tiny_workload.make_receiver(observation_log=log)
        TwoSwitchPipeline(tiny_workload.pipeline_config).run(
            regular=tiny_workload.regular.clone_packets(),
            cross=tiny_workload.cross_arrivals("random", 0.67),
            sender=tiny_workload.make_sender("static"),
            receiver=receiver,
            duration=tiny_workload.cfg.duration,
        )
        receiver.finalize()
        events = list(log)
        assert len(events) > 100
        for shard, n_shards in ((0, 1), (0, 3), (1, 3), (2, 3)):
            a = replay_observations(events, shard=shard, n_shards=n_shards)
            b = replay_observations(log, shard=shard, n_shards=n_shards)
            assert pickle.dumps(a.estimated) == pickle.dumps(b.estimated)
            assert pickle.dumps(a.true) == pickle.dumps(b.true)


class TestReplayMulti:
    def test_multi_matches_per_shard_bitwise(self, tiny_workload):
        """The distributed chunk envelope: one-pass multi-shard replay is
        bitwise-identical to shard-by-shard replay."""
        from repro.sim.pipeline import TwoSwitchPipeline

        log = ObservationColumns()
        sender = tiny_workload.make_sender("static")
        receiver = tiny_workload.make_receiver(observation_log=log)
        TwoSwitchPipeline(tiny_workload.pipeline_config).run(
            regular=tiny_workload.regular.clone_packets(),
            cross=tiny_workload.cross_arrivals("random", 0.67),
            sender=sender,
            receiver=receiver,
            duration=tiny_workload.cfg.duration,
        )
        receiver.finalize()
        multi = replay_observations_multi(log, shards=(0, 2, 3), n_shards=4)
        assert sorted(multi) == [0, 2, 3]
        for shard, tables in multi.items():
            single = replay_observations(log, shard=shard, n_shards=4)
            assert pickle.dumps(single.estimated) == pickle.dumps(tables.estimated)
            assert pickle.dumps(single.true) == pickle.dumps(tables.true)
            assert single.unestimated == tables.unestimated

    def test_multi_validates_shards(self):
        events = synthetic_events()
        with pytest.raises(ValueError):
            replay_observations_multi(events, shards=(0, 0), n_shards=2)
        with pytest.raises(ValueError):
            replay_observations_multi(events, shards=(5,), n_shards=2)

    def test_multi_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            replay_observations_multi([(9, 0, 0.0, 0.0)], shards=(0,), n_shards=1)
