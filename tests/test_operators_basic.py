"""Unit tests for select, project and group-by aggregate."""

import pytest

from repro.engine.operators.aggregate import GroupByAggregate
from repro.engine.operators.project import Project
from repro.engine.operators.select import Select
from repro.engine.tuples import JoinResult, Schema, StreamTuple


def tup(key, seq=0, payload=(), size=96):
    return StreamTuple(stream="A", seq=seq, key=key, ts=float(seq),
                       payload=payload, size=size)


class TestSelect:
    def test_predicate_filters(self):
        op = Select("even", lambda t: t.key % 2 == 0)
        assert list(op.process(tup(2))) == [tup(2)]
        assert list(op.process(tup(3))) == []
        assert op.inputs_seen == 2
        assert op.outputs_emitted == 1
        assert op.dropped == 1

    def test_selectivity(self):
        op = Select("s", lambda t: t.key < 2)
        assert op.selectivity == 1.0
        for k in range(4):
            list(op.process(tup(k)))
        assert op.selectivity == pytest.approx(0.5)

    def test_stateless(self):
        assert Select("s", lambda t: True).state_bytes == 0


class TestProject:
    SCHEMA = Schema(name="A", key_field="k", fields=("k", "broker", "price"),
                    tuple_size=96)

    def test_keeps_selected_payload_fields(self):
        op = Project("p", self.SCHEMA, keep=("price",))
        [out] = list(op.process(tup(1, payload=("acme", 9.5))))
        assert out.payload == (9.5,)
        assert out.key == 1

    def test_output_size_shrinks(self):
        op = Project("p", self.SCHEMA, keep=("price",))
        [out] = list(op.process(tup(1, payload=("acme", 9.5))))
        assert out.size < 96

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            Project("p", self.SCHEMA, keep=("ghost",))

    def test_identity_preserved(self):
        op = Project("p", self.SCHEMA, keep=("broker",))
        [out] = list(op.process(tup(1, seq=7, payload=("acme", 9.5))))
        assert out.ident == ("A", 7)


class TestGroupByAggregate:
    def make_result(self, broker, price, ts=0.0):
        part = StreamTuple(stream="bank1", seq=0, key=1, ts=ts,
                           payload=(broker, price))
        return JoinResult(key=1, parts=(part,), ts=ts)

    def make_min_agg(self):
        return GroupByAggregate(
            "min_price",
            key_fn=lambda r: r.parts[0].payload[0],
            value_fn=lambda r: r.parts[0].payload[1],
            fn="min",
        )

    def test_min_emits_only_on_change(self):
        agg = self.make_min_agg()
        first = list(agg.process(self.make_result("acme", 10.0)))
        higher = list(agg.process(self.make_result("acme", 12.0)))
        lower = list(agg.process(self.make_result("acme", 8.0)))
        assert [u.value for u in first] == [10.0]
        assert higher == []
        assert [u.value for u in lower] == [8.0]
        assert agg.current("acme") == 8.0

    def test_groups_are_independent(self):
        agg = self.make_min_agg()
        list(agg.process(self.make_result("a", 5.0)))
        list(agg.process(self.make_result("b", 3.0)))
        assert agg.groups() == {"a": 5.0, "b": 3.0}

    @pytest.mark.parametrize(
        "fn,values,expected",
        [
            ("max", [1.0, 3.0, 2.0], 3.0),
            ("sum", [1.0, 2.0, 3.0], 6.0),
            ("count", [9.0, 9.0], 2.0),
            ("avg", [2.0, 4.0], 3.0),
        ],
    )
    def test_aggregate_functions(self, fn, values, expected):
        agg = GroupByAggregate("a", key_fn=lambda r: "g",
                               value_fn=lambda r: r.parts[0].payload[1], fn=fn)
        for v in values:
            list(agg.process(self.make_result("g", v)))
        assert agg.current("g") == pytest.approx(expected)

    def test_unknown_fn_rejected(self):
        with pytest.raises(ValueError):
            GroupByAggregate("a", key_fn=lambda r: 0, value_fn=lambda r: 0,
                             fn="median")

    def test_state_bytes_grows_with_groups(self):
        agg = self.make_min_agg()
        assert agg.state_bytes == 0
        list(agg.process(self.make_result("a", 1.0)))
        list(agg.process(self.make_result("b", 1.0)))
        assert agg.state_bytes == 96

    def test_current_unseen_group_is_none(self):
        assert self.make_min_agg().current("ghost") is None
