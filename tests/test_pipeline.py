"""Each telemetry mode observes the egress stream and nothing else, so a run
with one mode reproduces that mode's share of the all-mode run. `flowtel
sweep` relies on it when it runs each mode once per setting it reads."""

import copy
import gc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtel import pipeline
from flowtel.analysis import extract_postcard_features
from flowtel.baselines import DeltaSampler, TelemetryMode, export_cost, postcard_line
from flowtel.cli import load_scenario
from flowtel.pipeline import (
    ALL_MODES,
    TelemetryConfig,
    WindowStream,
    feature_lines,
    metrics_lines,
    outcome_lines,
    run_scenario,
    run_telemetry,
)
from flowtel.core import NS_PER_S, FlowKey, bucket_index_array
from flowtel.scenarios import build
from flowtel.simulator import (
    MAX_QID,
    AnomalyEvent,
    AnomalyKind,
    FlowSpec,
    PacketBatch,
    QueuePolicy,
    ScenarioError,
    ScenarioSpec,
    TrafficPattern,
    flow_codes,
    simulate,
)
from flowtel.sketch import HistogramSketch

from conftest import sketch_window_table


@pytest.mark.parametrize("scenario", ["smoke", str(Path(__file__).parent / "golden_drops.json")])
def test_one_mode_run_reproduces_the_all_mode_run(scenario):
    spec, cfg, _ = load_scenario(scenario, None)
    sim = simulate(spec)
    every = run_telemetry(*sim, spec, cfg)
    assert every.modes[TelemetryMode.SKETCH].record_chunks  # records.bin is compared below
    for mode in ALL_MODES:
        alone = run_telemetry(*sim, spec, cfg, modes=(mode,))
        one, ref = alone.modes[mode], every.modes[mode]
        assert one.features.dtype == ref.features.dtype
        assert one.features.tolist() == ref.features.tolist()  # scope holds objects
        assert one.record_lines == ref.record_lines
        assert one.record_chunks == ref.record_chunks
        assert one.bytes_per_window == ref.bytes_per_window
        want = {k: v for k, v in every.outcomes.items() if k[1] == mode.value}
        assert alone.outcomes.keys() == want.keys()
        for k, v in want.items():
            assert alone.outcomes[k].dtype == v.dtype
            assert alone.outcomes[k].tolist() == v.tolist()
        assert alone.metrics == [m for m in every.metrics if m.mode == mode.value]


@pytest.mark.parametrize("field, key", [("explicit_lat_edges", "lat_edges_ns"),
                                        ("explicit_iat_edges", "iat_edges_ns")])
def test_pinned_edges_for_a_qid_without_a_queue_raise_for_a_config_built_in_code(field, key):
    spec, cfg = build("smoke")
    pinned = replace(cfg, **{field: ((9, (1., 2., 3., 4., 5., 6., 7.)),)})
    with pytest.raises(ScenarioError, match=rf"telemetry\.{key}: qid 9 is not in queue_policy"):
        run_scenario(spec, pinned)


def remapped_flow_spec() -> ScenarioSpec:
    """Tunnel 1 moves from QFI 1 to QFI 2 for a while: DSMP then sees
    (1, 2), a flow no one registered, whose code sits between registered ones.
    QFI 2 has the lower queue, so queue order is not scope order."""
    flows = tuple(FlowSpec(FlowKey(teid, qfi), TrafficPattern.POISSON, 400.0)
                  for teid, qfi in ((1, 1), (2, 1), (2, 2), (3, 2)))
    return ScenarioSpec(
        duration_s=4.0, seed=3, flows=flows, qfi_to_qid={1: 1, 2: 0},
        queue_policy={q: QueuePolicy(tier=q, weight=1, service_rate_bps=50e6, buffer_pkts=500)
                      for q in (0, 1)},
        anomalies=(AnomalyEvent(AnomalyKind.POLICY_ABUSE, start_s=2.2, duration_s=0.6,
                                target_flows=(FlowKey(1, 1),), remapped_qfi=2),),
    )


@pytest.mark.parametrize("scenario", ["smoke", str(Path(__file__).parent / "golden_drops.json"),
                                      "remapped"])
def test_every_feature_table_is_in_window_scope_order(scenario):
    """Outcomes are written in feature-table order, so each mode's table must
    already hold its rows in (window, scope) order, each pair once."""
    if scenario == "remapped":
        spec, cfg = remapped_flow_spec(), build("smoke")[1]
    else:
        spec, cfg, _ = load_scenario(scenario, None)
    result = run_scenario(spec, cfg, collect_sketch_records=False)
    for mode, data in result.modes.items():
        table = data.features
        keys = list(zip(table.window.tolist(), table.scope.tolist()))
        assert keys and all(a < b for a, b in zip(keys, keys[1:])), mode
        for (kind, md), rows in result.outcomes.items():
            if md == mode.value:
                assert list(zip(rows.window.tolist(), rows.scope.tolist())) == keys, kind
    if scenario == "remapped":
        dsmp = result.modes[TelemetryMode.DSMP].features
        assert ("flow", 1, 2) in dsmp.scope[dsmp.unregistered].tolist()


# -- the chunked sketch pass against the per-window loop it replaced ---------------


def per_window_sketch_pass(stream, spec, cfg, lat_edges, iat_edges, sketch_type):
    """The oracle: each queue's packets of a window folded into ``counts``,
    every key queried, every bucket exported, then ``reset_window``, window by
    window. Gives the feature table, the records.bin bytes and the sketches."""
    region = cfg.region()
    registered = [fl.key for fl in spec.flows if fl.monitored]
    sketches = {qid: sketch_type(cfg.sketch_config(spec.seed), qid=qid, lat_edges=lat_edges[qid],
                                 iat_edges=iat_edges[qid])
                for qid in sorted(spec.queue_policy)}
    tables, records = [], b""
    for w in range(stream.n_windows):
        for qid, sketch in sketches.items():
            idx = np.flatnonzero(stream.monitored & (stream.qid == qid) & (stream.window == w))
            if len(idx):
                soj = stream.sojourn_ns[idx]
                sketch.update_batch(flow_codes(stream.teid[idx], stream.qfi[idx]),
                                    stream.bytes[idx], stream.arrival_ns[idx] + soj, soj,
                                    stream.color[idx])
        tables.append(sketch_window_table(sketches, registered, region, w, spec.qfi_to_qid))
        for sketch in sketches.values():
            records += sketch.export_window_array(w).tobytes()
            sketch.reset_window()
    return np.concatenate(tables).view(np.recarray), records, sketches


@st.composite
def small_streams(draw):
    """A window stream over 1-3 queues and 1-6 flows, some unmonitored, that
    w = 2 or 4 columns make share cells: each window has a drawn subset of
    the flows (none at times, so a flow skips windows and a cell changes
    owner), and stamps drawn around the window's start, so gaps go negative
    inside a window and across windows. Its rows are stable-sorted
    queue-major, as window_stream orders them, so each queue keeps its drawn
    order and its negative gaps. Also the sketch's lowered counter
    cap and the chunk budget, 1 and 3 cutting at every window and leaving
    some windows over the budget."""
    n_queues = draw(st.integers(1, 3))
    flows = tuple(FlowSpec(FlowKey(teid, draw(st.integers(1, n_queues))), TrafficPattern.CBR,
                           100.0, monitored=draw(st.booleans()) or teid == 1)
                  for teid in range(1, draw(st.integers(1, 6)) + 1))
    n_windows = draw(st.integers(1, 6))
    window_len = 1_000
    rows = []  # (window, flow, stamp, sojourn, bytes, color)
    for w in range(n_windows):
        for f in draw(st.lists(st.integers(0, len(flows) - 1), max_size=12)):
            rows.append((w, f, w * window_len + draw(st.integers(-window_len // 2, window_len)),
                         draw(st.integers(0, 400)), draw(st.integers(40, 1500)),
                         draw(st.integers(0, 2))))
    spec = ScenarioSpec(
        duration_s=n_windows * window_len / 1e9, seed=draw(st.integers(0, 5)), flows=flows,
        qfi_to_qid={q: q - 1 for q in range(1, n_queues + 1)},
        queue_policy={q: QueuePolicy(tier=0, service_rate_bps=1e9) for q in range(n_queues)},
        window_len_ns=window_len,
    )
    cols = np.array(rows, dtype=np.int64).reshape(-1, 6).T
    monitored = np.array([flows[f].monitored for f in cols[1].tolist()], bool)
    qid = np.array([flows[f].key.qfi - 1 for f in cols[1].tolist()], np.int64)
    order = np.argsort(qid * 2 + ~monitored, kind="stable")
    cols, monitored, qid = cols[:, order], monitored[order], qid[order]
    keys = [flows[f].key for f in cols[1].tolist()]
    stream = WindowStream(
        teid=np.array([k.teid for k in keys], np.uint32),
        qfi=np.array([k.qfi for k in keys], np.uint8),
        bytes=cols[4].astype(np.uint16), arrival_ns=cols[2] - cols[3], monitored=monitored,
        injected=None, qid=qid.astype(np.uint8), sojourn_ns=cols[3],
        color=cols[5].astype(np.int8), window=cols[0], n_windows=n_windows)
    cfg = TelemetryConfig(width=draw(st.sampled_from([2, 4])), depth=draw(st.integers(1, 3)))
    return spec, cfg, stream, draw(st.sampled_from([3, 40, None])), draw(
        st.sampled_from([1, 3, pipeline.CHUNK_PKTS]))


def assert_chunked_pass_matches_the_oracle(stream, spec, cfg, lat_edges, iat_edges, budget,
                                           cap=None):
    """The chunked pass, under a chunk budget and, if given, a lowered
    counter cap, gives the oracle's feature rows, records.bin bytes and, per
    queue, lost units, clamped gaps and last-seen stamps."""
    made: list[HistogramSketch] = []

    class Recorded(HistogramSketch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if cap is not None:
                self.caps = np.minimum(self.caps, cap)
            made.append(self)

    table, records, oracle = per_window_sketch_pass(stream, spec, cfg, lat_edges, iat_edges,
                                                    Recorded)
    made.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "HistogramSketch", Recorded)
        mp.setattr(pipeline, "CHUNK_PKTS", budget)
        got = pipeline._sketch_pass(stream, spec, cfg, lat_edges, iat_edges, collect_records=True)
    assert feature_lines(got.features) == feature_lines(table)
    assert b"".join(got.record_chunks) == records
    assert [sk.qid for sk in made] == list(oracle)
    for sk, ref in zip(made, oracle.values()):
        assert (sk.saturated_units, sk.monotonicity_warnings) == (
            ref.saturated_units, ref.monotonicity_warnings)
        assert sk.last_seen.tolist() == ref.last_seen.tolist()


@settings(max_examples=60, deadline=None)
@given(small_streams())
def test_chunked_sketch_pass_matches_the_per_window_oracle(case):
    spec, cfg, stream, cap, budget = case
    edges = {q: np.array([1, 2, 4, 8, 16, 64, 256], float) for q in spec.queue_policy}
    assert_chunked_pass_matches_the_oracle(stream, spec, cfg, edges, edges, budget, cap)


@pytest.mark.parametrize("budget", [3000, pipeline.CHUNK_PKTS])
@pytest.mark.parametrize("scenario", ["smoke", str(Path(__file__).parent / "golden_drops.json")])
def test_chunked_sketch_pass_matches_the_per_window_oracle_on_scenarios(scenario, budget):
    spec, cfg, _ = load_scenario(scenario, None)
    delivered, _, _ = simulate(spec)
    stream = pipeline.window_stream(delivered, spec.window_len_ns, spec.duration_s)
    assert_chunked_pass_matches_the_oracle(stream, spec, cfg, *pipeline.fit_qid_edges(
        stream, spec, cfg), budget)


def test_chunks_cut_at_window_starts_within_the_budget(monkeypatch):
    """Windows of 2, 0, 5 and 1 packets under a budget of 3: the empty window
    joins the first chunk, and the 5-packet window is a chunk of its own."""
    monkeypatch.setattr(pipeline, "CHUNK_PKTS", 3)
    assert pipeline._chunks([0, 2, 2, 7, 8]) == [(0, 2), (2, 3), (3, 4)]
    assert pipeline._chunks([0, 0, 0]) == [(0, 2)]
    assert pipeline._chunks([0]) == []


# -- DSMP over the delivered batch against the queue-major pass it replaced ---------


def queue_major_dsmp_pass(delivered, spec, cfg, lat_edges, iat_edges):
    """The oracle: the sampler over the queue-major window stream, each
    postcard's delivered row found through ``_queue_major``, the postcards
    ordered by departure and then by that row. Gives the record lines, the
    feature table and the per-window costs, and the postcards."""
    stream = pipeline.window_stream(delivered, spec.window_len_ns, spec.duration_s)
    idx = DeltaSampler(delta_ns=cfg.dsmp_delta_ns).offer_batch(stream, stream.monitored)
    row = pipeline._queue_major(delivered, stream.n_windows * spec.window_len_ns)[idx]
    pc = stream.take(idx)
    pc = pc.take(np.lexsort((row, pc.depart_ns())))
    pcs = (pc.window, pc.teid, pc.qfi, pc.qid, pc.depart_ns(), pc.sojourn_ns, pc.color, pc.bytes)
    table = extract_postcard_features(
        pc.window, pc.codes(), *pcs[4:], [fl.key for fl in spec.flows if fl.monitored],
        cfg.region(), stream.n_windows, lat_edges, iat_edges, spec.qid_table(), cfg.bins_b)
    costs = [export_cost(TelemetryMode.DSMP, postcards=n)
             for n in np.bincount(pc.window, minlength=stream.n_windows).tolist()]
    return list(map(postcard_line, *(c.tolist() for c in pcs))), table, costs, pc


@st.composite
def delivered_batches(draw):
    """A delivered batch over 1-3 FIFO queues, each with a monitored flow of
    its own, and 0-4 more flows, some unmonitored, each in the queue its QFI
    maps to. Each queue's rows depart in delivered order on a grid of quarter
    windows, so departures tie across queues, and some depart after the last
    window. Every queue's first row is its own flow's, at one drawn time in
    the run, and these rows come first, the highest queue's first, where the
    queue-major stream has the lowest queue's first; the other rows follow,
    interleaved in a drawn order. Also the sampler's delta."""
    n_queues = draw(st.integers(1, 3))
    flows = tuple(FlowSpec(FlowKey(teid, teid if teid <= n_queues else
                                   draw(st.integers(1, n_queues))), TrafficPattern.CBR, 100.0,
                           monitored=teid <= n_queues or draw(st.booleans()))
                  for teid in range(1, n_queues + draw(st.integers(0, 4)) + 1))
    n_windows, window_len = draw(st.integers(1, 4)), 1_000
    first = draw(st.integers(0, n_windows * 4 - 1))
    row = lambda f, t: (f, t * window_len // 4, draw(st.integers(0, 900)),  # noqa: E731
                        draw(st.integers(40, 1500)), draw(st.integers(0, 2)))
    heads, rest = [row(q, first) for q in reversed(range(n_queues))], {}
    for q in range(n_queues):
        mine = [f for f, fl in enumerate(flows) if fl.key.qfi - 1 == q]
        departs = sorted(draw(st.lists(st.integers(first, n_windows * 4), max_size=15)))
        rest[q] = [row(draw(st.sampled_from(mine)), t) for t in departs]
    order = draw(st.permutations([q for q, own in rest.items() for _ in own]))
    taken = {q: iter(own) for q, own in rest.items()}
    f, depart, soj, nbytes, color = np.array(heads + [next(taken[q]) for q in order],
                                             np.int64).T
    keys = [flows[i].key for i in f.tolist()]
    delivered = PacketBatch(
        teid=np.array([k.teid for k in keys], np.uint32),
        qfi=np.array([k.qfi for k in keys], np.uint8), bytes=nbytes.astype(np.uint16),
        arrival_ns=depart - soj, injected=np.zeros(len(f), bool),
        monitored=np.array([flows[i].monitored for i in f.tolist()], bool),
        qid=np.array([k.qfi - 1 for k in keys], np.uint8),
        sojourn_ns=soj, color=color.astype(np.int8))
    spec = ScenarioSpec(
        duration_s=n_windows * window_len / 1e9, seed=0, flows=flows,
        qfi_to_qid={q: q - 1 for q in range(1, n_queues + 1)},
        queue_policy={q: QueuePolicy(tier=0, service_rate_bps=1e9) for q in range(n_queues)},
        window_len_ns=window_len,
    )
    cfg = TelemetryConfig(dsmp_delta_ns=draw(st.sampled_from([1, 100, 400, 10**6])))
    return spec, cfg, delivered


def test_dsmp_pass_over_the_delivered_batch_matches_the_queue_major_oracle():
    """Byte for byte, also where the two orders differ: departures that tie
    across queues, delivered with the higher queue first (the queue-major
    stream lists the lower first), unmonitored rows and rows that depart after
    the last window. Each of these occurs among the drawn batches."""
    seen = {"tie delivered high queue first": 0, "unmonitored": 0, "late": 0}
    edges = np.array([1, 2, 4, 8, 16, 64, 256], float)

    @settings(max_examples=80, deadline=None)
    @given(delivered_batches())
    def check(case):
        spec, cfg, delivered = case
        lat_edges = iat_edges = {q: edges for q in spec.queue_policy}
        n_windows = -(-int(spec.duration_s * NS_PER_S) // spec.window_len_ns)
        lines, table, costs, pc = queue_major_dsmp_pass(delivered, spec, cfg, lat_edges,
                                                        iat_edges)
        got = pipeline._dsmp_pass(delivered, n_windows, spec, cfg, lat_edges, iat_edges)
        assert got.record_lines == lines
        assert feature_lines(got.features) == feature_lines(table)
        assert got.bytes_per_window == costs
        depart, qid = pc.depart_ns(), pc.qid
        seen["tie delivered high queue first"] += bool(
            ((depart[1:] == depart[:-1]) & (qid[1:] < qid[:-1])).any())
        seen["unmonitored"] += bool((~delivered.monitored).any())
        seen["late"] += bool((delivered.depart_ns() >= n_windows * spec.window_len_ns).any())

    check()
    assert all(seen.values()), seen


# -- the sketch against the exact per-flow table it estimates ----------------------


# the fields a sketch row reads exactly when its flow has a cell of its own in some
# row: a shared cell's counters are at least the flow's, so the row-minimum is the
# lone cell's. IAT is left out, as each cell also takes one gap across windows per
# window, from the last stamp it saw before the window, which the table never counts.
EXACT_WITH_A_LONE_CELL = ("pkts", "bytes", "tail_frac", *(f"lat{i}" for i in range(8)),
                          "green_frac", "yellow_frac", "red_frac")


def test_sketch_volumes_never_undercount_the_exact_per_flow_table():
    """The exact table is one extract_postcard_features call over every
    monitored packet of the window stream, its unregistered rows dropped: it
    has the sketch table's rows in the same order. At width 2, at the
    default width and at 4,096, every packet and byte estimate is at least
    exact, and at width 2 collisions push some above it. At the last two,
    each registered flow has a cell no other code of its queue's stream
    hashes to in some row, and the sketch reads exactly there."""
    spec, cfg, _ = load_scenario(str(Path(__file__).parent / "golden_drops.json"), None)
    delivered, _, _ = simulate(spec)
    stream = pipeline.window_stream(delivered, spec.window_len_ns, spec.duration_s)
    lat_edges, iat_edges = pipeline.fit_qid_edges(stream, spec, cfg)
    seen = stream.take(np.flatnonzero(stream.monitored))
    exact = extract_postcard_features(
        seen.window, seen.codes(), seen.depart_ns(), seen.sojourn_ns, seen.color, seen.bytes,
        [fl.key for fl in spec.flows if fl.monitored], cfg.region(), stream.n_windows,
        lat_edges, iat_edges, spec.qid_table(), cfg.bins_b,
    )
    exact = exact[~exact.unregistered]
    registered = np.array([fl.key.code() for fl in spec.flows if fl.monitored], np.uint64)
    for width in (2, cfg.width, 4096):
        est = pipeline._sketch_pass(stream, spec, replace(cfg, width=width), lat_edges, iat_edges,
                                    collect_records=False).features
        assert est.window.tolist() == exact.window.tolist()
        assert est.scope.tolist() == exact.scope.tolist()
        assert (est.pkts >= exact.pkts).all() and (est.bytes >= exact.bytes).all()
        if width == 2:
            assert (est.pkts > exact.pkts).any()
            continue
        seeds = replace(cfg, width=width).sketch_config(spec.seed).seeds
        for qid in spec.queue_policy:
            own = stream.monitored_rows(qid)
            codes = np.unique(flow_codes(stream.teid[own], stream.qfi[own]))
            cells = bucket_index_array(codes, seeds, width)  # [d, codes]
            lone = [(np.count_nonzero(cells == cells[:, [i]], axis=1) == 1).any()
                    for i in np.flatnonzero(np.isin(codes, registered))]
            assert all(lone), (width, qid)
        for name in EXACT_WITH_A_LONE_CELL:
            assert est[name].tolist() == exact[name].tolist(), (width, name)


# -- one window stream and one edge fit per delivered batch ------------------------


GOLDEN = str(Path(__file__).parent / "golden_drops.json")


@pytest.fixture(scope="module")
def golden_run():
    """golden_drops.json's spec and config and one simulated batch, shared by
    every call, so later calls reuse the stream earlier ones built."""
    spec, cfg, _ = load_scenario(GOLDEN, None)
    return spec, cfg, simulate(spec)


def run_texts(result) -> dict:
    """Every output of a run that its files are written from."""
    return {
        "features": {m: feature_lines(d.features) for m, d in result.modes.items()},
        "records": {m: (d.record_lines, d.record_chunks, d.bytes_per_window)
                    for m, d in result.modes.items()},
        "outcomes": outcome_lines(result.outcomes),
        "metrics": metrics_lines(result),
        "edges": [{q: e.tolist() for q, e in edges.items()}
                  for edges in (result.lat_edges, result.iat_edges)],
    }


telemetry_calls = st.lists(st.tuples(
    st.sampled_from([16, 64, 256]), st.integers(1, 3), st.sampled_from([0.01, 0.05]),
    st.lists(st.sampled_from(ALL_MODES), min_size=1, max_size=3, unique=True),
    st.booleans()), min_size=1, max_size=4)


@settings(max_examples=25, deadline=None)
@given(calls=telemetry_calls)
def test_runs_over_one_batch_match_runs_over_a_fresh_copy(golden_run, calls):
    """A sequence of runs over one batch, the later ones reusing its stream and
    edges, gives each run's outputs as a run over a fresh deep copy does."""
    spec, cfg, (delivered, drops, labels) = golden_run
    setups = [(replace(cfg, width=w, depth=d, rho=rho), tuple(modes), records)
              for w, d, rho, modes, records in calls]
    shared = [run_texts(run_telemetry(delivered, drops, labels, spec, c, m, r))
              for c, m, r in setups]
    for (c, m, r), got in zip(setups, shared):
        fresh = run_telemetry(copy.deepcopy(delivered), drops, labels, spec, c, m, r)
        assert got == run_texts(fresh)


def count_calls(monkeypatch) -> dict[str, int]:
    calls = {"window_stream": 0, "fit_qid_edges": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(pipeline, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(pipeline, name, counted)
    return calls


def test_a_batch_builds_one_stream_and_fits_once_per_rho(monkeypatch):
    spec, cfg, _ = load_scenario(GOLDEN, None)
    sim = simulate(spec)
    calls = count_calls(monkeypatch)
    for w, d, rho in ((256, 3, 0.01), (64, 3, 0.05), (64, 2, 0.01), (16, 1, 0.05)):
        run_telemetry(*sim, spec, replace(cfg, width=w, depth=d, rho=rho))
    assert calls == {"window_stream": 1, "fit_qid_edges": 2}
    # another window length is another stream, whose edges are fitted anew
    run_telemetry(*sim, replace(spec, window_len_ns=spec.window_len_ns // 2), cfg)
    assert calls == {"window_stream": 2, "fit_qid_edges": 3}
    # so is another batch, though its packets are the same
    run_telemetry(copy.deepcopy(sim[0]), *sim[1:], spec, cfg)
    assert calls == {"window_stream": 3, "fit_qid_edges": 4}


def test_a_batch_summarises_each_sketch_chunk_once_per_rho_and_window_length(monkeypatch):
    """Four (w, d) at one rho place one summary of each (queue, chunk); another
    rho, or another window length, summarises its chunks again. Small chunks
    give each queue several."""
    spec, cfg, _ = load_scenario(GOLDEN, None)
    sim = simulate(spec)
    monkeypatch.setattr(pipeline, "CHUNK_PKTS", 2000)
    calls = {"summarize": 0, "update_batch": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(HistogramSketch, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(HistogramSketch, name, counted)

    def sketch_run(spec, cfg):
        run_telemetry(*sim, spec, cfg, modes=(TelemetryMode.SKETCH,), collect_sketch_records=False)
        return dict(calls)

    shapes = [sketch_run(spec, replace(cfg, width=w, depth=d))
              for w, d in ((256, 3), (64, 3), (64, 2), (16, 1))]
    n = shapes[0]["update_batch"]  # the (queue, chunk)s, each summarised once
    assert n >= 2 * len(spec.queue_policy)
    assert shapes == [{"summarize": n, "update_batch": k * n} for k in (1, 2, 3, 4)]
    assert sketch_run(spec, replace(cfg, rho=0.05)) == {"summarize": 2 * n, "update_batch": 5 * n}
    half = sketch_run(replace(spec, window_len_ns=spec.window_len_ns // 2), cfg)
    assert half["summarize"] - 2 * n == half["update_batch"] - 5 * n > n


def test_two_live_batches_run_alternately_build_one_stream_each(monkeypatch):
    """Neither batch's stream and edges evict the other's."""
    spec, cfg, _ = load_scenario(GOLDEN, None)
    a = simulate(spec)
    b = (copy.deepcopy(a[0]), *a[1:])
    calls = count_calls(monkeypatch)
    for sim in (a, b, a, b):
        run_telemetry(*sim, spec, cfg, modes=(TelemetryMode.PM,))
    assert calls == {"window_stream": 2, "fit_qid_edges": 2}


def test_two_dsmp_runs_over_one_batch_sort_it_queue_major_once(monkeypatch):
    """The window stream's one sort; the DSMP pass sorts its postcards only."""
    spec, cfg, _ = load_scenario(GOLDEN, None)
    sim = simulate(spec)
    calls = []
    monkeypatch.setattr(pipeline, "_queue_major",
                        lambda *args, _fn=pipeline._queue_major: calls.append(1) or _fn(*args))
    for _ in range(2):
        run_telemetry(*sim, spec, cfg, modes=(TelemetryMode.DSMP,))
    assert len(calls) == 1


def cached_stream(batch, spec) -> WindowStream:
    return pipeline._by_batch[batch][(spec.window_len_ns, spec.duration_s)]


def test_the_stream_dies_with_its_batch_and_not_with_an_older_one():
    spec, cfg, _ = load_scenario(GOLDEN, None)
    old, drops, labels = simulate(spec)
    new = copy.deepcopy(old)
    run_telemetry(old, drops, labels, spec, cfg, modes=(TelemetryMode.PM,))
    run_telemetry(new, drops, labels, spec, cfg, modes=(TelemetryMode.PM,))
    stream = weakref.ref(cached_stream(new, spec))
    del old
    gc.collect()
    assert stream() is not None  # the older batch's entry went with it, the newer one stays
    del new
    gc.collect()
    assert stream() is None


def test_the_shared_stream_and_edges_are_read_only_and_each_run_has_its_own_dicts(golden_run):
    spec, cfg, sim = golden_run
    first, second = (run_telemetry(*sim, spec, cfg, modes=(TelemetryMode.PM,)) for _ in range(2))
    stream = cached_stream(sim[0], spec)
    for name, col in stream.columns().items():
        with pytest.raises(ValueError, match="read-only"):
            col[:1] = 0
    for edges in (first.lat_edges, first.iat_edges):
        assert edges.keys() == spec.queue_policy.keys()
        for e in edges.values():
            with pytest.raises(ValueError, match="read-only"):
                e[0] = 0.0
    assert first.lat_edges is not second.lat_edges and first.iat_edges is not second.iat_edges
    first.lat_edges.clear()
    assert second.lat_edges.keys() == spec.queue_policy.keys()


def test_monitored_rows_of_the_last_qid():
    """qid 255 (MAX_QID) is searched as the column's uint8: qid + 1 would not fit it."""
    qid = np.array([0, 0, 254, 255, 255, 255], np.uint8)
    monitored = np.array([1, 0, 1, 1, 1, 0], bool)
    n = len(qid)
    stream = WindowStream(
        teid=np.ones(n, np.uint32), qfi=np.ones(n, np.uint8), bytes=np.ones(n, np.uint16),
        arrival_ns=np.arange(n), monitored=monitored, injected=None, qid=qid,
        sojourn_ns=np.zeros(n, np.int64), color=np.zeros(n, np.int8),
        window=np.zeros(n, np.int64), n_windows=1)
    assert MAX_QID == 255
    assert stream.monitored_rows(255) == slice(3, 5)
    assert stream.monitored_rows(254) == slice(2, 3)
    assert stream.monitored_rows(0) == slice(0, 1)
    assert stream.monitored_rows(7) == slice(2, 2)
