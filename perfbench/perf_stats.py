"""Arithmetic of the benchmark: turns one raw run document (written by the
perfbench binary) into the reported metrics.

Every time the benchmark reports is host-normalized: the raw wall time of a
unit of work is multiplied by (NOMINAL_PROBE_MS / probe_ms) ** 0.5, where
probe_ms is the benchmark's own fixed kernel (src/harness.cpp, HostProbe)
timed right before and after that work, at moments when none of the
program's threads run. See README.md, "Host regimes and normalization", for
why, and why the square root.
"""

import math
import statistics

# Typical probe time on a 4-CPU KVM guest. Normalized times are "seconds at
# the host speed at which the probe takes this long"; raw times are in the
# per-layer metrics and the raw document.
NOMINAL_PROBE_MS = 9.0

# How strongly a work time is taken to follow the probe. Measured on one
# shared guest, work slowed with the probe (elasticity ~1) in some periods
# and ignored probe swings of 10% (elasticity ~0) in others; the square
# root halves the error of either case.
PROBE_ELASTICITY = 0.5

# A tail percentile is reported only with at least this many samples beyond.
MIN_BEYOND = 10

# Failed or refused requests count as over any latency limit; JSON has no
# infinity, so they are reported at this value.
FAILED_LATENCY_MS = 1e9

SOLVER_WORKLOADS = ("enterprise1-exact", "multiperiod-t4", "federal-heuristic")


def percentile(values, q):
    """Linear-interpolated percentile of `values`, q in [0, 1]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    if frac == 0.0:
        return ordered[lo]
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def samples_beyond(values, q):
    """How many samples lie strictly above the q-percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def tail_value(values, q):
    """The q-percentile when at least MIN_BEYOND samples lie beyond it;
    otherwise the largest sample, which never reads lower than the
    percentile would. Returns (value, resolved)."""
    if samples_beyond(values, q) >= MIN_BEYOND:
        return percentile(values, q), True
    return max(values), False


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time (same unit as the spans) of every span, by id: its
    duration minus the part of its interval that its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_us"], s["end_us"]
        covered = union_length(
            (max(lo, c["start_us"]), min(hi, c["end_us"]))
            for c in children.get(s["id"], ()))
        out[s["id"]] = (hi - lo) - covered
    return out


def ratio(numerator, denominator):
    """numerator / denominator, 0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


def normalized_ms(wall_ms, probe_ms):
    """Wall time scaled to the nominal host speed."""
    return wall_ms * (NOMINAL_PROBE_MS / probe_ms) ** PROBE_ELASTICITY


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# End-to-end metrics.

def setup_seconds(raw):
    """Median of the repeated set-ups, each normalized by the probe
    readings around its block, in seconds."""
    setup = raw["setup"]
    return statistics.median(
        normalized_ms(s, p)
        for s, p in zip(setup["samples_ms"], setup["probe_ms"])) / 1e3


def check_counts(raw):
    checks = raw["checks"]
    return int(checks["attempted"]), int(checks["failed"])


def quality_metrics(raw):
    quality = raw.get("quality") or {}
    cost = quality.get("plan_cost", 0.0)
    bound = quality.get("lower_bound", 0.0)
    return cost, ratio(bound, cost)


def solver_end_to_end(raw):
    calls = [c for c in raw["calls"] if not c["traced"]]
    norm = [normalized_ms(c["wall_ms"], c["probe_ms"]) for c in calls]
    per_thread = {}
    for c, n in zip(calls, norm):
        per_thread.setdefault(c["thread"], []).append(n)
    # Every call does identical work, so the tail would measure only the
    # host: the solver workloads' tail percentile is fixed at the median.
    median_ms = statistics.median(norm)
    throughput = sum(len(v) / (sum(v) / 1e3) for v in per_thread.values())
    cost, bound_ratio = quality_metrics(raw)
    return {
        "solve_s": metric(median_ms / 1e3, "s"),
        "plan_cost": metric(cost, "USD/month"),
        "bound_ratio": metric(bound_ratio, "ratio"),
        "throughput_rps": metric(throughput, "1/s"),
        "latency_p50_ms": metric(median_ms, "ms"),
        "latency_tail_ms": metric(median_ms, "ms"),
    }, {"samples": len(norm), "tail_percentile": 50}


def daemon_latencies(requests):
    return [r["latency_ms"] if r["ok"] else math.inf for r in requests]


def daemon_end_to_end(raw):
    requests = [r for r in raw["requests"] if not r["traced"]]
    scale = normalized_ms(1.0, statistics.median(raw["probes_ms"]))
    lat = daemon_latencies(requests)
    misses = daemon_latencies([r for r in requests if r["class"] == "miss"])
    tail, resolved = tail_value(lat, 0.99)
    done = [r for r in raw["requests"] if r["ok"]]
    window_s = (max(r["start_us"] + r["latency_ms"] * 1e3 for r in raw["requests"])
                - min(r["start_us"] for r in raw["requests"])) / 1e6
    cost, bound_ratio = quality_metrics(raw)

    def scaled(ms):
        return min(ms * scale, FAILED_LATENCY_MS)

    return {
        "solve_s": metric(scaled(statistics.median(misses)) / 1e3, "s"),
        "plan_cost": metric(cost, "USD/month"),
        "bound_ratio": metric(bound_ratio, "ratio"),
        "throughput_rps": metric(len(done) / window_s / scale, "1/s"),
        "latency_p50_ms": metric(scaled(statistics.median(lat)), "ms"),
        "latency_tail_ms": metric(scaled(tail), "ms"),
    }, {"samples": len(lat), "tail_percentile": 99 if resolved else "max"}


def end_to_end(raw):
    """All end-to-end metrics of a run, plus context about how they were
    computed."""
    if raw["context"]["workload"] in SOLVER_WORKLOADS:
        metrics, info = solver_end_to_end(raw)
    else:
        metrics, info = daemon_end_to_end(raw)
    attempted, failed = check_counts(raw)
    metrics["setup_s"] = metric(setup_seconds(raw), "s")
    metrics["peak_rss_mb"] = metric(raw["peak_rss_mb"], "MB")
    metrics["success_ratio"] = metric(1.0 - ratio(failed, attempted), "ratio")
    return metrics, info


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run).

# Stats-tree stage (path under the plan() span) -> layer metric. A stage
# named here contributes its whole subtree; any other stage contributes its
# self time to planner.other_stages_ms. Together with planner.unattributed_ms
# (the self time of plan() and of the pure container "heuristic") these
# account for the whole plan() span.
STAGE_LAYERS = {
    "plan/formulation": "planner.formulation_ms",
    "plan/presolve": "lp.presolve_ms",
    "plan/branch_and_bound/root_lp": "lp.root_lp_ms",
    "plan/branch_and_bound/cuts": "milp.cuts_ms",
    "plan/branch_and_bound/simplex": "lp.node_lp_ms",
    "plan/branch_and_bound/root_dive/simplex": "lp.node_lp_ms",
    "plan/local_search": "planner.local_search_ms",
    "plan/heuristic/local_search": "planner.local_search_ms",
    "plan/heuristic/lagrangian": "planner.lagrangian_ms",
}
SELF_LAYERS = {
    "plan": "planner.unattributed_ms",
    "plan/heuristic": "planner.unattributed_ms",
    "plan/branch_and_bound": "milp.search_self_ms",
    "plan/branch_and_bound/root_dive": "milp.search_self_ms",
}
ACCOUNTING = sorted(set(STAGE_LAYERS.values()) | set(SELF_LAYERS.values())
                    | {"planner.other_stages_ms"})

DIRECT_CALLS = {
    "datagen.generate": "datagen.generate_ms",
    "model.etf_write": "model.etf_write_ms",
    "model.etf_parse": "model.etf_parse_ms",
    "cost.model_build": "cost.model_build_ms",
    "baselines.plan_greedy": "baselines.greedy_ms",
    "baselines.plan_manual": "baselines.manual_ms",
    "planner.improve_plan": "planner.improve_plan_ms",
    "planner.lagrangian_lower_bound": "planner.lagrangian_call_ms",
    "server.json_parse": "server.json_parse_ms",
    "server.etf_parse": "server.etf_parse_ms",
    "server.canonicalize": "server.canonicalize_ms",
    "server.fingerprint": "server.fingerprint_ms",
    "server.cache_lookup": "server.cache_lookup_ms",
    "server.result_json": "server.result_json_ms",
}

# Ratio metric -> (numerator metric, denominator metric); both bases are
# reported next to the ratio.
RATIOS = {
    "lp.refactorizations_per_call": ("lp.refactorizations", "lp.calls"),
    "lp.degenerate_ratio": ("lp.degenerate_pivots", "lp.pivots"),
    "milp.cut_yield": ("milp.cuts_applied", "milp.cuts_generated"),
    "server.cache_hit_ratio": ("server.cache_hits", "server.cache_lookups"),
}

COUNTERS = (
    "planner.variables", "planner.rows", "planner.seeds_raced", "lp.calls",
    "lp.pivots", "lp.dual_pivots", "lp.bound_flips", "lp.refactorizations",
    "lp.eta_entries", "lp.degenerate_pivots", "lp.pricing_full_scans",
    "lp.node_pivots", "milp.nodes", "milp.incumbents",
    "milp.strong_branch_probes", "milp.numerical_nodes",
    "milp.cuts_generated", "milp.cuts_applied",
)


def span_medians(spans):
    """Median duration (ms) of the benchmark's direct calls, by metric."""
    durations = {}
    for s in spans:
        name = DIRECT_CALLS.get(s["name"])
        if name:
            durations.setdefault(name, []).append(
                (s["end_us"] - s["start_us"]) / 1e3)
    return {k: statistics.median(v) for k, v in durations.items()}


def plan_layers(spans):
    """Per traced plan() call: layer times (ms) from the stats-tree spans
    under it, and the share of the plan() span they account for."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    calls = {}
    for s in spans:
        if s["name"] == "plan" and s["parent"] == 0:
            calls[s["id"]] = {k: 0.0 for k in ACCOUNTING}
            calls[s["id"]]["planner.plan_ms"] = (s["end_us"] - s["start_us"]) / 1e3
            calls[s["id"]]["milp.bnb_ms"] = 0.0
    for s in spans:
        if s["name"] != "plan" and not s["name"].startswith("plan/"):
            continue
        root = s
        while root["parent"] != 0:
            root = by_id[root["parent"]]
        layers = calls.get(root["id"])
        if layers is None:
            continue
        path = s["name"]
        if path == "plan/branch_and_bound":
            layers["milp.bnb_ms"] += (s["end_us"] - s["start_us"]) / 1e3
        if path in SELF_LAYERS:
            layers[SELF_LAYERS[path]] += selfs[s["id"]] / 1e3
        elif path in STAGE_LAYERS:
            layers[STAGE_LAYERS[path]] += selfs[s["id"]] / 1e3
        elif any(path.startswith(p + "/") for p in STAGE_LAYERS):
            # Inside a mapped stage: its self time belongs to that stage.
            stage = max((p for p in STAGE_LAYERS if path.startswith(p + "/")),
                        key=len)
            layers[STAGE_LAYERS[stage]] += selfs[s["id"]] / 1e3
        else:
            layers["planner.other_stages_ms"] += selfs[s["id"]] / 1e3
    for layers in calls.values():
        accounted = sum(layers[k] for k in ACCOUNTING)
        layers["trace.accounted_pct"] = 100.0 * ratio(accounted,
                                                      layers["planner.plan_ms"])
    return list(calls.values())


def median_of(rows, key):
    values = [r[key] for r in rows if key in r]
    return statistics.median(values) if values else 0.0


def overhead_pct(traced, untraced):
    if not traced or not untraced:
        return 0.0
    return 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)


def solver_layers(raw):
    spans = raw["spans"]
    out = span_medians(spans)
    calls = plan_layers(spans)
    for key in ACCOUNTING + ["planner.plan_ms", "milp.bnb_ms", "trace.accounted_pct"]:
        out[key] = median_of(calls, key)
    counters = [c["counters"] for c in raw["calls"] if c["traced"]]
    for key in COUNTERS:
        out[key] = median_of(counters, key)
    out["planner.heuristic_ms"] = median_of(
        [{"v": (s["end_us"] - s["start_us"]) / 1e3} for s in spans
         if s["name"] == "plan/heuristic"], "v")
    out["lp.us_per_pivot"] = 1e3 * ratio(out["lp.node_lp_ms"], out["lp.node_pivots"])
    out["milp.nodes_per_s"] = 1e3 * ratio(out["milp.nodes"], out["milp.bnb_ms"])
    norm = {True: [], False: []}
    for c in raw["calls"]:
        norm[c["traced"]].append(normalized_ms(c["wall_ms"], c["probe_ms"]))
    out["trace.overhead_pct"] = overhead_pct(norm[True], norm[False])
    out["trace.samples"] = len(calls)
    return out


def daemon_layers(raw):
    spans = raw["spans"]
    out = span_medians(spans)
    requests = raw["requests"]
    for cls in ("hit", "miss", "replan"):
        lat = [r["latency_ms"] for r in requests if r["class"] == cls and r["ok"]]
        out["server.roundtrip_ms." + cls] = statistics.median(lat) if lat else 0.0
        out["server.requests." + cls] = len([r for r in requests if r["class"] == cls])
    replan_iters = [r["lp_iters"] for r in requests if r["class"] == "replan" and r["ok"]]
    out["lp.replan_pivots"] = statistics.median(replan_iters) if replan_iters else 0.0
    daemon = raw["daemon"]
    out["server.cache_hits"] = daemon["cache_hits"]
    out["server.cache_lookups"] = daemon["cache_hits"] + daemon["cache_misses"]
    out["server.evictions"] = daemon["evictions"]
    out["server.rejected"] = daemon["rejected"]
    out["service.queue_wait_ms_p50"] = daemon["queue_wait_ms_p50"]
    out["service.solve_ms_p50"] = daemon["solve_ms_p50"]
    # How much of each traced request its HTTP exchanges cover.
    selfs = self_times(spans)
    shares = [100.0 * (1.0 - ratio(selfs[s["id"]], s["end_us"] - s["start_us"]))
              for s in spans if s["name"].startswith("request.")]
    out["trace.accounted_pct"] = statistics.median(shares) if shares else 0.0
    hits = {True: [], False: []}
    for r in requests:
        if r["class"] == "hit" and r["ok"]:
            hits[r["traced"]].append(r["latency_ms"])
    out["trace.overhead_pct"] = overhead_pct(hits[True], hits[False])
    out["trace.samples"] = len(shares)
    return out


def per_layer(raw, names_units):
    """Every per-layer metric named in BENCHMARK.json (0 where the workload
    does not exercise the layer)."""
    if raw["context"]["workload"] in SOLVER_WORKLOADS:
        values = solver_layers(raw)
    else:
        values = daemon_layers(raw)
    for name, (num, den) in RATIOS.items():
        values[name] = ratio(values.get(num, 0.0), values.get(den, 0.0))
    probes = [raw["probe_start_ms"], raw["probe_end_ms"]]
    probes += raw.get("probes_ms", [])
    probes += [c["probe_ms"] for c in raw.get("calls", [])]
    values["host.probe_ms"] = statistics.median(probes)
    values["host.probe_start_ms"] = raw["probe_start_ms"]
    values["host.probe_end_ms"] = raw["probe_end_ms"]
    return {name: metric(float(values.get(name, 0.0)), unit)
            for name, unit in names_units}
