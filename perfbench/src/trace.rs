//! The traced run: the workload's traffic with spans off and with spans on
//! (their ratio is the tracing overhead), then a stage-by-stage replay of
//! each distinct input through the layers' public functions.
//! Per-layer metrics come from here; end-to-end metrics never do.

use crate::gen::{retractable, Draw, Shape};
use crate::workloads::{self, Kind, Measured, Mismatch, Params, Recorder, StatsDelta};
use crate::Metric;
use std::collections::BTreeMap;
use std::time::Instant;
use treelineage_automata::compile_structured_dnnf;
use treelineage_encoding::{compile_ucq, encode_trusted, CompileOptions};
use treelineage_engine::{
    compile_structured_dnnf_parallel, to_chrome_trace, EngineConfig, EvalSession,
    ProbabilityRequest, SpanEvent, Telemetry, ThresholdRequest,
};
use treelineage_graph::treewidth::treewidth_upper_bound;
use treelineage_instance::{FactId, Instance, ProbabilityValuation};
use treelineage_num::ErrorInterval;

/// Exact evaluation is replayed only on inputs of at most this many facts:
/// its cost grows about as n^2.5, and the larger cold-ladder chains would
/// take minutes.
const EXACT_REPLAY_MAX_FACTS: usize = 300;

/// Where span files go, relative to the checkout root.
const SPAN_DIR: &str = "perfbench/out";

/// Replay rounds over the distinct inputs; each per-layer figure is the
/// mean over every input and round, so heavy inputs weigh in as they do in
/// the workload's mean latency.
const REPLAY_ROUNDS: usize = 3;

/// Per-layer samples, keyed by metric name.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn mean(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn ratio(part: usize, other: usize) -> f64 {
    if part + other == 0 {
        0.0
    } else {
        part as f64 / (part + other) as f64
    }
}

/// The distinct inputs of a workload: its pairs, or one cold-ladder cycle.
fn distinct_inputs(workload: &str, seed: u64) -> Vec<Shape> {
    match workload {
        "serve_warm" => workloads::serve_shapes(),
        "ingest_cold" => workloads::cold_cycle(&mut Draw::new(seed, 0x1a9e)),
        _ => workloads::update_shapes(),
    }
}

/// Traffic segments per mode. Spans-off and spans-on segments alternate,
/// so drift in the machine's speed during the run falls on both sides of
/// `trace.overhead_ratio`.
const SEGMENTS: usize = 2;

pub fn run(workload: &str, params: Params) -> Result<(usize, usize, Vec<Metric>), Mismatch> {
    let segment = |rec| Params {
        seconds: params.seconds / (2 * SEGMENTS) as f64,
        setups: 1,
        rec,
        ..params
    };
    let traced_params = segment(Recorder::on());
    let mut runs: [Vec<Measured>; 2] = Default::default();
    for _ in 0..SEGMENTS {
        runs[0].push(crate::run_workload(workload, &segment(Recorder::off()))?);
        runs[1].push(crate::run_workload(workload, &traced_params)?);
    }
    let per_op = |ms: &[Measured]| {
        let seconds: f64 = ms.iter().map(|m| m.elapsed_s).sum();
        seconds / ms.iter().map(|m| m.samples.len()).sum::<usize>() as f64
    };
    let overhead = per_op(&runs[1]) / per_op(&runs[0]);

    let rec = &traced_params.rec;
    let mut layers = Layers::default();
    // Lineage hits come from the traffic alone; the other ratios also count
    // the replay's probe sessions.
    let mut traffic = StatsDelta::default();
    let mut probes = StatsDelta::default();
    for m in runs.iter().flatten() {
        traffic = traffic.plus(m.stats);
        for s in m.samples.iter().filter(|s| s.ok) {
            match s.kind {
                Kind::Structural => {
                    layers.push("engine.session.update_call_ms", s.call_ms);
                    layers.push("engine.session.post_update_answer_ms", s.ms - s.call_ms);
                }
                Kind::Reweight => layers.push("engine.session.set_probability_ms", s.call_ms),
                _ => {}
            }
        }
    }

    let inputs = distinct_inputs(workload, params.seed);
    let mut draw = Draw::new(params.seed, 0x7e91);
    for _ in 0..REPLAY_ROUNDS {
        for shape in &inputs {
            let instance = shape.instance();
            let valuation = draw.valuation(&instance);
            let _root = rec.root("replay", "replay");
            let stage_sum = replay(
                rec,
                shape,
                &instance,
                &valuation,
                params.threads,
                &mut layers,
            )?;
            let probe = session_probe(
                rec,
                shape,
                &instance,
                &valuation,
                stage_sum,
                params.threads,
                &mut draw,
                &mut layers,
            )?;
            probes = probes.plus(probe);
        }
    }
    let telemetry_ratio = telemetry_overhead(&inputs, params.threads, &mut draw);

    let spans = rec.take();
    let path = write_spans(workload, params.seed, &spans);
    print_self_times(workload, &spans, &path);

    let all = traffic.plus(probes);
    let l = |name: &'static str, unit: &'static str| Metric::new(name, layers.mean(name), unit);
    let metrics = vec![
        l("graph.decompose_ms", "ms"),
        l("graph.width", "count"),
        l("encoding.encode_ms", "ms"),
        l("encoding.tree_nodes", "count"),
        l("encoding.query_compile_ms", "ms"),
        l("encoding.automaton_materialize_ms", "ms"),
        l("encoding.automaton_states", "count"),
        l("automata.dsdnnf_compile_ms", "ms"),
        l("automata.gates_per_fact", "count"),
        l("engine.dsdnnf_compile_parallel_ms", "ms"),
        l("engine.compile_speedup", "ratio"),
        l("engine.exact_eval_ms", "ms"),
        l("engine.eval_speedup", "ratio"),
        l("num.answer_bits", "bits"),
        l("num.leaf_convert_ms", "ms"),
        l("engine.interval_pass_ms", "ms"),
        Metric::new(
            "engine.session.lineage_hit_ratio",
            ratio(traffic.lineage_hits, traffic.lineage_misses),
            "ratio",
        ),
        Metric::new(
            "engine.session.float_decision_ratio",
            ratio(all.float_decisions, all.exact_fallbacks),
            "ratio",
        ),
        Metric::new(
            "engine.session.fragment_reuse_ratio",
            ratio(all.fragments_reused, all.fragments_recompiled),
            "ratio",
        ),
        l("engine.session.update_call_ms", "ms"),
        l("engine.session.post_update_answer_ms", "ms"),
        l("engine.session.set_probability_ms", "ms"),
        l("engine.session.unattributed_ms", "ms"),
        Metric::new("telemetry.enabled_overhead_ratio", telemetry_ratio, "ratio"),
        Metric::new("trace.overhead_ratio", overhead, "ratio"),
    ];
    let traffic = runs.iter().flatten();
    Ok((
        traffic.clone().map(|m| m.attempted).sum(),
        traffic.map(|m| m.failed).sum(),
        metrics,
    ))
}

/// One input through every stage by hand: `graph` → `encoding` →
/// `automata` / `engine` → evaluation. Returns the summed time of the
/// stages a cold session request runs, for `engine.session.unattributed_ms`.
fn replay(
    rec: &Recorder,
    shape: &Shape,
    instance: &Instance,
    valuation: &ProbabilityValuation,
    threads: usize,
    layers: &mut Layers,
) -> Result<f64, Mismatch> {
    let fail = |stage: &str, e: String| Mismatch(format!("{}: {stage} failed: {e}", shape.label()));
    let facts = instance.fact_count();

    let t = Instant::now();
    let (width, td) = {
        let _s = rec.span("graph.decompose");
        let (graph, _) = instance.gaifman_graph();
        treewidth_upper_bound(&graph)
    };
    let decompose = ms(t);

    let t = Instant::now();
    let encoding = {
        let _s = rec.span("encoding.encode");
        encode_trusted(instance, &td).map_err(|e| fail("encode", e.to_string()))?
    };
    let encode = ms(t);

    let query = shape.query();
    let t = Instant::now();
    let mut machine = {
        let _s = rec.span("encoding.query_compile");
        let options = CompileOptions {
            state_budget: workloads::COLD_STATE_BUDGET,
            ..CompileOptions::default()
        };
        compile_ucq(&query, encoding.alphabet(), options)
            .map_err(|e| fail("query compile", format!("{e:?}")))?
    };
    let query_compile = ms(t);

    let t = Instant::now();
    let automaton = {
        let _s = rec.span("encoding.automaton_materialize");
        machine
            .automaton_for(encoding.tree())
            .map_err(|e| fail("materialize", format!("{e:?}")))?
    };
    let materialize = ms(t);

    let t = Instant::now();
    let sequential = {
        let _s = rec.span("automata.dsdnnf_compile");
        compile_structured_dnnf(&automaton, encoding.tree())
            .map_err(|e| fail("d-SDNNF compile", e.to_string()))?
    };
    let seq_compile = ms(t);

    let t = Instant::now();
    let lineage = {
        let _s = rec.span("engine.dsdnnf_compile_parallel");
        compile_structured_dnnf_parallel(
            &automaton,
            encoding.tree(),
            &EngineConfig::with_threads(threads),
        )
        .map_err(|e| fail("parallel d-SDNNF compile", e.to_string()))?
    };
    let par_compile = ms(t);

    let t = Instant::now();
    let leaves: Vec<ErrorInterval> = {
        let _s = rec.span("num.leaf_convert");
        (0..facts)
            .map(|f| ErrorInterval::from_rational(valuation.probability(FactId(f))))
            .collect()
    };
    let leaf_convert = ms(t);

    let t = Instant::now();
    let interval = {
        let _s = rec.span("engine.interval_pass");
        lineage.probability_interval(&|v| leaves[v], threads)
    };
    let interval_pass = ms(t);

    if facts <= EXACT_REPLAY_MAX_FACTS {
        let prob = |v: usize| valuation.probability(FactId(v)).clone();
        let t = Instant::now();
        let exact = {
            let _s = rec.span("engine.exact_eval");
            lineage.probability(&prob, 1)
        };
        let one = ms(t);
        let t = Instant::now();
        let parallel = {
            let _s = rec.span("engine.exact_eval_parallel");
            lineage.probability(&prob, threads)
        };
        let many = ms(t);
        if exact != parallel || !interval.contains(&exact) {
            return Err(Mismatch(format!(
                "{}: replayed exact answers or interval disagree",
                shape.label()
            )));
        }
        layers.push("engine.exact_eval_ms", one);
        layers.push("engine.eval_speedup", one / many);
        layers.push(
            "num.answer_bits",
            (exact.numerator().magnitude().bits() + exact.denominator().bits()) as f64,
        );
    }

    layers.push("graph.decompose_ms", decompose);
    layers.push("graph.width", width as f64);
    layers.push("encoding.encode_ms", encode);
    layers.push("encoding.tree_nodes", encoding.node_count() as f64);
    layers.push("encoding.query_compile_ms", query_compile);
    layers.push("encoding.automaton_materialize_ms", materialize);
    layers.push("encoding.automaton_states", automaton.state_count() as f64);
    layers.push("automata.dsdnnf_compile_ms", seq_compile);
    layers.push(
        "automata.gates_per_fact",
        sequential.size() as f64 / facts as f64,
    );
    layers.push("engine.dsdnnf_compile_parallel_ms", par_compile);
    layers.push("engine.compile_speedup", seq_compile / par_compile);
    layers.push("num.leaf_convert_ms", leaf_convert);
    layers.push("engine.interval_pass_ms", interval_pass);
    Ok(decompose
        + encode
        + query_compile
        + materialize
        + par_compile
        + leaf_convert
        + interval_pass)
}

/// The same input through a fresh float-first session: a cold request
/// (against the replayed stage sum), a threshold batch, a reweight and a
/// retract / insert pair, each followed by an f64 answer.
#[allow(clippy::too_many_arguments)]
fn session_probe(
    rec: &Recorder,
    shape: &Shape,
    instance: &Instance,
    valuation: &ProbabilityValuation,
    stage_sum: f64,
    threads: usize,
    draw: &mut Draw,
    layers: &mut Layers,
) -> Result<StatsDelta, Mismatch> {
    let config = EngineConfig {
        float_first: true,
        state_budget: workloads::COLD_STATE_BUDGET,
        ..EngineConfig::with_threads(threads)
    };
    let mut session = EvalSession::new(config);
    let query = {
        let _s = rec.span("engine.register_query");
        session.register_query(shape.query())
    };
    let fail = |what: &str| Mismatch(format!("{}: session probe {what} failed", shape.label()));
    let answer = |session: &EvalSession, id, valuation| {
        let _s = rec.span("engine.batch_probability_f64");
        session.batch_probability_f64(&[ProbabilityRequest {
            query,
            instance: id,
            valuation,
        }])[0]
            .is_ok()
    };

    let t = Instant::now();
    let id = {
        let _s = rec.span("engine.register_instance");
        session.register_instance(instance.clone())
    };
    if !answer(&session, id, valuation.clone()) {
        return Err(fail("cold answer"));
    }
    layers.push("engine.session.unattributed_ms", ms(t) - stage_sum);

    let thresholds: Vec<ThresholdRequest> = (0..threads)
        .map(|_| ThresholdRequest {
            query,
            instance: id,
            valuation: draw.valuation(instance),
            threshold: draw.threshold(),
        })
        .collect();
    {
        let _s = rec.span("engine.batch_threshold");
        if session
            .batch_threshold(&thresholds)
            .iter()
            .any(Result::is_err)
        {
            return Err(fail("threshold batch"));
        }
    }

    let fact = FactId(draw.index(instance.fact_count()));
    let t = Instant::now();
    {
        let _s = rec.span("engine.set_probability");
        session
            .set_probability(id, fact, draw.probability())
            .map_err(|e| fail(&format!("set_probability ({e})")))?;
    }
    layers.push("engine.session.set_probability_ms", ms(t));
    if !answer(&session, id, session.valuation(id).clone()) {
        return Err(fail("answer after set_probability"));
    }

    let retractable = retractable(instance);
    let target = retractable[draw.index(retractable.len())];
    let fact = instance.fact(target).clone();
    let p = session.valuation(id).probability(target).clone();
    for retract in [true, false] {
        let t = Instant::now();
        {
            let _s = rec.span(if retract {
                "engine.retract_fact"
            } else {
                "engine.insert_fact"
            });
            let done = if retract {
                session.retract_fact(id, target)
            } else {
                session.insert_fact(id, fact.clone(), p.clone())
            };
            done.map_err(|e| fail(&format!("update ({e})")))?;
        }
        layers.push("engine.session.update_call_ms", ms(t));
        let t = Instant::now();
        if !answer(&session, id, session.valuation(id).clone()) {
            return Err(fail("post-update answer"));
        }
        layers.push("engine.session.post_update_answer_ms", ms(t));
    }
    Ok(StatsDelta::of(&session))
}

/// f64 requests on warm sessions with `Telemetry::enabled()` ÷ with the
/// disabled default, alternating request by request over the inputs.
fn telemetry_overhead(inputs: &[Shape], threads: usize, draw: &mut Draw) -> f64 {
    let build = |telemetry: Telemetry| {
        let mut session = EvalSession::new(EngineConfig {
            telemetry,
            ..EngineConfig::with_threads(threads)
        });
        let pairs: Vec<_> = inputs
            .iter()
            .map(|s| {
                let instance = s.instance();
                let q = session.register_query(s.query());
                (q, session.register_instance(instance.clone()), instance)
            })
            .collect();
        (session, pairs)
    };
    let (off, pairs) = build(Telemetry::disabled());
    let (on, _) = build(Telemetry::enabled());
    let mut time = [0.0f64; 2];
    for round in 0..6 {
        for (q, id, instance) in &pairs {
            let request = [ProbabilityRequest {
                query: *q,
                instance: *id,
                valuation: draw.valuation(instance),
            }];
            for (k, session) in [&off, &on].into_iter().enumerate() {
                let t = Instant::now();
                session.batch_probability_f64(&request);
                // The first round compiles the lineages; time the rest.
                if round > 0 {
                    time[k] += t.elapsed().as_secs_f64();
                }
            }
        }
    }
    time[1] / time[0]
}

fn write_spans(workload: &str, seed: u64, spans: &[SpanEvent]) -> String {
    let path = format!("{SPAN_DIR}/trace-{workload}-{seed}.json");
    let written = std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| std::fs::write(&path, to_chrome_trace(spans)));
    match written {
        Ok(()) => path,
        Err(e) => format!("(not written: {e})"),
    }
}

/// Per span name: count, total and self time (the span minus the part its
/// children cover), as one JSON line.
fn print_self_times(workload: &str, spans: &[SpanEvent], path: &str) {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_default() += s.duration_ns;
        }
    }
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = s
            .duration_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns;
        e.2 += own;
    }
    let rows: Vec<String> = by_name
        .iter()
        .map(|(name, (count, total, own))| {
            format!(
                "{}: {{\"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}",
                crate::json_string(name),
                crate::json_number(*total as f64 / 1e6),
                crate::json_number(*own as f64 / 1e6),
            )
        })
        .collect();
    println!(
        "{{\"spans\": {{\"workload\": {}, \"file\": {}, \"count\": {}, \"by_name\": {{{}}}}}}}",
        crate::json_string(workload),
        crate::json_string(path),
        spans.len(),
        rows.join(", ")
    );
}
