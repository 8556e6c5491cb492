//! The benchmark against its own contract, on `poisson_3d(8)`-sized
//! instances: what it emits is what `BENCHMARK.json` declares, and a check
//! that cannot pass is counted as failed.
//!
//! Run through `benchmark/run.sh --test`: the ranked workloads need
//! `SPCG_RANKD`, and refuse to start without it.

use spcg::obs::json::{self, Value};
use spcg_benchmark::metrics::{Decl, END_TO_END, PER_LAYER};
use spcg_benchmark::report::result_json;
use spcg_benchmark::run::{run, RunConfig};
use spcg_benchmark::workloads::{Scale, NAMES};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?} in {v:?}"))
}

/// `(name, unit, better)` of a declared list, sorted.
fn declared(list: &Value) -> Vec<(String, String, String)> {
    let mut out: Vec<_> = list
        .as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit").to_string(),
                str_field(m, "better").to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

fn of_decls(decls: &[Decl]) -> Vec<(String, String, String)> {
    let mut out: Vec<_> = decls
        .iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect();
    out.sort();
    out
}

/// `(name, unit)` of a result line's metrics, sorted.
fn emitted(result_line: &str) -> Vec<(String, String)> {
    let result = json::parse(result_line).expect("the result line is JSON");
    let Some(Value::Object(fields)) = result.get("metrics") else {
        panic!("no metrics object in {result_line}");
    };
    let mut out: Vec<_> = fields
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no number"
            );
            (name.clone(), str_field(m, "unit").to_string())
        })
        .collect();
    out.sort();
    out
}

fn smoke(workload: &str, trace: bool) -> RunConfig {
    let mut cfg = RunConfig::new(workload, 7, 0.05, trace);
    cfg.scale = Scale::Smoke;
    cfg
}

#[test]
fn emitted_metrics_are_the_declared_ones() {
    let bench = benchmark_json();
    let e2e = declared(bench.get("end_to_end").expect("end_to_end"));
    let layers = declared(bench.get("per_layer").expect("per_layer"));
    // The tables the program emits from, against the file: both directions.
    assert_eq!(e2e, of_decls(END_TO_END));
    assert_eq!(layers, of_decls(PER_LAYER));
    for (m, d) in bench
        .get("end_to_end")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .zip(END_TO_END)
    {
        assert_eq!(str_field(m, "name"), d.name, "end_to_end order");
        assert_eq!(
            m.get("bound").and_then(Value::as_f64),
            Some(d.bound),
            "{}",
            d.name
        );
    }
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    assert_eq!(workloads, NAMES);

    // And what a run of every workload really prints.
    let strip = |d: &[(String, String, String)]| -> Vec<(String, String)> {
        d.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect()
    };
    for workload in NAMES {
        for (trace, want) in [(false, strip(&e2e)), (true, strip(&layers))] {
            let out = run(&smoke(workload, trace))
                .unwrap_or_else(|e| panic!("{workload} refused to start: {e}"));
            assert_eq!(out.failed, 0, "{workload} trace={trace}: {:?}", out.notes);
            assert!(out.attempted >= 1);
            assert_eq!(
                emitted(&result_json(&out)),
                want,
                "{workload} trace={trace}"
            );
            if !trace {
                for (decl, value) in out.metrics.iter() {
                    assert!(value > 0.0, "{workload}: {} is {value}", decl.name);
                }
            }
        }
    }
}

#[test]
fn an_unreachable_tolerance_is_counted_as_failed() {
    let mut cfg = smoke("poisson_serial", false);
    // No solver reaches a relative residual of 1e-300 in double precision.
    cfg.rtol = 1e-300;
    let out = run(&cfg).expect("the run itself starts");
    let members = 7;
    assert!(
        out.failed >= 3 * members,
        "failed {} of {}",
        out.failed,
        out.attempted
    );
    assert!(out.attempted >= out.failed);
    assert!(!out.correct());
    assert!(result_json(&out).starts_with("{\"correct\": false"));
    assert!(!out.notes.is_empty());
}

#[test]
fn stray_spcg_variables_stop_the_run() {
    use spcg_benchmark::harness::check_env_names;
    let env = |names: &[&str]| {
        names
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    };
    assert!(check_env_names(env(&["PATH", "SPCG_RANKD", "SPCGX"])).is_ok());
    let refused = check_env_names(env(&["SPCG_RANKD", "SPCG_THREADS", "SPCG_FAULTS"]));
    let message = refused.unwrap_err();
    assert!(message.contains("SPCG_THREADS") && message.contains("SPCG_FAULTS"));
    assert!(!message.contains("SPCG_RANKD,"));
}

#[test]
fn the_quiet_mean_is_the_mean_of_the_fastest_quarter() {
    use spcg_benchmark::harness::quiet_mean;
    assert_eq!(quiet_mean(&[]), 0.0);
    assert_eq!(quiet_mean(&[3.0]), 3.0);
    // Three samples round to one: the fastest.
    assert_eq!(quiet_mean(&[3.0, 1.0, 2.0]), 1.0);
    // Eight samples: the two fastest, wherever the slow spell sits.
    let spell = [9.0, 9.0, 9.0, 9.0, 9.0, 2.0, 1.0, 9.0];
    assert_eq!(quiet_mean(&spell), 1.5);
}
