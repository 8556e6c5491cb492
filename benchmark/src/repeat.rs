//! `--repeat-check`: do two sets of runs of the same code agree?
//!
//! Runs every workload twice untraced and twice traced, as child processes
//! (the way the driver runs them), and prints for each end-to-end metric
//! its two values, their relative difference and pass/fail against the
//! metric's bound, and for each exact count whether the two runs agree
//! bit for bit.

use crate::metrics::{END_TO_END, EXACT_COUNTS};
use crate::workloads::NAMES;
use spcg::obs::json::{self, Value};
use std::process::Command;

/// Runs this executable once and returns its result object.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    json::parse(last)
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Returns the number of failed comparisons (the process exit code).
pub fn repeat_check(seed: u64, seconds: f64) -> Result<u32, String> {
    let mut bad = 0;
    println!(
        "{:<15} {:<22} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "run 1", "run 2", "rel", "bound"
    );
    for workload in NAMES {
        let first = child(workload, seed, seconds, false)?;
        let second = child(workload, seed, seconds, false)?;
        for decl in END_TO_END {
            let (a, b) = match (metric(&first, decl.name), metric(&second, decl.name)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(format!("{workload}: {} missing", decl.name)),
            };
            let rel = (b - a).abs() / a.abs();
            let ok = rel <= decl.bound;
            bad += u32::from(!ok);
            println!(
                "{workload:<15} {:<22} {a:>14.6} {b:>14.6} {rel:>8.4} {:>6.2}  {}",
                decl.name,
                decl.bound,
                if ok { "ok" } else { "FAIL" }
            );
        }
        let first = child(workload, seed, seconds, true)?;
        let second = child(workload, seed, seconds, true)?;
        for name in EXACT_COUNTS {
            let (a, b) = (metric(&first, name), metric(&second, name));
            let ok = a.is_some() && a == b;
            bad += u32::from(!ok);
            println!(
                "{workload:<15} {name:<22} {:>14} {:>14} {:>8} {:>6}  {}",
                a.map_or("-".into(), |v| v.to_string()),
                b.map_or("-".into(), |v| v.to_string()),
                "exact",
                "",
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    Ok(bad)
}
