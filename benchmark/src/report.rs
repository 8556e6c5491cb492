//! Printing a run: every metric by name with its unit, the timing
//! summaries, and the one-line JSON result the driver reads last.

use crate::run::Outcome;
use std::fmt::Write as _;

/// A finite `f64` with all its digits; JSON has no NaN or infinity, and a
/// metric should never be one, so those print as `null` and fail parsing
/// loudly rather than pass as a number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted,
        out.failed
    );
    for (i, (decl, value)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            decl.name,
            json_number(value),
            decl.unit
        );
    }
    s.push_str("}}");
    s
}

/// Human-readable report followed by the result line.
pub fn render(out: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "context {}", out.context);
    let _ = writeln!(
        s,
        "# per member: iterations of one pass; seconds over the untraced passes \
             (quiet = mean of the fastest quarter)"
    );
    for (key, iters, t) in &out.timings {
        let _ = writeln!(
            s,
            "{key:<18} iters={iters:<6} n={:<4} quiet={:.6} min={:.6} q1={:.6} median={:.6} q3={:.6}",
            t.n, t.quiet, t.min, t.q1, t.median, t.q3
        );
    }
    let _ = writeln!(s, "# metrics");
    for (decl, value) in out.metrics.iter() {
        let _ = writeln!(
            s,
            "{:<34} {:>16} {}",
            decl.name,
            json_number(value),
            decl.unit
        );
    }
    let _ = writeln!(s, "ops_attempted {}", out.attempted);
    let _ = writeln!(s, "ops_failed {}", out.failed);
    for note in &out.notes {
        let _ = writeln!(s, "FAILED {note}");
    }
    s.push_str(&result_json(out));
    s.push('\n');
    s
}
