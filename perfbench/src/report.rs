//! The run's result line and the stamp printed before it.

use crate::scenario::{self, Workload};

/// Context recorded with every result: host, build and workload shape.
pub struct Stamp {
    fields: Vec<(String, String)>,
}

impl Stamp {
    pub fn new(workload: Workload, seed: u64) -> Stamp {
        let spec = workload.spec();
        let mut stamp = Stamp { fields: Vec::new() };
        stamp.text("workload", workload.name());
        stamp.text("why", workload.why());
        stamp.num("seed", seed as f64);
        stamp.text("revision", &revision());
        stamp.num("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()) as f64);
        stamp.num("threads", scenario::worker_threads() as f64);
        stamp.num(
            "fast_kernels",
            f64::from(u8::from(brepartition::bregman::kernel::fast_kernels_available())),
        );
        stamp.num("n", workload.points() as f64);
        stamp.num("d", workload.dim() as f64);
        stamp.text("partitions", &format!("{:?}", spec.partitions));
        stamp.num("page_bytes", spec.storage.page_size_bytes as f64);
        stamp.num("pool_pages", spec.storage.buffer_pool_pages as f64);
        stamp.text("file_backed", if workload.file_backed() { "yes" } else { "no" });
        stamp
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.fields.push((key.to_string(), json_number(value)));
    }

    pub fn text(&mut self, key: &str, value: &str) {
        self.fields.push((key.to_string(), json_string(value)));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("{}:{v}", json_string(k))).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// The git revision of the checkout, when it is a git repository, or the
/// `PERFBENCH_REVISION` environment variable.
fn revision() -> String {
    if let Ok(rev) = std::env::var("PERFBENCH_REVISION") {
        return rev;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One run's result: operation counts, metrics and the stamp.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, &'static str, f64)>,
    pub stamp: Stamp,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, stamp: Stamp) -> Outcome {
        Outcome { attempted, failed, metrics: Vec::new(), stamp }
    }

    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        assert!(!self.metrics.iter().any(|(n, _, _)| n == name), "metric {name} reported twice");
        self.metrics.push((name.to_string(), unit, value));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|(n, _, _)| n.as_str())
    }

    /// The stamp line and the result line, in print order. Fails when a
    /// metric is not a finite number.
    pub fn lines(&self) -> Result<(String, String), String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for (name, unit, value) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            ));
        }
        let correct = self.failed == 0;
        Ok((
            format!("{{\"stamp\":{}}}", self.stamp.to_json()),
            format!(
                "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
                self.attempted.max(1),
                self.failed,
                metrics.join(",")
            ),
        ))
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut outcome = Outcome::new(12, 0, Stamp::new(Workload::Microbatch, 5));
        outcome.metric("query_p50_ms", "ms", 1.25);
        outcome.metric("query_qps", "1/s", 800.0);
        let (stamp, line) = outcome.lines().unwrap();
        assert!(stamp.starts_with("{\"stamp\":{\"workload\":\"microbatch\""));
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{\
             \"query_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"query_qps\":{\"value\":800,\"unit\":\"1/s\"}}}"
        );
    }

    #[test]
    fn failures_make_the_run_incorrect_and_nan_is_refused() {
        let mut outcome = Outcome::new(3, 1, Stamp::new(Workload::FontsDisk, 1));
        outcome.metric("x", "ms", 1.0);
        assert!(outcome.lines().unwrap().1.starts_with("{\"correct\":false,"));
        outcome.metric("y", "ms", f64::NAN);
        assert!(outcome.lines().is_err());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
