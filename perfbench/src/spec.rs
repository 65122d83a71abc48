//! The metrics the harness prints, by name and unit. `BENCHMARK.json`
//! at the repository root declares the same lists; a self-test keeps the
//! two identical.

/// One reported metric.
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics: every untraced run prints all of them.
pub const END_TO_END: &[Metric] = &[
    m("latency_p50_ms", "ms"),
    m("latency_p90_ms", "ms"),
    m("items_per_s", "1/s"),
    m("cpu_ms_per_req", "ms"),
    m("setup_s", "s"),
    m("members_per_req", "count"),
    m("fp_rate", "frac"),
    m("tp_rate", "frac"),
    m("allocs_per_req", "count"),
    m("peak_rss_mb", "MB"),
    m("served_frac", "frac"),
];

/// Per-layer metrics: every traced run prints all of them.
pub const PER_LAYER: &[Metric] = &[
    m("serve.wait_ms_p50", "ms"),
    m("serve.batch_size_mean", "count"),
    m("serve.submit_us", "us"),
    m("serve.deliver_us_p50", "us"),
    m("pool.busy_frac", "frac"),
    m("pool.queue_wait_us", "us"),
    m("preprocess.apply_us", "us"),
    m("member.overhead_frac", "frac"),
    m("nn.forward_us", "us"),
    m("nn.gmacs", "GMAC/s"),
    m("nn.allocs_per_forward", "count"),
    m("abft.overhead_frac", "frac"),
    m("abft.checked_per_req", "count"),
    m("fault.quarantines", "count"),
    m("precision.hook_overhead_frac", "frac"),
    m("rade.early_exit_frac", "frac"),
    m("rade.decide_us", "us"),
    m("workspace.peak_kb", "KB"),
    m("store.load_ms", "ms"),
    m("store.resident_kb", "KB"),
    m("setup.profile_ms", "ms"),
    m("trace.overhead_frac", "frac"),
];

/// Renders the result line: `correct`, `attempted`, `failed`, and every
/// metric of `list` with its value from `values`.
///
/// # Panics
///
/// Panics if `values` lacks a metric of `list` or holds a non-finite
/// value — a harness bug, never a measurement.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    list: &[Metric],
    values: &[(&str, f64)],
) -> String {
    let metrics: Vec<String> = list
        .iter()
        .map(|metric| {
            let value = values
                .iter()
                .find(|(n, _)| *n == metric.name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {} was not measured", metric.name));
            assert!(value.is_finite(), "metric {} is not finite: {value}", metric.name);
            format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", metric.name, metric.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Renders named values as one JSON object (diagnostics lines).
pub fn object(values: &[(&str, f64)]) -> String {
    let fields: Vec<String> =
        values.iter().map(|(n, v)| format!("\"{n}\": {}", number(*v))).collect();
    format!("{{{}}}", fields.join(", "))
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"key": "value"` string fields of `text`, in order.
    fn string_fields<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\":");
        let mut out = Vec::new();
        let mut rest = text;
        while let Some(at) = rest.find(&pat) {
            rest = rest[at + pat.len()..].trim_start();
            let body = rest.strip_prefix('"').expect("string value");
            let end = body.find('"').expect("closed string");
            out.push(&body[..end]);
            rest = &body[end..];
        }
        out
    }

    /// The JSON array under `key`, as raw text.
    fn array<'a>(text: &'a str, key: &str) -> &'a str {
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let open = start + text[start..].find('[').expect("array");
        let close = open + text[open..].find(']').expect("array end");
        &text[open..=close]
    }

    fn declared(list: &str) -> Vec<(String, String)> {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        let part = array(&text, list);
        string_fields(part, "name")
            .into_iter()
            .zip(string_fields(part, "unit"))
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    fn printed(list: &[Metric]) -> Vec<(String, String)> {
        list.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
    }

    #[test]
    fn printed_names_and_units_match_benchmark_json() {
        assert_eq!(printed(END_TO_END), declared("end_to_end"));
        assert_eq!(printed(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let values: Vec<(&str, f64)> =
            END_TO_END.iter().enumerate().map(|(i, m)| (m.name, i as f64 + 0.25)).collect();
        let line = result_line(true, 10, 1, END_TO_END, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1, "));
        assert!(line.contains("\"setup_s\": {\"value\": 4.25, \"unit\": \"s\"}"));
        assert_eq!(string_fields(&line, "unit").len(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        result_line(true, 1, 0, PER_LAYER, &[]);
    }
}
