//! Prometheus text exposition format (version 0.0.4) writers: `# HELP`
//! / `# TYPE` headers, labeled samples, and the conversion of the
//! server's log2-microsecond latency histograms into cumulative
//! `_bucket{le="…"}` series.
//!
//! Only the writing half exists — the server never scrapes anyone. The
//! format rules honored here (and asserted by the server's conformance
//! test): metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`, label values
//! are quoted with `\\`, `\"`, and `\n` escaped, `_bucket` series are
//! cumulative and end with `le="+Inf"` equal to `_count`.

/// The content type a `/metrics` response must carry.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Write the `# HELP` and `# TYPE` header pair for a metric family.
/// `kind` is `counter`, `gauge`, or `histogram`.
pub fn push_family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    // HELP text escapes only backslash and newline (not quotes).
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn push_labels(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                _ => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
}

/// Write one sample line with an integer value.
pub fn push_sample_u64(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    out.push_str(name);
    push_labels(out, labels);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Write one sample line with a float value (finite; callers pass
/// derived gauges like seconds).
fn push_sample_f64(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    push_labels(out, labels);
    out.push(' ');
    if value == value.trunc() && value.abs() < 1e15 {
        // Integral floats print without an exponent or trailing noise.
        out.push_str(&format!("{value:.1}"));
    } else {
        out.push_str(&format!("{value}"));
    }
    out.push('\n');
}

/// Render a log2-microsecond latency histogram (bucket 0 holds 0 µs,
/// bucket `i ≥ 1` covers `[2^(i-1), 2^i)` µs, last bucket saturates)
/// as a Prometheus histogram in seconds: cumulative
/// `name_bucket{le="…"}` lines (the saturation bucket folds into
/// `+Inf`), then `name_sum` and `name_count`. Samples are whole µs, so
/// bucket `i`'s inclusive bound `le` is `2^i − 1` µs. Extra fixed
/// labels (e.g. an endpoint) apply to every line.
pub fn push_log2_us_histogram(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    counts: &[u64],
    sum_us: u64,
) {
    let total: u64 = counts.iter().sum();
    let mut cumulative = 0u64;
    for (i, &c) in counts
        .iter()
        .enumerate()
        .take(counts.len().saturating_sub(1))
    {
        cumulative += c;
        // Largest sample in bucket i, in seconds: 0 for the zero
        // bucket, 2^i − 1 µs otherwise.
        let le = if i == 0 {
            "0".to_string()
        } else {
            format!("{}", ((1u64 << i) - 1) as f64 / 1e6)
        };
        let mut with_le = Vec::with_capacity(labels.len() + 1);
        with_le.extend_from_slice(labels);
        with_le.push(("le", le.as_str()));
        out.push_str(name);
        out.push_str("_bucket");
        push_labels(out, &with_le);
        out.push(' ');
        out.push_str(&cumulative.to_string());
        out.push('\n');
    }
    let mut with_le = Vec::with_capacity(labels.len() + 1);
    with_le.extend_from_slice(labels);
    with_le.push(("le", "+Inf"));
    out.push_str(name);
    out.push_str("_bucket");
    push_labels(out, &with_le);
    out.push(' ');
    out.push_str(&total.to_string());
    out.push('\n');
    let mut sum_name = String::with_capacity(name.len() + 4);
    sum_name.push_str(name);
    sum_name.push_str("_sum");
    push_sample_f64(out, &sum_name, labels, sum_us as f64 / 1e6);
    let mut count_name = String::with_capacity(name.len() + 6);
    count_name.push_str(name);
    count_name.push_str("_count");
    push_sample_u64(out, &count_name, labels, total);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_and_samples_render_the_exposition_format() {
        let mut out = String::new();
        push_family(&mut out, "app_requests_total", "counter", "Requests.");
        push_sample_u64(&mut out, "app_requests_total", &[("endpoint", "query")], 42);
        push_sample_f64(&mut out, "app_uptime_seconds", &[], 12.5);
        push_sample_f64(&mut out, "app_up", &[], 1.0);
        assert_eq!(
            out,
            "# HELP app_requests_total Requests.\n\
             # TYPE app_requests_total counter\n\
             app_requests_total{endpoint=\"query\"} 42\n\
             app_uptime_seconds 12.5\n\
             app_up 1.0\n"
        );
    }

    #[test]
    fn label_values_and_help_are_escaped() {
        let mut out = String::new();
        push_sample_u64(&mut out, "m", &[("path", "a\"b\\c\nd")], 1);
        assert_eq!(out, "m{path=\"a\\\"b\\\\c\\nd\"} 1\n");
        let mut out = String::new();
        push_family(&mut out, "m", "gauge", "line\nbreak\\slash");
        assert!(out.starts_with("# HELP m line\\nbreak\\\\slash\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        // counts: 2 at 0µs, 3 in [1,2), 1 in [2,4), 4 saturated.
        let counts = [2u64, 3, 1, 4];
        let mut out = String::new();
        push_log2_us_histogram(&mut out, "lat_seconds", &[], &counts, 7_000_000);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "lat_seconds_bucket{le=\"0\"} 2");
        assert_eq!(lines[1], "lat_seconds_bucket{le=\"0.000001\"} 5");
        assert_eq!(lines[2], "lat_seconds_bucket{le=\"0.000003\"} 6");
        assert_eq!(lines[3], "lat_seconds_bucket{le=\"+Inf\"} 10");
        assert_eq!(lines[4], "lat_seconds_sum 7.0");
        assert_eq!(lines[5], "lat_seconds_count 10");
        // Cumulative counts are monotone.
        let mut prev = 0u64;
        for line in &lines[..4] {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "{line}");
            prev = v;
        }
    }

    #[test]
    fn histogram_carries_fixed_labels_on_every_line() {
        let counts = [1u64, 0, 1];
        let mut out = String::new();
        push_log2_us_histogram(&mut out, "h", &[("endpoint", "query")], &counts, 3);
        for line in out.lines() {
            assert!(line.contains("endpoint=\"query\""), "{line}");
        }
        assert!(out.contains("h_bucket{endpoint=\"query\",le=\"+Inf\"} 2"));
    }
}
