//! Typed metrics registry and SLO burn-rate windows.
//!
//! The registry replaces the hand-rolled Prometheus pages the runtime
//! and fleet used to assemble string-by-string. It makes the exposition
//! conformance properties true by construction:
//!
//! * every family is declared exactly once with a kind and help text, so
//!   every sample has a matching `# HELP`/`# TYPE` pair;
//! * metric and label names are validated against the Prometheus
//!   charset at registration — a typo panics in tests instead of
//!   producing a silently unscrapeable page;
//! * duplicate series (same name + label set) panic instead of emitting
//!   two conflicting samples.
//!
//! Histograms are **log-bucketed** (powers of two, microseconds) and can
//! carry an **exemplar**: the trace id of the slowest observed request,
//! rendered OpenMetrics-style (`# {trace_id="N"} value`) on the tail
//! bucket so a p99 spike on a dashboard links directly to that request's
//! flight-recorder dump and ledger.
//!
//! [`SloWindow`] tracks deadline-hit SLO burn over a sliding horizon:
//! `burn = miss_rate / error_budget`, the standard multi-window
//! burn-rate alerting quantity (burn > 1 means the budget is being spent
//! faster than the SLO allows).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::event::TraceId;

/// The kinds a metric family can be declared as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Log-bucketed distribution with `_bucket`/`_sum`/`_count` series.
    Histogram,
}

impl MetricKind {
    fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Largest power-of-two histogram bucket, µs (2^24 ≈ 16.8 s); beyond it
/// samples land in `+Inf`.
const MAX_BUCKET_POW: u32 = 24;

/// `le` label values for the power-of-two buckets, `2^0 ..= 2^24`.
const LE_LABELS: [&str; 25] = [
    "1", "2", "4", "8", "16", "32", "64", "128", "256", "512", "1024", "2048", "4096", "8192",
    "16384", "32768", "65536", "131072", "262144", "524288", "1048576", "2097152", "4194304",
    "8388608", "16777216",
];

struct Series {
    /// Name suffix: `""`, `"_bucket"`, `"_sum"`, or `"_count"`.
    suffix: &'static str,
    labels: Vec<(String, String)>,
    value: f64,
    /// OpenMetrics-style exemplar: `(trace_id, observed value)`.
    exemplar: Option<(TraceId, f64)>,
}

struct Family {
    name: String,
    kind: MetricKind,
    help: String,
    series: Vec<Series>,
}

/// Typed builder for one Prometheus text page.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Vec<Family>,
    by_name: BTreeMap<String, usize>,
    /// Duplicate-series guard: `name+suffix{canonical labels}`.
    seen: BTreeSet<String>,
}

pub(crate) fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Format a sample value the way the exposition format expects.
fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        out.push_str(&format!("{k}=\"{escaped}\""));
    }
    out.push('}');
    out
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn declare(&mut self, name: &str, kind: MetricKind, help: &str) -> usize {
        assert!(
            valid_metric_name(name),
            "invalid metric name {name:?}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
        );
        if let Some(&idx) = self.by_name.get(name) {
            let fam = &self.families[idx];
            assert_eq!(
                fam.kind,
                kind,
                "family {name} re-declared as {} (was {})",
                kind.as_str(),
                fam.kind.as_str()
            );
            return idx;
        }
        self.families.push(Family {
            name: name.to_string(),
            kind,
            help: help.to_string(),
            series: Vec::new(),
        });
        let idx = self.families.len() - 1;
        self.by_name.insert(name.to_string(), idx);
        idx
    }

    fn push_series(
        &mut self,
        idx: usize,
        suffix: &'static str,
        labels: &[(&str, &str)],
        value: f64,
        exemplar: Option<(TraceId, f64)>,
    ) {
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?}");
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let key = format!(
            "{}{}{}",
            self.families[idx].name,
            suffix,
            label_block(&labels)
        );
        assert!(
            self.seen.insert(key.clone()),
            "duplicate series {key} — each (name, label set) may be emitted once"
        );
        self.families[idx].series.push(Series {
            suffix,
            labels,
            value,
            exemplar,
        });
    }

    /// Declare a counter family and emit one sample.
    pub fn counter(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) -> &mut Self {
        let idx = self.declare(name, MetricKind::Counter, help);
        self.push_series(idx, "", labels, value, None);
        self
    }

    /// Declare a gauge family and emit one sample.
    pub fn gauge(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) -> &mut Self {
        let idx = self.declare(name, MetricKind::Gauge, help);
        self.push_series(idx, "", labels, value, None);
        self
    }

    /// Declare a log-bucketed histogram family and emit one labeled
    /// distribution from raw microsecond samples. `exemplar` is the
    /// `(trace id, latency µs)` of the slowest request, attached to the
    /// bucket that contains it so the tail links back to a trace.
    pub fn log_histogram_us(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        samples_us: &[u64],
        exemplar: Option<(TraceId, u64)>,
    ) -> &mut Self {
        let idx = self.declare(name, MetricKind::Histogram, help);
        let sum: f64 = samples_us.iter().map(|&s| s as f64).sum();
        let exemplar_bucket = exemplar.map(|(_, v)| bucket_of(v));
        for pow in 0..=MAX_BUCKET_POW {
            let le = 1u64 << pow;
            let cumulative = samples_us.iter().filter(|&&s| s <= le).count();
            let mut lbls: Vec<(&str, &str)> = labels.to_vec();
            lbls.push(("le", LE_LABELS[pow as usize]));
            let ex = if exemplar_bucket == Some(pow) {
                exemplar.map(|(id, v)| (id, v as f64))
            } else {
                None
            };
            self.push_series(idx, "_bucket", &lbls, cumulative as f64, ex);
        }
        let mut lbls: Vec<(&str, &str)> = labels.to_vec();
        lbls.push(("le", "+Inf"));
        let ex = if exemplar_bucket.map(|b| b > MAX_BUCKET_POW).unwrap_or(false) {
            exemplar.map(|(id, v)| (id, v as f64))
        } else {
            None
        };
        self.push_series(idx, "_bucket", &lbls, samples_us.len() as f64, ex);
        self.push_series(idx, "_sum", labels, sum, None);
        self.push_series(idx, "_count", labels, samples_us.len() as f64, None);
        self
    }

    /// Declare a histogram family and emit one distribution from
    /// **precomputed cumulative** buckets (`(le label, cumulative
    /// count)` pairs, ascending, excluding `+Inf`), plus the `+Inf`
    /// total, `_sum`, and `_count` series. For surfaces that aggregate
    /// into fixed buckets instead of retaining raw samples.
    pub fn histogram_from_buckets(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        cumulative: &[(&str, f64)],
        total: f64,
        sum: f64,
    ) -> &mut Self {
        let idx = self.declare(name, MetricKind::Histogram, help);
        for &(le, count) in cumulative {
            let mut lbls: Vec<(&str, &str)> = labels.to_vec();
            lbls.push(("le", le));
            self.push_series(idx, "_bucket", &lbls, count, None);
        }
        let mut lbls: Vec<(&str, &str)> = labels.to_vec();
        lbls.push(("le", "+Inf"));
        self.push_series(idx, "_bucket", &lbls, total, None);
        self.push_series(idx, "_sum", labels, sum, None);
        self.push_series(idx, "_count", labels, total, None);
        self
    }

    /// Render the page. Families appear in declaration order with one
    /// `# HELP`/`# TYPE` header each.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        for fam in &self.families {
            out.push_str(&format!("# HELP {} {}\n", fam.name, fam.help));
            out.push_str(&format!("# TYPE {} {}\n", fam.name, fam.kind.as_str()));
            for s in &fam.series {
                out.push_str(&fam.name);
                out.push_str(s.suffix);
                out.push_str(&label_block(&s.labels));
                out.push(' ');
                out.push_str(&format_value(s.value));
                if let Some((id, v)) = s.exemplar {
                    out.push_str(&format!(" # {{trace_id=\"{id}\"}} {}", format_value(v)));
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Power-of-two bucket index a microsecond sample lands in, or
/// `MAX_BUCKET_POW + 1` for `+Inf`.
fn bucket_of(v: u64) -> u32 {
    for pow in 0..=MAX_BUCKET_POW {
        if v <= (1u64 << pow) {
            return pow;
        }
    }
    MAX_BUCKET_POW + 1
}

/// Default SLO target for deadline-hit rate: 99% of deadline-carrying
/// requests meet their deadline.
pub const DEFAULT_SLO_TARGET: f64 = 0.99;

/// Burn-rate windows exposed per class: `(label, horizon seconds)`.
pub const SLO_WINDOWS: [(&str, u64); 2] = [("1m", 60), ("5m", 300)];

/// Sliding-window good/total tally with 1-second buckets.
#[derive(Clone, Debug)]
pub struct SloWindow {
    horizon_s: u64,
    /// `(second, good, total)`, ascending by second.
    buckets: VecDeque<(u64, u64, u64)>,
}

impl SloWindow {
    /// Window covering the last `horizon_s` seconds.
    pub fn new(horizon_s: u64) -> SloWindow {
        SloWindow {
            horizon_s: horizon_s.max(1),
            buckets: VecDeque::new(),
        }
    }

    fn evict(&mut self, now_s: u64) {
        while let Some(&(sec, _, _)) = self.buckets.front() {
            if sec + self.horizon_s <= now_s {
                self.buckets.pop_front();
            } else {
                break;
            }
        }
    }

    /// Record one observation at `now_s` (seconds on any monotonic
    /// clock, e.g. the tracer epoch).
    pub fn record(&mut self, now_s: u64, good: bool) {
        self.evict(now_s);
        let g = u64::from(good);
        match self.buckets.back_mut() {
            Some((sec, gd, tot)) if *sec == now_s => {
                *gd += g;
                *tot += 1;
            }
            _ => self.buckets.push_back((now_s, g, 1)),
        }
    }

    /// `(good, total)` over the window ending at `now_s`.
    pub fn totals(&self, now_s: u64) -> (u64, u64) {
        self.buckets
            .iter()
            .filter(|&&(sec, _, _)| sec + self.horizon_s > now_s)
            .fold((0, 0), |(g, t), &(_, gd, tot)| (g + gd, t + tot))
    }

    /// Burn rate against `slo_target`: observed miss rate divided by the
    /// error budget `1 − target`. 0.0 with no observations; burn > 1
    /// means the budget is being consumed faster than the SLO allows.
    pub fn burn_rate(&self, now_s: u64, slo_target: f64) -> f64 {
        let (good, total) = self.totals(now_s);
        if total == 0 {
            return 0.0;
        }
        let miss_rate = (total - good) as f64 / total as f64;
        let budget = (1.0 - slo_target).max(f64::EPSILON);
        miss_rate / budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_prom_conformance;

    #[test]
    fn registry_renders_conformant_families() {
        let mut m = MetricsRegistry::new();
        m.counter("x_total", "Things.", &[], 3.0)
            .gauge("depth", "Queue depth.", &[("shard", "0")], 2.0)
            .gauge("depth", "Queue depth.", &[("shard", "1")], 5.0);
        let page = m.render();
        assert!(page.contains("# HELP x_total Things.\n"));
        assert!(page.contains("# TYPE x_total counter\n"));
        assert!(page.contains("x_total 3\n"));
        assert!(page.contains("depth{shard=\"0\"} 2\n"));
        assert!(page.contains("depth{shard=\"1\"} 5\n"));
        // One header for the two-depth family, not two.
        assert_eq!(page.matches("# TYPE depth gauge").count(), 1);
    }

    #[test]
    fn label_values_escape_quotes_and_backslashes() {
        let mut m = MetricsRegistry::new();
        m.counter(
            "o_total",
            "Outcomes.",
            &[("why", "he said \"no\" \\ twice")],
            3.0,
        );
        let page = m.render();
        assert!(
            page.contains("o_total{why=\"he said \\\"no\\\" \\\\ twice\"} 3\n"),
            "{page}"
        );
        check_prom_conformance(&page).unwrap();
    }

    #[test]
    fn non_finite_samples_use_prom_spellings() {
        let mut m = MetricsRegistry::new();
        m.gauge("g", "Gauge.", &[("v", "inf")], f64::INFINITY)
            .gauge("g", "Gauge.", &[("v", "-inf")], f64::NEG_INFINITY)
            .gauge("g", "Gauge.", &[("v", "nan")], f64::NAN);
        let page = m.render();
        assert!(page.contains("g{v=\"inf\"} +Inf\n"), "{page}");
        assert!(page.contains("g{v=\"-inf\"} -Inf\n"), "{page}");
        assert!(page.contains("g{v=\"nan\"} NaN\n"), "{page}");
        check_prom_conformance(&page).unwrap();
    }

    #[test]
    #[should_panic(expected = "duplicate series")]
    fn duplicate_series_panic() {
        let mut m = MetricsRegistry::new();
        m.counter("x_total", "Things.", &[("a", "1")], 3.0).counter(
            "x_total",
            "Things.",
            &[("a", "1")],
            4.0,
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_metric_name_panics() {
        MetricsRegistry::new().counter("1bad-name", "h", &[], 0.0);
    }

    #[test]
    #[should_panic(expected = "re-declared")]
    fn kind_conflict_panics() {
        let mut m = MetricsRegistry::new();
        m.counter("x", "h", &[], 1.0).gauge("x", "h", &[], 1.0);
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_sum_and_count() {
        let mut m = MetricsRegistry::new();
        m.log_histogram_us(
            "lat_us",
            "Latency.",
            &[("class", "ion-like")],
            &[1, 3, 3000],
            None,
        );
        let page = m.render();
        assert!(page.contains("# TYPE lat_us histogram\n"));
        assert!(
            page.contains("lat_us_bucket{class=\"ion-like\",le=\"1\"} 1\n"),
            "{page}"
        );
        assert!(
            page.contains("lat_us_bucket{class=\"ion-like\",le=\"4\"} 2\n"),
            "{page}"
        );
        assert!(
            page.contains("lat_us_bucket{class=\"ion-like\",le=\"4096\"} 3\n"),
            "{page}"
        );
        assert!(
            page.contains("lat_us_bucket{class=\"ion-like\",le=\"+Inf\"} 3\n"),
            "{page}"
        );
        assert!(
            page.contains("lat_us_sum{class=\"ion-like\"} 3004\n"),
            "{page}"
        );
        assert!(
            page.contains("lat_us_count{class=\"ion-like\"} 3\n"),
            "{page}"
        );
    }

    #[test]
    fn exemplar_lands_on_the_containing_bucket() {
        let mut m = MetricsRegistry::new();
        m.log_histogram_us("lat_us", "Latency.", &[], &[10, 3000], Some((42, 3000)));
        let page = m.render();
        // 3000 µs lands in the le=4096 bucket (2^12).
        assert!(
            page.contains("lat_us_bucket{le=\"4096\"} 2 # {trace_id=\"42\"} 3000\n"),
            "{page}"
        );
        // Only one exemplar on the whole page.
        assert_eq!(page.matches("trace_id=\"42\"").count(), 1);
    }

    #[test]
    fn slo_window_burns_proportionally_to_misses() {
        let mut w = SloWindow::new(120);
        for s in 0..50 {
            w.record(s, true);
        }
        assert_eq!(w.totals(50), (50, 50));
        assert_eq!(w.burn_rate(50, 0.99), 0.0);
        // One miss in 100 at a 99% target burns at exactly 1.0.
        for s in 50..99 {
            w.record(s, true);
        }
        w.record(99, false);
        let burn = w.burn_rate(99, 0.99);
        assert!((burn - 1.0).abs() < 1e-9, "{burn}");
    }

    #[test]
    fn slo_window_evicts_old_seconds() {
        let mut w = SloWindow::new(60);
        w.record(0, false);
        assert_eq!(w.totals(0), (0, 1));
        // 59 seconds later the miss is still in the window; at 60 it ages out.
        assert_eq!(w.totals(59), (0, 1));
        assert_eq!(w.totals(60), (0, 0));
        w.record(100, true);
        assert_eq!(w.totals(100), (1, 1));
        assert_eq!(w.burn_rate(100, 0.99), 0.0);
    }

    #[test]
    fn empty_window_burns_zero() {
        let w = SloWindow::new(60);
        assert_eq!(w.burn_rate(10, 0.99), 0.0);
    }
}
