//! Prometheus text-exposition read-back and conformance checks.
//!
//! Pages are written by [`MetricsRegistry`](crate::MetricsRegistry);
//! this module reads them back ([`parse_prom_value`],
//! [`parse_prom_labeled`]) and checks them against the exposition
//! contract ([`check_prom_conformance`]), so tests and the repro
//! experiments can check exporter/snapshot agreement without a real
//! Prometheus parser.

use crate::metrics::valid_metric_name;

/// Read back the first sample of `name` from a rendered page (label sets
/// are ignored; `name` must match the metric name exactly). Exists so
/// tests and the repro experiment can check exporter/snapshot agreement
/// without a real Prometheus parser.
pub fn parse_prom_value(text: &str, name: &str) -> Option<f64> {
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some(rest) = line.strip_prefix(name) else {
            continue;
        };
        // Wrong-metric lines (e.g. `foo_total` when asked for `foo`)
        // share a prefix; require a label block or a space next.
        let rest = match rest.as_bytes().first() {
            Some(b' ') => rest.trim_start(),
            Some(b'{') => match rest.split_once('}') {
                Some((_, v)) => v.trim_start(),
                None => continue,
            },
            _ => continue,
        };
        let token = rest.split_whitespace().next()?;
        return match token {
            "NaN" => Some(f64::NAN),
            "+Inf" => Some(f64::INFINITY),
            "-Inf" => Some(f64::NEG_INFINITY),
            t => t.parse().ok(),
        };
    }
    None
}

/// Read back the sample of `name` whose label block contains every
/// `key="value"` pair in `labels` (order-independent). Companion to
/// [`parse_prom_value`] for per-class/per-shard series.
pub fn parse_prom_labeled(text: &str, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some(rest) = line.strip_prefix(name) else {
            continue;
        };
        let Some(b'{') = rest.as_bytes().first() else {
            continue;
        };
        let (block, value) = rest[1..].split_once('}')?;
        if !labels
            .iter()
            .all(|(k, v)| block.contains(&format!("{k}=\"{v}\"")))
        {
            continue;
        }
        let token = value.split_whitespace().next()?;
        return match token {
            "NaN" => Some(f64::NAN),
            "+Inf" => Some(f64::INFINITY),
            "-Inf" => Some(f64::NEG_INFINITY),
            t => t.parse().ok(),
        };
    }
    None
}

/// Validate a rendered page against the exposition-format contract the
/// runtime and fleet pages share:
///
/// * every sample's family has a `# HELP` **and** `# TYPE` line before
///   its first sample (histogram `_bucket`/`_sum`/`_count` samples
///   resolve to their base family);
/// * every metric name matches `[a-zA-Z_:][a-zA-Z0-9_:]*`;
/// * no `(name, label set)` series appears twice;
/// * `# TYPE` values are legal kinds, declared at most once per family.
///
/// OpenMetrics-style exemplar suffixes (`value # {...} v`) are accepted.
pub fn check_prom_conformance(page: &str) -> Result<(), String> {
    use std::collections::{BTreeMap, BTreeSet};
    #[derive(Default)]
    struct Fam {
        help: bool,
        kind: Option<String>,
    }
    let mut fams: BTreeMap<String, Fam> = BTreeMap::new();
    let mut series: BTreeSet<String> = BTreeSet::new();
    for (lineno, line) in page.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            let fam = fams.entry(name.to_string()).or_default();
            if fam.help {
                return Err(format!("line {n}: duplicate # HELP for {name}"));
            }
            fam.help = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("");
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {n}: illegal TYPE {kind:?} for {name}"));
            }
            let fam = fams.entry(name.to_string()).or_default();
            if fam.kind.is_some() {
                return Err(format!("line {n}: duplicate # TYPE for {name}"));
            }
            fam.kind = Some(kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        // Sample line: name[{labels}] value [# exemplar]
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {n}: no value on sample line {line:?}"))?;
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!("line {n}: invalid metric name {name:?}"));
        }
        let (series_key, value_part) = if line.as_bytes()[name_end] == b'{' {
            let close = line
                .find('}')
                .ok_or_else(|| format!("line {n}: unterminated label block"))?;
            (&line[..close + 1], line[close + 1..].trim_start())
        } else {
            (name, line[name_end..].trim_start())
        };
        let token = value_part
            .split_whitespace()
            .next()
            .ok_or_else(|| format!("line {n}: missing sample value"))?;
        if !matches!(token, "NaN" | "+Inf" | "-Inf") && token.parse::<f64>().is_err() {
            return Err(format!("line {n}: unparseable sample value {token:?}"));
        }
        if !series.insert(series_key.to_string()) {
            return Err(format!("line {n}: duplicate series {series_key}"));
        }
        // Histogram children resolve to the declared base family.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                name.strip_suffix(suf).filter(|base| {
                    fams.get(*base)
                        .map(|f| f.kind.as_deref() == Some("histogram"))
                        .unwrap_or(false)
                })
            })
            .unwrap_or(name);
        match fams.get(family) {
            Some(fam) if fam.help && fam.kind.is_some() => {}
            _ => {
                return Err(format!(
                    "line {n}: sample {name} precedes its # HELP/# TYPE declaration"
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reads_back_plain_and_labeled_values() {
        let page = "# HELP a b\n# TYPE a counter\na 7\nab 9\nc{l=\"x\"} 2.5\nd NaN\n";
        assert_eq!(parse_prom_value(page, "a"), Some(7.0));
        assert_eq!(parse_prom_value(page, "ab"), Some(9.0));
        assert_eq!(parse_prom_value(page, "c"), Some(2.5));
        assert!(parse_prom_value(page, "d").unwrap().is_nan());
        assert_eq!(parse_prom_value(page, "missing"), None);
    }

    #[test]
    fn labeled_parse_selects_by_label_pairs() {
        let page = "# HELP l h\n# TYPE l gauge\n\
                    l{class=\"ion-like\",quantile=\"p99\"} 120\n\
                    l{class=\"electron-like\",quantile=\"p99\"} 900\n";
        assert_eq!(
            parse_prom_labeled(
                page,
                "l",
                &[("class", "electron-like"), ("quantile", "p99")]
            ),
            Some(900.0)
        );
        assert_eq!(
            parse_prom_labeled(page, "l", &[("class", "ion-like")]),
            Some(120.0)
        );
        assert_eq!(parse_prom_labeled(page, "l", &[("class", "missing")]), None);
    }

    #[test]
    fn conformance_accepts_a_well_formed_page() {
        let page = "# HELP a help text\n# TYPE a counter\na 1\na{x=\"1\"} 2\n\
                    # HELP h help\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 0\nh_bucket{le=\"+Inf\"} 3 # {trace_id=\"9\"} 2.5\n\
                    h_sum 4.5\nh_count 3\n";
        check_prom_conformance(page).unwrap();
    }

    #[test]
    fn conformance_rejects_missing_headers() {
        assert!(check_prom_conformance("a 1\n").is_err());
        assert!(check_prom_conformance("# HELP a h\na 1\n").is_err());
        assert!(check_prom_conformance("# TYPE a counter\na 1\n").is_err());
    }

    #[test]
    fn conformance_rejects_duplicate_series_and_headers() {
        let dup = "# HELP a h\n# TYPE a counter\na{x=\"1\"} 1\na{x=\"1\"} 2\n";
        assert!(check_prom_conformance(dup)
            .unwrap_err()
            .contains("duplicate series"));
        let dup_type = "# HELP a h\n# TYPE a counter\n# TYPE a counter\na 1\n";
        assert!(check_prom_conformance(dup_type)
            .unwrap_err()
            .contains("duplicate # TYPE"));
    }

    #[test]
    fn conformance_rejects_bad_names_and_kinds() {
        assert!(check_prom_conformance("# HELP 9x h\n# TYPE 9x counter\n9x 1\n").is_err());
        assert!(check_prom_conformance("# HELP a h\n# TYPE a widget\na 1\n").is_err());
        let bad_value = "# HELP a h\n# TYPE a counter\na one\n";
        assert!(check_prom_conformance(bad_value).is_err());
    }
}
