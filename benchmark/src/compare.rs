//! `--compare BASE.json NEW.json`: a verdict per workload and end-to-end
//! metric, with the layer metrics printed alongside (never gated).

use std::fmt::Write as _;

use icnoc_explore::JsonValue;

use crate::stats::Summary;

/// How NEW compares to BASE on one lower-is-better metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// NEW's median is lower by more than the bound, or every NEW rep
    /// beats every BASE rep.
    Better,
    /// The medians are within the bound of each other.
    Same,
    /// NEW's median is higher by more than the bound.
    Worse,
    /// A side's spread exceeds the bound, so the medians cannot be told
    /// apart at that bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Self::Better => "better",
            Self::Same => "same",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// Compares two sets of samples of a lower-is-better metric. `bound` is
/// the share of BASE's median by which NEW may worsen.
#[must_use]
pub fn verdict(base: &[f64], new: &[f64], bound: f64) -> Verdict {
    let (Some(b), Some(n)) = (Summary::of(base), Summary::of(new)) else {
        return Verdict::Unresolved;
    };
    let new_max = new.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let base_min = base.iter().copied().fold(f64::INFINITY, f64::min);
    if new_max < base_min {
        return Verdict::Better;
    }
    if b.spread() > bound || n.spread() > bound {
        return Verdict::Unresolved;
    }
    let delta = (n.median - b.median) / b.median;
    if delta > bound {
        Verdict::Worse
    } else if delta < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn pairs(v: Option<&JsonValue>) -> &[(String, JsonValue)] {
    match v {
        Some(JsonValue::Obj(pairs)) => pairs,
        _ => &[],
    }
}

fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
}

fn samples(v: &JsonValue) -> Vec<f64> {
    v.get("samples")
        .and_then(JsonValue::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(JsonValue::as_f64)
        .collect()
}

/// Compares two `--out` documents. Returns the printed table and whether
/// NEW passes: no "worse" verdict and no rise in any `failed_frac`.
#[must_use]
pub fn compare(base: &JsonValue, new: &JsonValue) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    let workloads = |doc: &JsonValue| {
        doc.get("workloads")
            .and_then(JsonValue::as_arr)
            .unwrap_or_default()
            .to_vec()
    };
    let base_workloads = workloads(base);
    for w in workloads(new) {
        let name = w.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let Some(b) = base_workloads
            .iter()
            .find(|b| b.get("name").and_then(JsonValue::as_str) == Some(name))
        else {
            let _ = writeln!(out, "{name}: not in BASE, skipped");
            continue;
        };
        let _ = writeln!(out, "{name}:");
        for (metric, n) in pairs(w.get("e2e")) {
            let Some(bm) = b.get("e2e").and_then(|e| e.get(metric)) else {
                continue;
            };
            let bound = num(n, "bound");
            let v = verdict(&samples(bm), &samples(n), bound);
            pass &= v != Verdict::Worse;
            let _ = writeln!(
                out,
                "  {metric:<16} base {:>10.6} [{:.6}, {:.6}]  new {:>10.6} [{:.6}, {:.6}]  \
                 delta {:+.1}% (bound {:.0}%)  {}",
                num(bm, "median"),
                num(bm, "q1"),
                num(bm, "q3"),
                num(n, "median"),
                num(n, "q1"),
                num(n, "q3"),
                (num(n, "median") / num(bm, "median") - 1.0) * 100.0,
                bound * 100.0,
                v.label()
            );
        }
        let (bf, nf) = (num(b, "failed_frac"), num(&w, "failed_frac"));
        let rose = nf > bf;
        pass &= !rose;
        let _ = writeln!(
            out,
            "  {:<16} base {bf:>10.6}  new {nf:>10.6}  {}",
            "failed_frac",
            if rose { "worse" } else { "same" }
        );
        for (metric, n) in pairs(w.get("layers")) {
            let base_value = b
                .get("layers")
                .and_then(|l| l.get(metric))
                .map_or(f64::NAN, |v| num(v, "value"));
            let _ = writeln!(
                out,
                "  {metric:<28} base {base_value:>14.6}  new {:>14.6} {}",
                num(n, "value"),
                n.get("unit").and_then(JsonValue::as_str).unwrap_or("")
            );
        }
    }
    let _ = writeln!(out, "verdict: {}", if pass { "PASS" } else { "FAIL" });
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(median: f64, half_spread: f64) -> Vec<f64> {
        vec![
            median - half_spread,
            median - half_spread / 2.0,
            median,
            median + half_spread / 2.0,
            median + half_spread,
        ]
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let base = around(1.0, 0.02);
        assert_eq!(verdict(&base, &around(1.05, 0.02), 0.1), Verdict::Same);
        assert_eq!(verdict(&base, &around(1.2, 0.02), 0.1), Verdict::Worse);
        assert_eq!(verdict(&base, &around(0.85, 0.02), 0.1), Verdict::Better);
        assert_eq!(verdict(&base, &around(0.97, 0.02), 0.1), Verdict::Same);
    }

    #[test]
    fn wide_spreads_are_unresolved_unless_every_new_rep_wins() {
        let noisy = around(1.0, 0.5);
        assert_eq!(
            verdict(&noisy, &around(1.3, 0.02), 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&around(1.0, 0.02), &noisy, 0.1),
            Verdict::Unresolved
        );
        // Every NEW rep below every BASE rep is better whatever the spread.
        assert_eq!(verdict(&noisy, &around(0.2, 0.1), 0.1), Verdict::Better);
        assert_eq!(verdict(&[], &noisy, 0.1), Verdict::Unresolved);
    }

    fn doc(wall: &[f64], failed_frac: f64) -> JsonValue {
        let metric = JsonValue::Obj(vec![
            ("bound".into(), JsonValue::Num(0.1)),
            ("median".into(), JsonValue::Num(wall[wall.len() / 2])),
            (
                "samples".into(),
                JsonValue::Arr(wall.iter().map(|&v| JsonValue::Num(v)).collect()),
            ),
        ]);
        JsonValue::Obj(vec![(
            "workloads".into(),
            JsonValue::Arr(vec![JsonValue::Obj(vec![
                ("name".into(), JsonValue::Str("soak256".into())),
                ("failed_frac".into(), JsonValue::Num(failed_frac)),
                (
                    "e2e".into(),
                    JsonValue::Obj(vec![("wall_s".into(), metric)]),
                ),
            ])]),
        )])
    }

    #[test]
    fn compare_fails_on_worse_or_more_failures() {
        let base = doc(&around(1.0, 0.02), 0.0);
        let (text, pass) = compare(&base, &doc(&around(1.02, 0.02), 0.0));
        assert!(pass, "{text}");
        assert!(text.contains("same"), "{text}");
        let (text, pass) = compare(&base, &doc(&around(1.5, 0.02), 0.0));
        assert!(!pass && text.contains("worse"), "{text}");
        let (text, pass) = compare(&base, &doc(&around(1.0, 0.02), 0.1));
        assert!(!pass, "{text}");
    }
}
