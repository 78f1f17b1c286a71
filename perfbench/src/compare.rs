//! Judges a change from two sets of runs (choosing-metrics §6–§8): per
//! workload × metric, each side's median and quartiles, the share of
//! seed-paired runs the new side won, and a verdict.

use crate::report::{num, obj, text};
use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;

/// One run's record, reduced to what a comparison needs.
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    /// Parses a record line (or a bare result line, which has no workload
    /// or seed and is grouped under "?").
    pub fn parse(line: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let Value::Object(metrics) = &v["metrics"] else {
            return Err("no metrics object".into());
        };
        Ok(Self {
            workload: v["workload"].as_str().unwrap_or("?").to_string(),
            seed: v["seed"].as_f64().unwrap_or(0.0) as u64,
            trace: v["trace"].as_f64() == Some(1.0),
            metrics: metrics
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m["value"].as_f64()?)))
                .collect(),
        })
    }
}

/// How a metric compares, per choosing-metrics §6 and §8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new side won at least 9 in 10 pairs and its median moved by
    /// more than the old side's interquartile distance.
    Improved,
    /// Within the bound (and both spreads within it).
    Unchanged,
    /// The median got worse by more than the bound.
    Worse,
    /// A spread exceeds the bound (or, without a bound, no clear win or
    /// loss), unless every new run beat every old run.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Both sides of one workload × metric.
pub struct Row {
    pub old: Vec<f64>,
    pub new: Vec<f64>,
    /// (old, new) pairs of runs with the same seed.
    pub pairs: Vec<(f64, f64)>,
    pub higher_is_better: bool,
    /// Share of the old median by which the metric may worsen; `None` for
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

impl Row {
    fn better(&self, a: f64, b: f64) -> bool {
        if self.higher_is_better {
            a > b
        } else {
            a < b
        }
    }

    /// (won, lost) pairs from the new side's point of view; ties count for
    /// neither.
    pub fn pair_record(&self) -> (usize, usize) {
        let won = self
            .pairs
            .iter()
            .filter(|(o, n)| self.better(*n, *o))
            .count();
        let lost = self
            .pairs
            .iter()
            .filter(|(o, n)| self.better(*o, *n))
            .count();
        (won, lost)
    }

    pub fn verdict(&self) -> Verdict {
        let (mo, mn) = (median(&self.old), median(&self.new));
        let (qo, qn) = (quartiles(&self.old), quartiles(&self.new));
        let iqr_old = qo[2] - qo[0];
        let (won, lost) = self.pair_record();
        let pairs = self.pairs.len();
        let clear = |wins: usize| pairs > 0 && wins * 10 >= pairs * 9 && (mn - mo).abs() > iqr_old;
        if clear(won) {
            return Verdict::Improved;
        }
        let all_better = self
            .new
            .iter()
            .all(|&n| self.old.iter().all(|&o| self.better(n, o)));
        let Some(bound) = self.bound else {
            return if clear(lost) {
                Verdict::Worse
            } else {
                Verdict::Unresolved
            };
        };
        let spread = ((qo[2] - qo[0]) / mo.abs()).max((qn[2] - qn[0]) / mn.abs());
        let worse_by = if self.higher_is_better {
            mo - mn
        } else {
            mn - mo
        } / mo.abs();
        if all_better {
            Verdict::Unchanged
        } else if spread.is_nan() || spread > bound {
            Verdict::Unresolved
        } else if worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unchanged
        }
    }

    pub fn to_json(&self) -> Value {
        let side = |v: &[f64]| {
            let q = quartiles(v);
            obj(vec![
                ("n", num(v.len() as f64)),
                ("median", num(median(v))),
                ("q1", num(q[0])),
                ("q3", num(q[2])),
            ])
        };
        let (won, _) = self.pair_record();
        let share = if self.pairs.is_empty() {
            Value::Null
        } else {
            num(won as f64 / self.pairs.len() as f64)
        };
        obj(vec![
            ("old", side(&self.old)),
            ("new", side(&self.new)),
            ("pairs", num(self.pairs.len() as f64)),
            ("share_won", share),
            ("bound", self.bound.map_or(Value::Null, num)),
            ("verdict", text(self.verdict().name())),
        ])
    }
}

/// Declared direction and bound per metric name, from `BENCHMARK.json`.
pub fn declarations(bench: &Value) -> BTreeMap<String, (bool, Option<f64>)> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        if let Value::Array(items) = &bench[key] {
            for i in items {
                if let Some(name) = i["name"].as_str() {
                    out.insert(
                        name.to_string(),
                        (i["better"] == "higher", i["bound"].as_f64()),
                    );
                }
            }
        }
    }
    out
}

/// Groups two sets of runs into rows keyed by (workload, metric), pairing
/// runs of the same workload, trace mode and seed.
pub fn rows(
    old: &[RunRecord],
    new: &[RunRecord],
    decl: &BTreeMap<String, (bool, Option<f64>)>,
) -> BTreeMap<(String, String), Row> {
    let mut rows: BTreeMap<(String, String), Row> = BTreeMap::new();
    for (side, runs) in [(0, old), (1, new)] {
        for r in runs {
            for (metric, &v) in &r.metrics {
                let Some(&(higher_is_better, bound)) = decl.get(metric) else {
                    continue;
                };
                let row = rows
                    .entry((r.workload.clone(), metric.clone()))
                    .or_insert_with(|| Row {
                        old: Vec::new(),
                        new: Vec::new(),
                        pairs: Vec::new(),
                        higher_is_better,
                        bound,
                    });
                if side == 0 {
                    row.old.push(v);
                } else {
                    row.new.push(v);
                    let twin = old.iter().find(|o| {
                        o.workload == r.workload && o.trace == r.trace && o.seed == r.seed
                    });
                    if let Some(o) = twin.and_then(|o| o.metrics.get(metric)) {
                        row.pairs.push((*o, v));
                    }
                }
            }
        }
    }
    rows.retain(|_, r| !r.old.is_empty() && !r.new.is_empty());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(old: &[f64], new: &[f64], bound: Option<f64>) -> Row {
        Row {
            old: old.to_vec(),
            new: new.to_vec(),
            pairs: old.iter().copied().zip(new.iter().copied()).collect(),
            higher_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_guide() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
        ];
        let same: Vec<f64> = base.iter().map(|v| v + 0.05).collect();
        let faster: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let slower: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(row(&base, &faster, Some(0.1)).verdict(), Verdict::Improved);
        assert_eq!(row(&base, &slower, Some(0.1)).verdict(), Verdict::Worse);
        // Wins every pair but by less than the old side's spread: no gain.
        assert_eq!(row(&base, &same, Some(0.1)).verdict(), Verdict::Unchanged);
        let noisy = [
            50.0, 150.0, 70.0, 130.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            row(&noisy, &noisy, Some(0.1)).verdict(),
            Verdict::Unresolved
        );
        assert_eq!(row(&base, &slower, None).verdict(), Verdict::Worse);
        assert_eq!(row(&base, &base, None).verdict(), Verdict::Unresolved);
    }

    #[test]
    fn rows_pair_runs_by_seed() {
        let rec = |seed: u64, v: f64| RunRecord {
            workload: "plan".into(),
            seed,
            trace: false,
            metrics: [("ops_per_s".to_string(), v)].into_iter().collect(),
        };
        let decl: BTreeMap<String, (bool, Option<f64>)> =
            [("ops_per_s".to_string(), (true, Some(0.1)))]
                .into_iter()
                .collect();
        let old = [rec(1, 10.0), rec(2, 20.0)];
        let new = [rec(2, 21.0), rec(3, 9.0)];
        let rows = rows(&old, &new, &decl);
        let row = &rows[&("plan".to_string(), "ops_per_s".to_string())];
        assert_eq!(row.pairs, vec![(20.0, 21.0)]);
        assert_eq!(row.pair_record(), (1, 0));
    }
}
