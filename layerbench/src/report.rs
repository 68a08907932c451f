//! The result line: named metrics with units, operation counts, and the
//! JSON object the benchmark prints last.

use std::fmt::Write as _;

/// Metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value of the same name).
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        // A non-finite value would make the line invalid JSON; every
        // quotient in this crate guards its divisor, so this is a bug.
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.rows.iter_mut().find(|r| r.0 == name) {
            Some(row) => {
                row.1 = value;
                row.2 = unit;
            }
            None => self.rows.push((name, value, unit)),
        }
    }

    /// Value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// The metrics named in `wanted`, in its order and with its units. A
    /// name never set reads 0: its layer did no work in this workload.
    ///
    /// # Panics
    ///
    /// If a metric was set that `known` does not list, or with another
    /// unit than listed — a bug in this crate.
    pub fn select(
        &self,
        wanted: &[(String, &'static str)],
        known: &[(String, &'static str)],
    ) -> Metrics {
        for (name, _, unit) in &self.rows {
            let listed = known.iter().find(|k| k.0 == *name);
            assert!(
                listed.is_some_and(|k| k.1 == *unit),
                "metric {name} ({unit}) is not listed"
            );
        }
        Metrics {
            rows: wanted
                .iter()
                .map(|(n, u)| (n.clone(), self.get(n).unwrap_or(0.0), *u))
                .collect(),
        }
    }

    /// Prints one `name value unit` line per metric.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.rows {
            println!("  {name:<44} {value:>18.4} {unit}");
        }
    }

    /// The contract's last line.
    pub fn json_line(&self, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // `{:?}` prints the shortest string that reads back as the
            // same f64: every digit measured, always with a decimal point.
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median of `v` (sorts in place; 0 for an empty slice).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("req_per_s", 1.5, "1/s");
        m.set("setup_s", 2.0, "s");
        let line = m.json_line(3, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"req_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
