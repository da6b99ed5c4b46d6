//! Collected metrics and checks of one run, and their two renderings: a
//! human-readable table and the final one-line JSON result.

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained (sample count, source), for the table.
    pub detail: String,
}

/// The metrics and check tallies of one run.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations checked: every encode, decode, chunk read and replayed
    /// layer call whose output the benchmark compared.
    pub attempted: u64,
    /// Checked operations that errored or produced a wrong output.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        detail: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            detail: detail.into(),
        });
    }

    /// Counts one checked operation; a failed check is recorded, not fatal.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    /// Counts an operation that returned an error as failed; returns the
    /// value on success.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Failed operations ÷ attempted operations.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<width$}  {:>14.4} {:<6} {}\n",
                m.name, m.value, m.unit, m.detail
            ));
        }
        out.push_str(&format!(
            "  {:<width$}  {:>14.4} {:<6} {} failed of {} attempted\n",
            "fail_frac",
            self.fail_frac(),
            "frac",
            self.failed,
            self.attempted
        ));
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }

    /// The one-line JSON result. The run is correct when every check
    /// passed. A non-finite value would not be valid JSON; it is written as
    /// `null` and marks the run incorrect.
    pub fn json(&self) -> String {
        let all_finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            all_finite && self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_contract_keys() {
        let mut r = Report::default();
        r.metric("ratio", 12.5, "x", "");
        r.check(true, String::new);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"ratio\": {\"value\": 12.5, \"unit\": \"x\"}}}"
        );
    }

    #[test]
    fn a_failed_check_counts_and_marks_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(false, || "decode out of bound".into());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.fail_frac(), 0.5);
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
