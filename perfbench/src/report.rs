//! Metric lines and the final JSON result line.

/// One named measurement; `None` marks a layer that does not run on the
/// workload (printed as absent, never as zero).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value: Some(value),
            unit,
        }
    }

    pub fn maybe(name: &str, value: Option<f64>, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Prints metric lines tagged with the run's identity.
#[derive(Debug, Clone)]
pub struct Reporter {
    pub workload: String,
    pub seed: u64,
    pub commit: String,
}

impl Reporter {
    pub fn line(&self, rep: &str, m: &Metric) {
        let value = m
            .value
            .map_or_else(|| "absent".to_string(), |v| v.to_string());
        println!(
            "metric workload={} seed={} commit={} rep={} name={} value={} unit={}",
            self.workload, self.seed, self.commit, rep, m.name, value, m.unit
        );
    }

    pub fn note(&self, rep: &str, text: &str) {
        println!(
            "note workload={} seed={} commit={} rep={} {}",
            self.workload, self.seed, self.commit, rep, text
        );
    }
}

/// The result line: `metrics` holds exactly `names`, each of which must
/// be present and finite.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    names: &[&str],
) -> Result<String, String> {
    let mut fields = Vec::new();
    for name in names {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let v = m
            .value
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} has no finite value"))?;
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}
