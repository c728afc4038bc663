//! Latency samples, percentiles, and failure accounting.

use crate::json::Json;

/// Timing samples of one kind, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, seconds: f64) {
        self.values.push(seconds);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        ratio(self.sum(), self.values.len() as f64)
    }
}

/// The highest of p99 / p90 / p50 that has at least ten samples beyond it
/// (p50 when even that is out of reach), with its label.
pub fn tail_quantile(n: usize) -> (f64, &'static str) {
    if n >= 1000 {
        (0.99, "p99")
    } else if n >= 100 {
        (0.9, "p90")
    } else {
        (0.5, "p50")
    }
}

/// `num / den`, 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Attempted / failed calls of the timed phase. A failed call is any
/// error the API returned, `DbError::Backpressure` refusals included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    pub attempted: u64,
    pub failed: u64,
}

impl Calls {
    /// Count one call and pass its result through.
    pub fn count<T, E>(&mut self, result: Result<T, E>) -> Result<T, E> {
        self.attempted += 1;
        if result.is_err() {
            self.failed += 1;
        }
        result
    }

    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// One reported metric: value, unit, and how it was summarised.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind the value (1 for a single measurement).
    pub samples: usize,
    /// How the samples were summarised: `p50`, `p99`, `total`, `rate`, ...
    pub stat: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    pub items: Vec<Metric>,
}

impl Metrics {
    pub fn add(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        stat: &'static str,
    ) {
        self.items.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            stat,
        });
    }

    /// A latency summary: `scale` converts seconds to `unit`.
    pub fn add_quantile(
        &mut self,
        name: &str,
        s: &Samples,
        q: f64,
        stat: &'static str,
        scale: f64,
        unit: &'static str,
    ) {
        self.add(name, s.quantile(q) * scale, unit, s.len(), stat);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": u}}` for the names given, in order.
    pub fn result_object(&self, names: &[&str]) -> Json {
        let mut obj = Json::obj();
        for name in names {
            let m = self
                .items
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            obj.set(
                name,
                Json::obj().with("value", m.value).with("unit", m.unit),
            );
        }
        obj
    }

    /// Every metric with its sample count and statistic, for the run record.
    pub fn record(&self) -> Json {
        Json::Arr(
            self.items
                .iter()
                .map(|m| {
                    Json::obj()
                        .with("name", m.name.as_str())
                        .with("value", m.value)
                        .with("unit", m.unit)
                        .with("samples", m.samples)
                        .with("stat", m.stat)
                })
                .collect(),
        )
    }
}
