//! `BENCHMARK.json`, compiled in: the declared workloads, metrics, units
//! and regression bounds. The benchmark reads names, units and bounds
//! from here so that what it prints and what the file declares cannot
//! drift apart (a unit test holds the emitted metric set to it).

use crate::json::{parse, Json};

pub const TEXT: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// Parses the compiled-in file.
    ///
    /// # Panics
    /// Panics if the file is malformed: it is part of this program's
    /// source, so a bad one is a build defect, not an input error.
    pub fn load() -> Spec {
        let doc = parse(TEXT).expect("BENCHMARK.json parses");
        let metrics = |key: &str| -> Vec<Metric> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list present")
                .iter()
                .map(|m| Metric {
                    name: field(m, "name"),
                    unit: field(m, "unit"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("run_seconds present"),
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .expect("workloads present")
                .iter()
                .map(|w| field(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The declared metric `name`, in either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn field(v: &Json, key: &str) -> String {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks {key}"))
        .to_string()
}
