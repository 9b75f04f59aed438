//! The metric catalogue: `BENCHMARK.json` at the repository root, embedded
//! when the benchmark is built. Names, units, directions and bounds live
//! only there; a run checks that it emits exactly the names declared.

use ddrace_json::Value;
use std::sync::OnceLock;

/// The `BENCHMARK.json` this binary was built with.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug)]
pub struct Def {
    pub name: String,
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Catalogue {
    #[cfg(test)]
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Def>,
    pub per_layer: Vec<Def>,
}

fn defs(doc: &Value, key: &str) -> Vec<Def> {
    let text = |m: &Value, f: &str| {
        m[f].as_str()
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry lacks `{f}`"))
            .to_string()
    };
    doc[key]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| Def {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: text(m, "better"),
            bound: m["bound"].as_f64(),
        })
        .collect()
}

pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let doc = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
        Catalogue {
            #[cfg(test)]
            workloads: doc["workloads"]
                .as_array()
                .expect("BENCHMARK.json lists workloads")
                .iter()
                .filter_map(|w| w["name"].as_str().map(String::from))
                .collect(),
            end_to_end: defs(&doc, "end_to_end"),
            per_layer: defs(&doc, "per_layer"),
        }
    })
}

impl Catalogue {
    /// The end-to-end (untraced) or per-layer (traced) metrics.
    pub fn section(&self, traced: bool) -> &[Def] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    pub fn find(&self, name: &str) -> Option<&Def> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}
