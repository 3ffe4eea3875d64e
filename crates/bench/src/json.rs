//! Machine-readable benchmark output.
//!
//! Every perf-tracking bench (`benches/engine.rs` → `BENCH_engine.json`,
//! `benches/candidate_gen.rs` → `BENCH_matcher.json`) writes a small JSON
//! snapshot so the performance trajectory is trackable across PRs. This
//! module is the shared writer: a top-level object with a `schema` tag, a
//! few scalar fields, and an `arms` array of measured rows — rendered with
//! stable formatting so committed snapshots diff cleanly. Values arrive
//! pre-rendered through `crowdjoin_util::json`'s `js_*` helpers, the same
//! ones the trace sinks and the CLI's JSON report use.

use crowdjoin_util::json::{js_str, JsonObject};

/// A benchmark snapshot under construction: scalar fields plus an `arms`
/// array. Values are pre-rendered JSON (use the `js_*` helpers).
#[derive(Debug, Clone)]
pub struct BenchJson {
    schema: String,
    fields: Vec<(String, String)>,
    arms: Vec<Vec<(String, String)>>,
}

impl BenchJson {
    /// Starts a snapshot with the given schema tag (e.g.
    /// `"crowdjoin-bench-engine/1"`).
    #[must_use]
    pub fn new(schema: &str) -> Self {
        Self { schema: schema.to_string(), fields: Vec::new(), arms: Vec::new() }
    }

    /// Adds a top-level field with a pre-rendered JSON value.
    pub fn field(&mut self, key: &str, rendered_value: impl Into<String>) -> &mut Self {
        self.fields.push((key.to_string(), rendered_value.into()));
        self
    }

    /// Adds one measured arm: `(key, pre-rendered value)` pairs.
    pub fn arm(&mut self, fields: Vec<(&str, String)>) -> &mut Self {
        self.arms.push(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
        self
    }

    /// Renders the whole snapshot.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("{{\n  \"schema\": {},\n", js_str(&self.schema));
        for (key, value) in &self.fields {
            out.push_str(&format!("  {}: {value},\n", js_str(key)));
        }
        out.push_str("  \"arms\": [\n");
        for (i, arm) in self.arms.iter().enumerate() {
            let mut row = JsonObject::new();
            for (key, value) in arm {
                row.field(key, value);
            }
            let comma = if i + 1 == self.arms.len() { "" } else { "," };
            out.push_str(&format!("    {}{comma}\n", row.render()));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the snapshot to `$env_override` if set, else `default_path`,
    /// and returns the path written.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written (benches want a loud failure).
    pub fn write(&self, env_override: &str, default_path: &str) -> String {
        let path = std::env::var(env_override).unwrap_or_else(|_| default_path.to_string());
        std::fs::write(&path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin_util::json::{js_f64, js_opt_f64};

    #[test]
    fn renders_stable_shape() {
        let mut json = BenchJson::new("test/1");
        json.field("cores", "4");
        json.field("workload", format!("{{\"name\": {}, \"records\": 10}}", js_str("tiny")));
        json.arm(vec![("name", js_str("fast")), ("wall_ms", js_f64(1.23456, 3))]);
        json.arm(vec![("name", js_str("slow")), ("waste", js_opt_f64(None, 4))]);
        let rendered = json.render();
        assert_eq!(
            rendered,
            "{\n  \"schema\": \"test/1\",\n  \"cores\": 4,\n  \"workload\": {\"name\": \
             \"tiny\", \"records\": 10},\n  \"arms\": [\n    {\"name\": \"fast\", \
             \"wall_ms\": 1.235},\n    {\"name\": \"slow\", \"waste\": null}\n  ]\n}\n"
        );
    }
}
