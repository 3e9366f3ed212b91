//! A small JSON object writer for the result and metadata lines.

use wave_obs::json::{escape_into, push_f64};

/// An object whose values are already rendered, in insertion order.
#[derive(Debug, Default)]
pub struct Json {
    entries: Vec<(String, String)>,
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    escape_into(&mut out, s);
    out
}

impl Json {
    pub fn object() -> Self {
        Self::default()
    }

    fn put(&mut self, k: &str, rendered: String) -> &mut Self {
        self.entries.push((k.to_string(), rendered));
        self
    }

    /// A number, printed with every digit Rust's shortest round-trip
    /// formatting gives (whole numbers print without a fraction).
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        let mut out = String::new();
        push_f64(&mut out, v);
        self.put(k, out)
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.put(k, quoted(v))
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.put(k, v.to_string())
    }

    pub fn obj(&mut self, k: &str, v: Json) -> &mut Self {
        self.put(k, v.render())
    }

    pub fn strs(&mut self, k: &str, v: &[String]) -> &mut Self {
        let items: Vec<String> = v.iter().map(|s| quoted(s)).collect();
        self.put(k, format!("[{}]", items.join(",")))
    }

    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|(k, v)| format!("{}:{v}", quoted(k)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects() {
        let mut inner = Json::object();
        inner.num("value", 1.25).str("unit", "ms");
        let mut outer = Json::object();
        outer
            .bool("correct", true)
            .num("attempted", 1000.0)
            .obj("m", inner);
        assert_eq!(
            outer.render(),
            r#"{"correct":true,"attempted":1000,"m":{"value":1.25,"unit":"ms"}}"#
        );
    }
}
