//! Parser for `crates/lint/lint.toml` — the rule manifest.
//!
//! The format is a deliberately minimal TOML subset (the workspace builds
//! offline with no TOML crate): `[section]` headers, repeated `key = value`
//! lines accumulating into lists, `#` comments.  Rules are data: each
//! section configures one rule's scope and allowlists, so tightening or
//! relaxing a rule is a config edit reviewed like any other diff, never a
//! code change.

use std::collections::BTreeMap;

/// One rule's configuration: repeated keys accumulate in order.
pub type Section = Vec<(String, String)>;

/// The parsed manifest: section name → key/value pairs.
#[derive(Debug, Default, Clone)]
pub struct Manifest {
    sections: BTreeMap<String, Section>,
}

impl Manifest {
    /// Parses the manifest text.  Returns `Err` with a line-numbered message
    /// on malformed lines — the linter refuses to run with a broken config
    /// rather than silently skipping rules.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut manifest = Manifest::default();
        let mut current = String::new();
        for (index, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                current = name.trim().to_string();
                manifest.sections.entry(current.clone()).or_default();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "lint.toml:{}: expected `key = value` or `[section]`, got `{line}`",
                    index + 1
                ));
            };
            if current.is_empty() {
                return Err(format!(
                    "lint.toml:{}: `{key}` appears before any [section] header",
                    index + 1
                ));
            }
            manifest
                .sections
                .get_mut(&current)
                .map(|section| {
                    section.push((key.trim().to_string(), value.trim().to_string()));
                })
                .ok_or_else(|| format!("lint.toml:{}: unknown section state", index + 1))?;
        }
        Ok(manifest)
    }

    /// All values of `key` in `section`, in file order.
    pub fn values(&self, section: &str, key: &str) -> Vec<String> {
        self.sections
            .get(section)
            .map(|entries| {
                entries
                    .iter()
                    .filter(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Whether the manifest has a section for `name`.
    pub fn has_section(&self, name: &str) -> bool {
        self.sections.contains_key(name)
    }

    /// Section names, sorted.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_accumulate_repeated_keys_in_order() {
        let m = Manifest::parse(
            "# comment\n[scan]\nexclude = vendor\nexclude = target\n\n[rule]\nfile = a.rs\n",
        )
        .unwrap();
        assert_eq!(m.values("scan", "exclude"), vec!["vendor", "target"]);
        assert_eq!(m.values("rule", "file"), vec!["a.rs"]);
        assert!(m.values("rule", "missing").is_empty());
        assert!(m.has_section("scan"));
        assert!(!m.has_section("absent"));
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        let err = Manifest::parse("[a]\nnot a pair\n").unwrap_err();
        assert!(err.contains("lint.toml:2"), "{err}");
        let err = Manifest::parse("stray = value\n").unwrap_err();
        assert!(err.contains("before any [section]"), "{err}");
    }
}
