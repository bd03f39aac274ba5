//! The scenario emitter: the [`Keys`] walk that writes each key of
//! `scenario_keys` as TOML, the generator half of `schema_prop.rs`'s
//! parse · emit round-trip. Sections are `[table]`s, fault entries
//! `[[fault]]`s and deeper tables inline; a key at its default is left
//! out.

use mtp_scenario::schema::{scenario_keys, Keys, List, Names, Reals, Scenario, SchemaError};
use mtp_scenario::toml::{escape_basic, format_key};
use std::fmt::Display;
use std::ops::RangeInclusive;

type Walk = Result<(), SchemaError>;

/// Render a finite float so it parses back exactly and is unambiguously
/// a float (always contains `.` or an exponent).
fn format_float(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// One table's `key = value` entries; the root's are section headers.
#[derive(Default)]
struct Emit {
    lines: Vec<String>,
    nested: bool,
}

impl Emit {
    fn put(&mut self, key: &str, value: String) -> Walk {
        self.lines.push(format!("{} = {value}", format_key(key)));
        Ok(())
    }

    /// The entries `f` writes, as an inline table.
    fn inline(f: impl FnOnce(&mut Emit) -> Walk) -> Result<String, SchemaError> {
        let mut e = Emit {
            lines: Vec::new(),
            nested: true,
        };
        f(&mut e)?;
        Ok(format!("{{ {} }}", e.lines.join(", ")))
    }

    /// The entries `f` writes, under `header` at the root.
    fn section(&mut self, header: String, f: impl FnOnce(&mut Emit) -> Walk) -> Walk {
        let mut e = Emit {
            lines: vec![format!("\n{header}")],
            nested: true,
        };
        f(&mut e)?;
        self.lines.append(&mut e.lines);
        Ok(())
    }
}

impl Keys for Emit {
    fn has(&mut self, _: &str, set: bool) -> bool {
        set
    }

    fn u64(&mut self, key: &str, v: &mut u64, _: RangeInclusive<u64>) -> Walk {
        self.put(key, v.to_string())
    }

    fn f64(&mut self, key: &str, v: &mut f64, _: Reals) -> Walk {
        self.put(key, format_float(*v))
    }

    fn bool(&mut self, key: &str, v: &mut bool) -> Walk {
        self.put(key, v.to_string())
    }

    fn str(&mut self, key: &str, v: &mut String) -> Walk {
        self.put(key, escape_basic(v))
    }

    fn pick<T: Clone>(&mut self, key: &str, v: &mut T, names: &Names<T>) -> Walk {
        self.put(key, escape_basic(names.name(v)))
    }

    fn u64s(&mut self, key: &str, v: &mut Vec<u64>, _: &List) -> Walk {
        let items: Vec<String> = v.iter().map(u64::to_string).collect();
        self.put(key, format!("[{}]", items.join(", ")))
    }

    fn picks<T: Clone + PartialEq>(&mut self, key: &str, v: &mut Vec<T>, names: &Names<T>) -> Walk {
        let items: Vec<String> = v.iter().map(|p| escape_basic(names.name(p))).collect();
        self.put(key, format!("[{}]", items.join(", ")))
    }

    fn span(&mut self, key: &str, v: &mut Option<(u64, u64)>) -> Walk {
        match v {
            Some((from, to)) => self.put(key, format!("[{from}, {to}]")),
            None => Ok(()),
        }
    }

    fn table(&mut self, key: &str, f: impl FnOnce(&mut Self) -> Walk) -> Walk {
        if !self.nested {
            return self.section(format!("[{}]", format_key(key)), f);
        }
        let t = Emit::inline(f)?;
        self.put(key, t)
    }

    fn tables<T: Default>(
        &mut self,
        key: &str,
        v: &mut Vec<T>,
        mut f: impl FnMut(&mut Self, &mut T) -> Walk,
    ) -> Walk {
        for x in v {
            self.section(format!("[[{}]]", format_key(key)), |e| f(e, x))?;
        }
        Ok(())
    }

    fn named<T: Clone, V: Default>(
        &mut self,
        key: &str,
        v: &mut Vec<(T, V)>,
        names: &Names<T>,
        mut f: impl FnMut(&mut Self, &mut V) -> Walk,
    ) -> Walk {
        if v.is_empty() {
            return Ok(());
        }
        let t = Emit::inline(|e| {
            for (name, x) in v {
                let t = Emit::inline(|e| f(e, x))?;
                e.put(names.name(name), t)?;
            }
            Ok(())
        })?;
        self.put(key, t)
    }

    fn pins(&mut self, key: &str, v: &mut Vec<(String, String)>) -> Walk {
        if v.is_empty() {
            return Ok(());
        }
        let t = Emit::inline(|e| {
            v.iter()
                .try_for_each(|(k, hex)| e.put(k, escape_basic(hex)))
        })?;
        self.put(key, t)
    }

    fn rule(&mut self, _: impl Display, _: bool, _: impl Display, _: impl FnOnce()) -> Walk {
        Ok(())
    }
}

/// Render a scenario as TOML. `from_str(to_toml(s))` yields a scenario
/// equal to `s` — the roundtrip property `schema_prop.rs` pins.
pub fn to_toml(s: &Scenario) -> String {
    let mut e = Emit::default();
    scenario_keys(&mut e, &mut s.clone()).expect("emitting refuses nothing");
    e.lines.join("\n") + "\n"
}
