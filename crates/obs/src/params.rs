//! The registry core shared by the data-driven registries.
//!
//! Both the protection-scheme registry (`killi::registry`) and the
//! fault-model registry (`killi_fault::model`) describe their entries as
//! named descriptors with typed, defaulted parameters, spellable three
//! ways: CLI shorthand (`name:key=value,key=value`), JSON objects
//! (`{"name": ..., "params": {...}}`), and programmatic construction. This
//! module is the one implementation of that machinery: the [`Config`]
//! type and its spellings, [`ParamSpec`] and [`ResolvedParams`], the
//! typed [`BuildError`], and the generic [`Registry`] that resolves,
//! labels and canonicalizes configs. The canonical JSON it produces is
//! what `killi serve` hashes into job ids. Each registry wraps a
//! [`Registry`] and adds only its own build step. The module lives here
//! because `killi-obs` is the dependency-free root of the crate graph,
//! below both registries.

use std::fmt;
use std::marker::PhantomData;

use crate::json::{escape as escape_json, parse as parse_json, JsonValue};

/// A typed registry parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Unsigned integer (counts, ratios, latencies).
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Boolean switch.
    Bool(bool),
    /// Free-form string.
    Str(String),
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::U64(v) => write!(f, "{v}"),
            ParamValue::F64(v) => write!(f, "{v:?}"),
            ParamValue::Bool(v) => write!(f, "{v}"),
            ParamValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl ParamValue {
    /// JSON spelling of the value.
    pub fn to_json(&self) -> String {
        match self {
            ParamValue::Str(s) => format!("\"{}\"", escape_json(s)),
            other => other.to_string(),
        }
    }

    /// A value from its CLI spelling: `true`/`false`, integer, float, else
    /// a bare string.
    pub fn parse(text: &str) -> ParamValue {
        if text == "true" {
            ParamValue::Bool(true)
        } else if text == "false" {
            ParamValue::Bool(false)
        } else if let Ok(v) = text.parse::<u64>() {
            ParamValue::U64(v)
        } else if let Ok(v) = text.parse::<f64>() {
            ParamValue::F64(v)
        } else {
            ParamValue::Str(text.to_string())
        }
    }

    /// A value from its JSON spelling (integral non-negative numbers
    /// become [`ParamValue::U64`]).
    pub fn from_json(v: &JsonValue) -> Option<ParamValue> {
        match v {
            JsonValue::Bool(b) => Some(ParamValue::Bool(*b)),
            JsonValue::Num(n) => {
                if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 {
                    Some(ParamValue::U64(*n as u64))
                } else {
                    Some(ParamValue::F64(*n))
                }
            }
            JsonValue::Str(s) => Some(ParamValue::Str(s.clone())),
            _ => None,
        }
    }

    /// Human name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            ParamValue::U64(_) => "an unsigned integer",
            ParamValue::F64(_) => "a number",
            ParamValue::Bool(_) => "a boolean",
            ParamValue::Str(_) => "a string",
        }
    }

    /// Coerces this value to the type of `default`, when sensible:
    /// integral floats narrow to integers, integers widen to floats,
    /// everything else must match exactly.
    pub fn coerce_to(&self, default: &ParamValue) -> Option<ParamValue> {
        match (self, default) {
            (ParamValue::U64(v), ParamValue::U64(_)) => Some(ParamValue::U64(*v)),
            (ParamValue::F64(v), ParamValue::U64(_)) if v.fract() == 0.0 && *v >= 0.0 => {
                Some(ParamValue::U64(*v as u64))
            }
            (ParamValue::F64(v), ParamValue::F64(_)) => Some(ParamValue::F64(*v)),
            (ParamValue::U64(v), ParamValue::F64(_)) => Some(ParamValue::F64(*v as f64)),
            (ParamValue::Bool(v), ParamValue::Bool(_)) => Some(ParamValue::Bool(*v)),
            (ParamValue::Str(v), ParamValue::Str(_)) => Some(ParamValue::Str(v.clone())),
            _ => None,
        }
    }
}

/// Which registry a config, parameter set or error belongs to; it only
/// picks the noun messages use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Protection schemes (`killi::registry`).
    Scheme,
    /// Fault models (`killi_fault::model`).
    FaultModel,
}

impl Axis {
    /// The noun messages use: `scheme` or `fault model`.
    pub fn noun(self) -> &'static str {
        match self {
            Axis::Scheme => "scheme",
            Axis::FaultModel => "fault model",
        }
    }
}

/// The type-level [`Axis`] of a [`Config`]: keeps scheme and fault-model
/// configs distinct types.
pub trait AxisTag: fmt::Debug + Clone + PartialEq + 'static {
    /// The axis this tag stands for.
    const AXIS: Axis;
}

/// An axis with a default entry, which [`Config::default`] names.
pub trait DefaultEntry: AxisTag {
    /// Name of the default entry.
    const NAME: &'static str;
}

/// A declarative registry instantiation: a registered name plus
/// parameter overrides (unset parameters take the descriptor's defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct Config<A> {
    /// Registered name.
    pub name: String,
    /// Parameter overrides, in declaration order.
    pub params: Vec<(String, ParamValue)>,
    axis: PhantomData<A>,
}

impl<A: DefaultEntry> Default for Config<A> {
    fn default() -> Self {
        Config::new(A::NAME)
    }
}

impl<A: AxisTag> Config<A> {
    /// A config with no overrides.
    pub fn new(name: &str) -> Self {
        Config {
            name: name.to_string(),
            params: Vec::new(),
            axis: PhantomData,
        }
    }

    /// Adds (or replaces) a parameter override.
    #[must_use]
    pub fn with(mut self, key: &str, value: ParamValue) -> Self {
        if let Some(slot) = self.params.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.params.push((key.to_string(), value));
        }
        self
    }

    /// The override for `key`, if set.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A parse error of this config's axis.
    pub fn parse_error(input: &str, reason: impl Into<String>) -> BuildError {
        BuildError::Parse {
            axis: A::AXIS,
            input: input.to_string(),
            reason: reason.into(),
        }
    }

    /// Parses the CLI shorthand `name` or `name:key=value,key=value`.
    pub fn parse(input: &str) -> Result<Self, BuildError> {
        let input = input.trim();
        let (name, rest) = match input.split_once(':') {
            Some((name, rest)) => (name.trim(), Some(rest)),
            None => (input, None),
        };
        if name.is_empty() {
            let noun = A::AXIS.noun().replace(' ', "-");
            return Err(Self::parse_error(input, format!("empty {noun} name")));
        }
        let mut config = Config::new(name);
        for pair in rest.into_iter().flat_map(|rest| rest.split(',')) {
            let Some((key, value)) = pair.split_once('=') else {
                let reason = format!("parameter `{pair}` is not key=value");
                return Err(Self::parse_error(input, reason));
            };
            let key = key.trim();
            if key.is_empty() {
                return Err(Self::parse_error(input, "empty parameter name"));
            }
            config = config.with(key, ParamValue::parse(value.trim()));
        }
        Ok(config)
    }

    /// Serializes as a JSON object: `{"name": ..., "params": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"name\": \"{}\"", escape_json(&self.name));
        if !self.params.is_empty() {
            let params: Vec<String> = self
                .params
                .iter()
                .map(|(key, value)| format!("\"{}\": {}", escape_json(key), value.to_json()))
                .collect();
            out.push_str(&format!(", \"params\": {{{}}}", params.join(", ")));
        }
        out.push('}');
        out
    }

    /// A config from a parsed JSON object. Parameters go under
    /// `params`; any other top-level key is a typed parse error, so a
    /// misplaced parameter (`{"name": "ms-ecc", "m": 16}`) fails instead
    /// of silently building the defaults.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, BuildError> {
        let Some(name) = v.get("name").and_then(JsonValue::as_str) else {
            let noun = A::AXIS.noun().replace(' ', "-");
            let reason = format!("{noun} object needs a string `name`");
            return Err(Self::parse_error("<json>", reason));
        };
        if let JsonValue::Object(entries) = v {
            if let Some((key, _)) = entries.iter().find(|(k, _)| k != "name" && k != "params") {
                let noun = A::AXIS.noun().replace(' ', "-");
                let reason =
                    format!("unknown {noun} object key `{key}` (parameters go under `params`)");
                return Err(Self::parse_error("<json>", reason));
            }
        }
        let mut config = Config::new(name);
        match v.get("params") {
            None | Some(JsonValue::Null) => {}
            Some(JsonValue::Object(entries)) => {
                for (key, value) in entries {
                    let Some(value) = ParamValue::from_json(value) else {
                        let reason = format!("parameter `{key}` must be a number, bool or string");
                        return Err(Self::parse_error("<json>", reason));
                    };
                    config = config.with(key, value);
                }
            }
            Some(_) => return Err(Self::parse_error("<json>", "`params` must be an object")),
        }
        Ok(config)
    }

    /// A config from JSON text.
    pub fn from_json(text: &str) -> Result<Self, BuildError> {
        let v = parse_json(text).map_err(|e| Self::parse_error("<json>", e.to_string()))?;
        Self::from_json_value(&v)
    }
}

impl<A> fmt::Display for Config<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for (i, (key, value)) in self.params.iter().enumerate() {
            write!(f, "{}{key}={value}", if i == 0 { ":" } else { "," })?;
        }
        Ok(())
    }
}

/// Why a [`Config`] could not be parsed, resolved or built.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The config text (CLI shorthand or JSON) did not parse.
    Parse {
        /// Registry the config was meant for.
        axis: Axis,
        /// The offending input.
        input: String,
        /// What went wrong.
        reason: String,
    },
    /// No descriptor registered under this name.
    Unknown {
        /// Registry that was asked.
        axis: Axis,
        /// The unregistered name.
        name: String,
    },
    /// The entry has no such parameter.
    UnknownParam {
        /// Registry of the entry.
        axis: Axis,
        /// Entry name.
        name: String,
        /// The unrecognized parameter.
        param: String,
    },
    /// A parameter had the wrong type or an out-of-range value.
    InvalidParam {
        /// Registry of the entry.
        axis: Axis,
        /// Entry name.
        name: String,
        /// Parameter name.
        param: String,
        /// What went wrong.
        reason: String,
    },
    /// The parameters are individually fine but do not yield a buildable
    /// entry (an ECC cache smaller than one set, an unreadable parameter
    /// file).
    Unbuildable {
        /// Registry of the entry.
        axis: Axis,
        /// Entry name.
        name: String,
        /// What went wrong.
        reason: String,
    },
}

impl BuildError {
    /// The registry the error came from.
    pub fn axis(&self) -> Axis {
        match self {
            BuildError::Parse { axis, .. }
            | BuildError::Unknown { axis, .. }
            | BuildError::UnknownParam { axis, .. }
            | BuildError::InvalidParam { axis, .. }
            | BuildError::Unbuildable { axis, .. } => *axis,
        }
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let noun = self.axis().noun();
        match self {
            BuildError::Parse { input, reason, .. } => {
                write!(f, "cannot parse {noun} `{input}`: {reason}")
            }
            BuildError::Unknown { name, .. } => write!(f, "unknown {noun} `{name}`"),
            BuildError::UnknownParam { name, param, .. } => {
                write!(f, "{noun} `{name}` has no parameter `{param}`")
            }
            BuildError::InvalidParam {
                name,
                param,
                reason,
                ..
            } => write!(f, "invalid `{name}` parameter `{param}`: {reason}"),
            // Scheme build failures name no noun; CLI and service error
            // text depends on this wording.
            BuildError::Unbuildable {
                axis: Axis::Scheme,
                name,
                reason,
            } => write!(f, "cannot build `{name}`: {reason}"),
            BuildError::Unbuildable { name, reason, .. } => {
                write!(f, "cannot build {noun} `{name}`: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// One declared parameter of a registry entry.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Parameter name (the `key` in `key=value`).
    pub name: &'static str,
    /// One-line description for the CLI listing.
    pub doc: &'static str,
    /// Default value (also fixes the expected type).
    pub default: ParamValue,
}

/// Parameters of one config after defaulting and type coercion.
#[derive(Debug, Clone)]
pub struct ResolvedParams {
    axis: Axis,
    name: &'static str,
    values: Vec<(&'static str, ParamValue)>,
}

impl ResolvedParams {
    /// The entry name these parameters resolve.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// An [`BuildError::InvalidParam`] for `param` of this entry.
    pub fn invalid(&self, param: &str, reason: impl Into<String>) -> BuildError {
        BuildError::InvalidParam {
            axis: self.axis,
            name: self.name.to_string(),
            param: param.to_string(),
            reason: reason.into(),
        }
    }

    /// An [`BuildError::Unbuildable`] for this entry.
    pub fn unbuildable(&self, reason: impl Into<String>) -> BuildError {
        BuildError::Unbuildable {
            axis: self.axis,
            name: self.name.to_string(),
            reason: reason.into(),
        }
    }

    fn index(&self, key: &str) -> usize {
        self.values
            .iter()
            .position(|(k, _)| *k == key)
            .unwrap_or_else(|| {
                let noun = self.axis.noun();
                panic!("{noun} `{}` has no `{key}` parameter", self.name)
            })
    }

    fn get(&self, key: &str) -> &ParamValue {
        &self.values[self.index(key)].1
    }

    /// Replaces the value of a declared parameter (canonicalization hooks).
    ///
    /// # Panics
    ///
    /// Panics if the parameter is not declared.
    pub fn set(&mut self, key: &str, value: ParamValue) {
        let i = self.index(key);
        self.values[i].1 = value;
    }

    /// An integer parameter (registry-validated to exist and be U64).
    pub fn u64(&self, key: &str) -> u64 {
        match self.get(key) {
            ParamValue::U64(v) => *v,
            other => panic!("parameter `{key}` is not u64: {other:?}"),
        }
    }

    /// A float parameter.
    pub fn f64(&self, key: &str) -> f64 {
        match self.get(key) {
            ParamValue::F64(v) => *v,
            ParamValue::U64(v) => *v as f64,
            other => panic!("parameter `{key}` is not f64: {other:?}"),
        }
    }

    /// A boolean parameter.
    pub fn bool(&self, key: &str) -> bool {
        match self.get(key) {
            ParamValue::Bool(v) => *v,
            other => panic!("parameter `{key}` is not bool: {other:?}"),
        }
    }

    /// A string parameter.
    pub fn str(&self, key: &str) -> &str {
        match self.get(key) {
            ParamValue::Str(v) => v,
            other => panic!("parameter `{key}` is not a string: {other:?}"),
        }
    }
}

/// Signature of a descriptor's canonicalization hook (see
/// [`Descriptor::canonical_hook`]).
pub type CanonicalizeFn = fn(&mut ResolvedParams) -> Result<(), BuildError>;

/// What the registry core needs from a descriptor. Each registry's
/// descriptor type adds its own build function on top.
pub trait Descriptor {
    /// The axis tag of the configs this descriptor resolves.
    type Tag: AxisTag;

    /// Registered name (what `--scheme` / `--fault-model` selects).
    fn name(&self) -> &'static str;

    /// One-line description for the CLI listing.
    fn doc(&self) -> &'static str;

    /// Declared parameters with defaults, in declaration order.
    fn params(&self) -> &[ParamSpec];

    /// Report label for a resolved config (the strings pinned by report
    /// schemas, e.g. `killi-1:64` or `clustered:rows=4,corr=0.8`).
    fn label(&self, params: &ResolvedParams) -> String;

    /// Optional hook run after resolution when canonicalizing: folds
    /// environment-dependent parameters (e.g. a parameter *file path*)
    /// into value-equivalent canonical ones (its *contents*), so
    /// content-addressed cache keys depend on what an entry computes, not
    /// on where its inputs live.
    fn canonical_hook(&self) -> Option<CanonicalizeFn> {
        None
    }
}

/// An ordered collection of descriptors, and the one implementation of
/// config resolution, labeling and canonicalization.
#[derive(Debug)]
pub struct Registry<D> {
    entries: Vec<D>,
}

impl<D> Default for Registry<D> {
    fn default() -> Self {
        Registry {
            entries: Vec::new(),
        }
    }
}

impl<D: Descriptor> Registry<D> {
    /// Registers a descriptor.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name — registrations are code, not data.
    pub fn register(&mut self, descriptor: D) {
        assert!(
            self.descriptor(descriptor.name()).is_none(),
            "{} `{}` registered twice",
            D::Tag::AXIS.noun(),
            descriptor.name()
        );
        self.entries.push(descriptor);
    }

    /// The descriptor registered under `name`.
    pub fn descriptor(&self, name: &str) -> Option<&D> {
        self.entries.iter().find(|d| d.name() == name)
    }

    /// All descriptors, in registration order.
    pub fn descriptors(&self) -> &[D] {
        &self.entries
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(D::name).collect()
    }

    /// Resolves a config against its descriptor: every override must name
    /// a declared parameter and coerce to its default's type. Returns the
    /// descriptor too, for the registry's own build step.
    pub fn resolve(&self, config: &Config<D::Tag>) -> Result<(&D, ResolvedParams), BuildError> {
        let axis = D::Tag::AXIS;
        let descriptor = self
            .descriptor(&config.name)
            .ok_or_else(|| BuildError::Unknown {
                axis,
                name: config.name.clone(),
            })?;
        let declared = descriptor.params();
        if let Some((key, _)) = config
            .params
            .iter()
            .find(|(key, _)| !declared.iter().any(|p| p.name == key))
        {
            return Err(BuildError::UnknownParam {
                axis,
                name: config.name.clone(),
                param: key.clone(),
            });
        }
        let mut resolved = ResolvedParams {
            axis,
            name: descriptor.name(),
            values: Vec::with_capacity(declared.len()),
        };
        for spec in declared {
            let value = match config.get(spec.name) {
                None => spec.default.clone(),
                Some(over) => over.coerce_to(&spec.default).ok_or_else(|| {
                    resolved.invalid(
                        spec.name,
                        format!(
                            "expected {} (default {}), got `{over}`",
                            spec.default.type_name(),
                            spec.default
                        ),
                    )
                })?,
            };
            resolved.values.push((spec.name, value));
        }
        Ok((descriptor, resolved))
    }

    /// Validates a config without building it.
    pub fn validate(&self, config: &Config<D::Tag>) -> Result<(), BuildError> {
        self.resolve(config).map(|_| ())
    }

    /// The report label of a config.
    pub fn label(&self, config: &Config<D::Tag>) -> Result<String, BuildError> {
        let (descriptor, resolved) = self.resolve(config)?;
        Ok(descriptor.label(&resolved))
    }

    /// Normalizes a config to its canonical spelling: every declared
    /// parameter spelled explicitly, in descriptor declaration order, with
    /// values coerced to the declared type and environment-dependent
    /// parameters folded (see [`Descriptor::canonical_hook`]). Any two
    /// configs that resolve to the same entry — CLI shorthand, expanded
    /// JSON, reordered keys, defaults spelled out or omitted —
    /// canonicalize to equal [`Config`]s, which is what content-addressed
    /// caching keys on.
    pub fn canonicalize(&self, config: &Config<D::Tag>) -> Result<Config<D::Tag>, BuildError> {
        let (descriptor, mut resolved) = self.resolve(config)?;
        if let Some(hook) = descriptor.canonical_hook() {
            hook(&mut resolved)?;
        }
        let mut canonical = Config::new(resolved.name);
        canonical.params = resolved
            .values
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        Ok(canonical)
    }

    /// The canonical JSON spelling of a config (see
    /// [`Registry::canonicalize`]): equal entries produce byte-identical
    /// JSON, suitable for hashing into a cache key.
    pub fn canonical_json(&self, config: &Config<D::Tag>) -> Result<String, BuildError> {
        Ok(self.canonicalize(config)?.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn cli_spellings_infer_types() {
        assert_eq!(ParamValue::parse("true"), ParamValue::Bool(true));
        assert_eq!(ParamValue::parse("16"), ParamValue::U64(16));
        assert_eq!(ParamValue::parse("0.8"), ParamValue::F64(0.8));
        assert_eq!(ParamValue::parse("fft"), ParamValue::Str("fft".to_string()));
    }

    #[test]
    fn json_round_trips() {
        for v in [
            ParamValue::U64(4),
            ParamValue::F64(0.5),
            ParamValue::Bool(false),
            ParamValue::Str("a b".to_string()),
        ] {
            let parsed = parse(&v.to_json()).unwrap();
            assert_eq!(ParamValue::from_json(&parsed), Some(v));
        }
    }

    #[test]
    fn coercion_narrows_and_widens_numbers() {
        let u = ParamValue::U64(0);
        let f = ParamValue::F64(0.0);
        assert_eq!(ParamValue::F64(3.0).coerce_to(&u), Some(ParamValue::U64(3)));
        assert_eq!(ParamValue::F64(3.5).coerce_to(&u), None);
        assert_eq!(ParamValue::U64(3).coerce_to(&f), Some(ParamValue::F64(3.0)));
        assert_eq!(ParamValue::Bool(true).coerce_to(&u), None);
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Schemes {}

    impl AxisTag for Schemes {
        const AXIS: Axis = Axis::Scheme;
    }

    #[test]
    fn parses_shorthand_with_typed_values() {
        let c = Config::<Schemes>::parse("killi:ratio=16,victim_priority=false").unwrap();
        assert_eq!(c.name, "killi");
        assert_eq!(c.get("ratio"), Some(&ParamValue::U64(16)));
        assert_eq!(c.get("victim_priority"), Some(&ParamValue::Bool(false)));
        assert_eq!(c.to_string(), "killi:ratio=16,victim_priority=false");
    }

    #[test]
    fn json_objects_reject_unknown_top_level_keys() {
        let ok = parse(r#"{"name": "ms-ecc", "params": {"m": 16, "t": 4}}"#).unwrap();
        let c = Config::<Schemes>::from_json_value(&ok).unwrap();
        assert_eq!(c.get("m"), Some(&ParamValue::U64(16)));
        let misplaced = parse(r#"{"name": "ms-ecc", "m": 16, "t": 4}"#).unwrap();
        let err = Config::<Schemes>::from_json_value(&misplaced).unwrap_err();
        assert!(
            matches!(&err, BuildError::Parse { reason, .. } if reason.contains("`m`")),
            "{err}"
        );
    }

    #[test]
    fn malformed_shorthand_is_a_typed_error() {
        assert!(matches!(
            Config::<Schemes>::parse("killi:ratio"),
            Err(BuildError::Parse { .. })
        ));
        assert!(matches!(
            Config::<Schemes>::parse(""),
            Err(BuildError::Parse { .. })
        ));
    }
}
