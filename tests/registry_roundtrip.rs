//! Property tests for the scheme registry's declarative configs: every
//! `SchemeConfig` must survive a JSON round-trip unchanged, the CLI
//! shorthand must agree with the JSON spelling, and malformed or unknown
//! configs must surface as typed [`BuildError`]s — never panics.

use std::sync::Arc;

use killi_repro::bench::schemes::{
    default_registry, BuildCtx, BuildError, ParamValue, SchemeConfig, SchemeRegistry,
};
use killi_repro::fault::map::FaultMap;
use killi_repro::obs::params::Axis;
use killi_repro::sim::cache::CacheGeometry;

fn geometry() -> CacheGeometry {
    CacheGeometry {
        size_bytes: 64 * 1024,
        ways: 16,
        line_bytes: 64,
    }
}

fn ctx() -> BuildCtx {
    let geo = geometry();
    BuildCtx::new(Arc::new(FaultMap::fault_free(geo.lines())), geo)
}

/// A config exercising every [`ParamValue`] variant. The params are
/// deliberately not registered anywhere: round-tripping happens before
/// validation, so the serialization contract must hold for any config.
fn exotic_config() -> SchemeConfig {
    SchemeConfig::new("hypothetical")
        .with("count", ParamValue::U64(17))
        .with("scale", ParamValue::F64(0.625))
        .with("enabled", ParamValue::Bool(false))
        .with("note", ParamValue::Str("quotes \"and\" back\\slash".into()))
}

#[test]
fn every_registered_default_round_trips_through_json() {
    let registry = default_registry();
    for name in registry.names() {
        let config = SchemeConfig::new(name);
        let json = config.to_json();
        let back = SchemeConfig::from_json(&json)
            .unwrap_or_else(|e| panic!("{name}: {json} did not parse back: {e}"));
        assert_eq!(back, config, "{name} changed across a JSON round-trip");
    }
}

#[test]
fn overridden_params_round_trip_through_json() {
    let registry = default_registry();
    for name in registry.names() {
        let descriptor = registry.descriptor(name).expect("listed name resolves");
        let mut config = SchemeConfig::new(name);
        for param in &descriptor.params {
            config = config.with(param.name, param.default.clone());
        }
        let back = SchemeConfig::from_json(&config.to_json()).expect("round-trip parses");
        assert_eq!(back, config, "{name} with explicit defaults diverged");
        // Explicit defaults must also build to the same label as the bare name.
        assert_eq!(
            registry.label(&back).unwrap(),
            registry.label(&SchemeConfig::new(name)).unwrap()
        );
    }
}

#[test]
fn every_param_value_variant_round_trips() {
    let config = exotic_config();
    let back = SchemeConfig::from_json(&config.to_json()).expect("round-trip parses");
    assert_eq!(back, config);
}

#[test]
fn shorthand_and_json_spellings_agree() {
    let shorthand = SchemeConfig::parse("killi:ratio=16,ecc_sets=64,ecc_ways=8").unwrap();
    let json = SchemeConfig::from_json(
        r#"{"name": "killi", "params": {"ratio": 16, "ecc_sets": 64, "ecc_ways": 8}}"#,
    )
    .unwrap();
    assert_eq!(shorthand, json);
    assert_eq!(
        default_registry().label(&shorthand).unwrap(),
        "killi-ecc64x8"
    );
}

#[test]
fn list_round_trips_through_both_json_shapes() {
    let configs = vec![
        SchemeConfig::new("baseline"),
        SchemeConfig::new("killi").with("ratio", ParamValue::U64(16)),
        exotic_config(),
    ];
    let bare = format!(
        "[{}]",
        configs
            .iter()
            .map(SchemeConfig::to_json)
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert_eq!(SchemeRegistry::list_from_json(&bare).unwrap(), configs);
    let wrapped = format!("{{\"schemes\": {bare}}}");
    assert_eq!(SchemeRegistry::list_from_json(&wrapped).unwrap(), configs);
}

#[test]
fn unknown_scheme_is_a_typed_error() {
    let registry = default_registry();
    let config = SchemeConfig::new("no-such-scheme");
    match registry.validate(&config) {
        Err(BuildError::Unknown {
            axis: Axis::Scheme,
            name,
        }) => assert_eq!(name, "no-such-scheme"),
        other => panic!("expected an unknown scheme, got {other:?}"),
    }
    assert!(matches!(
        registry.build(&config, &ctx()),
        Err(BuildError::Unknown { .. })
    ));
    assert!(matches!(
        registry.label(&config),
        Err(BuildError::Unknown { .. })
    ));
}

#[test]
fn unknown_and_mistyped_params_are_typed_errors() {
    let registry = default_registry();
    match registry.validate(&SchemeConfig::new("killi").with("ratio2", ParamValue::U64(4))) {
        Err(BuildError::UnknownParam { name, param, .. }) => {
            assert_eq!((name.as_str(), param.as_str()), ("killi", "ratio2"));
        }
        other => panic!("expected UnknownParam, got {other:?}"),
    }
    match registry.validate(&SchemeConfig::new("killi").with("ratio", ParamValue::Bool(true))) {
        Err(BuildError::InvalidParam { name, param, .. }) => {
            assert_eq!((name.as_str(), param.as_str()), ("killi", "ratio"));
        }
        other => panic!("expected InvalidParam, got {other:?}"),
    }
}

#[test]
fn malformed_inputs_are_parse_errors() {
    for bad in [
        "",            // no name at all
        ":ratio=4",    // empty name
        "killi:ratio", // param with no value
        "killi:=4",    // param with no key
    ] {
        assert!(
            matches!(SchemeConfig::parse(bad), Err(BuildError::Parse { .. })),
            "{bad:?} should be a parse error"
        );
    }
    for bad in [
        "not json",
        "{\"params\": {}}",       // missing name
        "{\"name\": 7}",          // non-string name
        "[{\"name\": \"killi\"}", // truncated array
    ] {
        let single = SchemeConfig::from_json(bad);
        let list = SchemeRegistry::list_from_json(bad);
        assert!(
            matches!(single, Err(BuildError::Parse { .. }))
                && matches!(list, Err(BuildError::Parse { .. })),
            "{bad:?} should be a parse error, got {single:?} / {list:?}"
        );
    }
}

#[test]
fn canonicalization_is_spelling_invariant() {
    // The cache-key property the service leans on: any spelling of the
    // same scheme — shorthand, JSON, reordered overrides, defaults
    // spelled explicitly — must canonicalize to byte-identical JSON.
    let registry = default_registry();
    killi_check::check("registry_canonicalization", |g| {
        let names = registry.names();
        let name = *g.pick(&names);
        let descriptor = registry.descriptor(name).expect("listed name resolves");

        // A random subset of the declared params with fresh values of
        // the declared type.
        let mut overrides: Vec<(&str, ParamValue)> = Vec::new();
        for spec in &descriptor.params {
            if !g.bool() {
                continue;
            }
            let value = match spec.default {
                ParamValue::U64(_) => ParamValue::U64(g.u64_below(64) + 1),
                ParamValue::Bool(_) => ParamValue::Bool(g.bool()),
                ParamValue::F64(_) => ParamValue::F64(g.f64_in(0.0, 4.0)),
                ParamValue::Str(_) => ParamValue::Str(format!("s{}", g.u64_below(8))),
            };
            overrides.push((spec.name, value));
        }

        // Spelling 1: programmatic, declaration order.
        let mut forward = SchemeConfig::new(name);
        for (k, v) in &overrides {
            forward = forward.with(k, v.clone());
        }
        // Spelling 2: programmatic, reversed order.
        let mut reversed = SchemeConfig::new(name);
        for (k, v) in overrides.iter().rev() {
            reversed = reversed.with(k, v.clone());
        }
        // Spelling 3: CLI shorthand (all generated values spell cleanly).
        let shorthand_text = if overrides.is_empty() {
            name.to_string()
        } else {
            format!(
                "{name}:{}",
                overrides
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        let shorthand = SchemeConfig::parse(&shorthand_text).expect("shorthand parses");
        // Spelling 4: JSON round-trip of the forward spelling.
        let json = SchemeConfig::from_json(&forward.to_json()).expect("JSON parses");
        // Spelling 5: every remaining default spelled explicitly.
        let mut explicit = forward.clone();
        for spec in &descriptor.params {
            if explicit.get(spec.name).is_none() {
                explicit = explicit.with(spec.name, spec.default.clone());
            }
        }

        let canon = registry.canonical_json(&forward).expect("canonicalizes");
        for (label, spelling) in [
            ("reversed", &reversed),
            ("shorthand", &shorthand),
            ("json", &json),
            ("explicit-defaults", &explicit),
        ] {
            assert_eq!(
                registry.canonical_json(spelling).expect("canonicalizes"),
                canon,
                "{label} spelling of {shorthand_text} diverged"
            );
        }

        // And the canonical form is a fixed point that still resolves
        // to the same report label.
        let canonical = registry.canonicalize(&forward).expect("canonicalizes");
        assert_eq!(registry.canonicalize(&canonical).unwrap(), canonical);
        assert_eq!(
            registry.label(&canonical).unwrap(),
            registry.label(&forward).unwrap()
        );
    });
}

#[test]
fn every_registered_scheme_builds_from_its_default_config() {
    let registry = default_registry();
    let ctx = ctx();
    for name in registry.names() {
        let config = SchemeConfig::new(name);
        registry
            .build(&config, &ctx)
            .unwrap_or_else(|e| panic!("{name} failed to build from defaults: {e}"));
    }
}

/// Every byte the two registries put on the wire, pinned to literals:
/// the canonical JSON of each registered scheme and fault model (at its
/// defaults and with one override), the service job ids those spellings
/// hash into, and the message of every typed build error. Job ids are
/// content hashes of canonical JSON, so a drift in any canonical
/// spelling would silently split the `killi serve` result cache.
#[test]
fn canonical_spellings_job_ids_and_error_messages_are_pinned() {
    use killi_repro::bench::fault_models::{default_fault_registry, FaultModelConfig};
    use killi_repro::obs::serve::format_job_id;
    use killi_repro::serve::{job_id_for, parse_job_spec};

    let mut out = String::new();
    let schemes = default_registry();
    for d in schemes.descriptors() {
        let mut configs = vec![SchemeConfig::new(d.name)];
        // One override per scheme: its first parameter, moved off the default.
        if let Some(p) = d.params.first() {
            let value = match &p.default {
                ParamValue::U64(v) => ParamValue::U64(v + 1),
                ParamValue::Bool(b) => ParamValue::Bool(!b),
                other => panic!("unexpected scheme parameter type {other:?}"),
            };
            configs.push(SchemeConfig::new(d.name).with(p.name, value));
        }
        for config in configs {
            let canon = schemes.canonical_json(&config).unwrap();
            out.push_str(&format!("scheme {config} => {canon}\n"));
        }
    }
    let models = default_fault_registry();
    let overrides = [
        "clustered:rows=8",
        "transient:mode=burst",
        "table:sigma=1.5",
    ];
    for config in models.names().into_iter().map(FaultModelConfig::new).chain(
        overrides
            .iter()
            .map(|s| FaultModelConfig::parse(s).unwrap()),
    ) {
        let canon = models.canonical_json(&config).unwrap();
        out.push_str(&format!("model {config} => {canon}\n"));
    }
    // The `table:file=` hook folds a file's contents into inline anchors.
    let dir = std::env::temp_dir().join("killi_registry_pin");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cdf.csv");
    std::fs::write(&path, "0.5,-0.3\n0.6,-4.19\n0.7,-9.5\n").unwrap();
    let from_file = FaultModelConfig::new("table")
        .with("file", ParamValue::Str(path.to_str().unwrap().to_string()));
    let canon = models.canonical_json(&from_file).unwrap();
    out.push_str(&format!("model table:file=<tmp> => {canon}\n"));

    let golden_sweep = include_str!("golden/service_job.json");
    let vmin = r#"{"mode": "vmin", "root_seed": 7, "dies": 16, "lines": 256,
        "vdds": [0.7, 0.65, 0.6], "schemes": ["killi:ratio=16", {"name": "flair"}],
        "target": 0.95, "fault_model": "clustered:corr=0.5"}"#;
    for (what, payload) in [("sweep", golden_sweep), ("vmin", vmin)] {
        let spec = parse_job_spec(payload.as_bytes()).unwrap();
        out.push_str(&format!(
            "job {what} => {}\n",
            format_job_id(job_id_for(&spec))
        ));
    }

    let geo = CacheGeometry {
        size_bytes: 1024 * 64,
        ways: 16,
        line_bytes: 64,
    };
    let small = BuildCtx::new(Arc::new(FaultMap::fault_free(geo.lines())), geo);
    let scheme_errors = [
        SchemeConfig::parse("killi:ratio").unwrap_err(),
        SchemeConfig::parse(":ratio=4").unwrap_err(),
        SchemeConfig::parse("killi:=4").unwrap_err(),
        SchemeConfig::from_json("{\"params\": {}}").unwrap_err(),
        SchemeConfig::from_json("{\"name\": \"killi\", \"params\": [1]}").unwrap_err(),
        SchemeConfig::from_json("{\"name\": \"killi\", \"params\": {\"a\": [1]}}").unwrap_err(),
        SchemeConfig::from_json("not json").unwrap_err(),
        SchemeRegistry::list_from_json("{\"name\": \"killi\"}").unwrap_err(),
        schemes
            .validate(&SchemeConfig::new("frobnicate"))
            .unwrap_err(),
        schemes
            .validate(&SchemeConfig::parse("killi:rato=16").unwrap())
            .unwrap_err(),
        schemes
            .validate(&SchemeConfig::parse("killi:ratio=lots").unwrap())
            .unwrap_err(),
        schemes
            .build(&SchemeConfig::parse("killi:ratio=0").unwrap(), &small)
            .map(|_| ())
            .unwrap_err(),
        schemes
            .build(
                &SchemeConfig::parse("killi:ecc_sets=3,ecc_ways=4").unwrap(),
                &small,
            )
            .map(|_| ())
            .unwrap_err(),
    ];
    for e in scheme_errors {
        out.push_str(&format!("scheme error: {e}\n"));
    }
    let model_errors = [
        FaultModelConfig::parse("clustered:rows").unwrap_err(),
        FaultModelConfig::parse(":rows=4").unwrap_err(),
        FaultModelConfig::from_json("{\"params\": {}}").unwrap_err(),
        FaultModelConfig::from_json("{\"name\": \"table\", \"params\": 3}").unwrap_err(),
        models.validate(&FaultModelConfig::new("nope")).unwrap_err(),
        models
            .validate(&FaultModelConfig::parse("clustered:bogus=1").unwrap())
            .unwrap_err(),
        models
            .validate(&FaultModelConfig::parse("clustered:rows=abc").unwrap())
            .unwrap_err(),
        models
            .build(&FaultModelConfig::parse("transient:mode=gamma").unwrap())
            .map(|_| ())
            .unwrap_err(),
        models
            .build(&FaultModelConfig::new("table").with("anchors", ParamValue::Str(String::new())))
            .map(|_| ())
            .unwrap_err(),
    ];
    for e in model_errors {
        out.push_str(&format!("model error: {e}\n"));
    }

    assert_eq!(out, PINNED, "registry bytes drifted; actual:\n{out}");
}

const PINNED: &str = r#"scheme baseline => {"name": "baseline"}
scheme killi => {"name": "killi", "params": {"ratio": 64, "ecc_sets": 0, "ecc_ways": 4, "check_latency": 1, "victim_priority": true, "eviction_training": true, "coordinated_promotion": true}}
scheme killi:ratio=65 => {"name": "killi", "params": {"ratio": 65, "ecc_sets": 0, "ecc_ways": 4, "check_latency": 1, "victim_priority": true, "eviction_training": true, "coordinated_promotion": true}}
scheme killi-no-victim-prio => {"name": "killi-no-victim-prio", "params": {"ratio": 64, "ecc_sets": 0, "ecc_ways": 4, "check_latency": 1}}
scheme killi-no-victim-prio:ratio=65 => {"name": "killi-no-victim-prio", "params": {"ratio": 65, "ecc_sets": 0, "ecc_ways": 4, "check_latency": 1}}
scheme killi-no-evict-train => {"name": "killi-no-evict-train", "params": {"ratio": 64, "ecc_sets": 0, "ecc_ways": 4, "check_latency": 1}}
scheme killi-no-evict-train:ratio=65 => {"name": "killi-no-evict-train", "params": {"ratio": 65, "ecc_sets": 0, "ecc_ways": 4, "check_latency": 1}}
scheme killi-no-promotion => {"name": "killi-no-promotion", "params": {"ratio": 64, "ecc_sets": 0, "ecc_ways": 4, "check_latency": 1}}
scheme killi-no-promotion:ratio=65 => {"name": "killi-no-promotion", "params": {"ratio": 65, "ecc_sets": 0, "ecc_ways": 4, "check_latency": 1}}
scheme killi-dected => {"name": "killi-dected", "params": {"ratio": 64, "ecc_sets": 0, "ecc_ways": 4, "check_latency": 1}}
scheme killi-dected:ratio=65 => {"name": "killi-dected", "params": {"ratio": 65, "ecc_sets": 0, "ecc_ways": 4, "check_latency": 1}}
scheme killi-invchk => {"name": "killi-invchk", "params": {"ratio": 64, "ecc_sets": 0, "ecc_ways": 4, "check_latency": 1, "penalty": 4}}
scheme killi-invchk:ratio=65 => {"name": "killi-invchk", "params": {"ratio": 65, "ecc_sets": 0, "ecc_ways": 4, "check_latency": 1, "penalty": 4}}
scheme killi-olsc => {"name": "killi-olsc", "params": {"ratio": 8, "ecc_sets": 0, "ecc_ways": 4, "check_latency": 1}}
scheme killi-olsc:ratio=9 => {"name": "killi-olsc", "params": {"ratio": 9, "ecc_sets": 0, "ecc_ways": 4, "check_latency": 1}}
scheme flair => {"name": "flair"}
scheme secded => {"name": "secded"}
scheme dected => {"name": "dected"}
scheme flair-online => {"name": "flair-online", "params": {"accesses_per_pair": 0}}
scheme flair-online:accesses_per_pair=1 => {"name": "flair-online", "params": {"accesses_per_pair": 1}}
scheme ms-ecc => {"name": "ms-ecc", "params": {"m": 8, "t": 2}}
scheme ms-ecc:m=9 => {"name": "ms-ecc", "params": {"m": 9, "t": 2}}
model stuck-at => {"name": "stuck-at"}
model clustered => {"name": "clustered", "params": {"rows": 4, "corr": 0.8, "col_cells": 64, "col_corr": 0.0}}
model transient => {"name": "transient", "params": {"mode": "random", "rate": 0.0001, "burst_len": 4}}
model table => {"name": "table", "params": {"file": "", "anchors": "0.5@-0.3;0.525@-0.6;0.55@-1.2;0.575@-2.12;0.6@-4.19;0.625@-4.7;0.65@-6.8;0.675@-9.0", "sigma": 2.0}}
model clustered:rows=8 => {"name": "clustered", "params": {"rows": 8, "corr": 0.8, "col_cells": 64, "col_corr": 0.0}}
model transient:mode=burst => {"name": "transient", "params": {"mode": "burst", "rate": 0.0001, "burst_len": 4}}
model table:sigma=1.5 => {"name": "table", "params": {"file": "", "anchors": "0.5@-0.3;0.525@-0.6;0.55@-1.2;0.575@-2.12;0.6@-4.19;0.625@-4.7;0.65@-6.8;0.675@-9.0", "sigma": 1.5}}
model table:file=<tmp> => {"name": "table", "params": {"file": "", "anchors": "0.5@-0.3;0.6@-4.19;0.7@-9.5", "sigma": 2.0}}
job sweep => 2e17b7cd10bb36a1fb91c1b8833e1646
job vmin => 9c1e6ab765ec4eb8aec455c23f936f5c
scheme error: cannot parse scheme `killi:ratio`: parameter `ratio` is not key=value
scheme error: cannot parse scheme `:ratio=4`: empty scheme name
scheme error: cannot parse scheme `killi:=4`: empty parameter name
scheme error: cannot parse scheme `<json>`: scheme object needs a string `name`
scheme error: cannot parse scheme `<json>`: `params` must be an object
scheme error: cannot parse scheme `<json>`: parameter `a` must be a number, bool or string
scheme error: cannot parse scheme `<json>`: JSON error at byte 0: expected 'null'
scheme error: cannot parse scheme `<json>`: expected a scheme array or {"schemes": [...]}
scheme error: unknown scheme `frobnicate`
scheme error: scheme `killi` has no parameter `rato`
scheme error: invalid `killi` parameter `ratio`: expected an unsigned integer (default 64), got `lots`
scheme error: cannot build `killi`: ratio must be positive
scheme error: cannot build `killi`: ecc_sets=3 x ecc_ways=4 does not divide 1024 L2 lines
model error: cannot parse fault model `clustered:rows`: parameter `rows` is not key=value
model error: cannot parse fault model `:rows=4`: empty fault-model name
model error: cannot parse fault model `<json>`: fault-model object needs a string `name`
model error: cannot parse fault model `<json>`: `params` must be an object
model error: unknown fault model `nope`
model error: fault model `clustered` has no parameter `bogus`
model error: invalid `clustered` parameter `rows`: expected an unsigned integer (default 4), got `abc`
model error: invalid `transient` parameter `mode`: `gamma` is not one of random, burst, msb
model error: cannot build fault model `table`: need at least two anchors
"#;
