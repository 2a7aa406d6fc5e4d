//! Specs written for the removed region-sharded engine still load.
//!
//! Scenario specs used to carry `"execution": {"shards": N, ...}` and
//! scenario configs an `"execution"` entry naming the engine. Its runs
//! were bit-identical to single-threaded ones, so such inputs map
//! onto the single-threaded loop: the unknown fields are ignored and the
//! report equals the one of the same input without them. Only a
//! campaign axis sweeping `execution.shards` is rejected, since it would
//! sweep nothing.

use pcmac::{RunReport, ScenarioConfig, Simulator};
use pcmac_campaign::{Axis, CampaignSpec, ExecutionSpec, ScenarioSpec};
use serde::Value;

/// The report as JSON, minus the wall clock.
fn fingerprint(r: &RunReport) -> String {
    let mut r = r.clone();
    r.wall_s = 0.0;
    serde_json::to_string(&r).expect("reports serialize")
}

/// The paper scenario, shortened, with a 10 µs delay floor.
fn floored_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper();
    spec.name = "legacy-execution".into();
    spec.duration_s = 3.0;
    spec.execution = Some(ExecutionSpec {
        delay_floor_us: Some(10.0),
    });
    spec
}

/// `json` with `key: value` added to the map found at `path`.
fn with_entry(json: &str, path: &[&str], key: &str, value: Value) -> String {
    let mut v: Value = serde_json::from_str(json).expect("valid JSON");
    let mut at = &mut v;
    for p in path {
        let Value::Map(entries) = at else {
            panic!("{p}: not a map")
        };
        at = &mut entries
            .iter_mut()
            .find(|(k, _)| k == p)
            .unwrap_or_else(|| panic!("{p}: missing"))
            .1;
    }
    let Value::Map(entries) = at else {
        panic!("target is not a map")
    };
    entries.push((key.into(), value));
    serde_json::to_string(&v).expect("serializes")
}

#[test]
fn sharded_specs_and_configs_run_single_threaded_with_identical_results() {
    let spec = floored_spec();
    let reference = Simulator::new(spec.materialize(1).expect("materializes")).run();
    assert!(
        reference.delivered_packets > 0,
        "the comparison needs traffic to be meaningful"
    );

    let legacy = with_entry(&spec.to_json(), &["execution"], "shards", Value::U64(4));
    assert!(legacy.contains("\"shards\""));
    let loaded = ScenarioSpec::from_json(&legacy).expect("legacy spec loads");
    assert_eq!(loaded, spec, "the shards field is dropped on load");
    loaded.validate().expect("legacy spec validates");
    let run = Simulator::new(loaded.materialize(1).expect("materializes")).run();
    assert_eq!(fingerprint(&run), fingerprint(&reference));

    let cfg_json = spec.materialize(1).expect("materializes").to_json();
    let engine = Value::Map(vec![("shards".into(), Value::U64(4))]);
    let legacy_cfg = with_entry(&cfg_json, &[], "execution", engine);
    let cfg = ScenarioConfig::from_json(&legacy_cfg).expect("legacy config loads");
    let run = Simulator::new(cfg).run();
    assert_eq!(fingerprint(&run), fingerprint(&reference));
}

#[test]
fn a_shards_axis_is_an_unknown_patch_path() {
    let campaign = CampaignSpec {
        name: "legacy-shards-axis".into(),
        base: floored_spec(),
        duration_s: None,
        seeds: vec![1],
        axes: None,
        sweep: Some(vec![Axis::Patch {
            path: "execution.shards".into(),
            values: vec![Value::U64(1), Value::U64(4)],
        }]),
    };
    let err = campaign.validate().expect_err("shards axis is rejected");
    assert!(
        err.problems
            .iter()
            .any(|p| p.contains("unknown patch path `execution.shards`")
                && p.contains("execution.delay_floor_us")),
        "{:?}",
        err.problems
    );
}
