//! Every workload at smoke size, untraced and traced, through the
//! built binary — the way the benchmark's driver runs it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use xrd_perf::json::Json;
use xrd_perf::spec;

const EXE: &str = env!("CARGO_BIN_EXE_xrd-perf");

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// Run the binary; return its exit status and the result object on the
/// last line of its standard output.
fn run(args: &[&str]) -> (bool, Json) {
    let out = Command::new(EXE).args(args).output().expect("binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output from {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (
        out.status.success(),
        Json::parse(last).expect("result line parses"),
    )
}

fn smoke(workload: &str, seed: &str, trace: &str) -> Json {
    let (ok, result) = run(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ]);
    assert!(ok, "{workload} trace {trace} exited non-zero");
    result
}

fn values(result: &Json) -> BTreeMap<String, f64> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            (name.clone(), value)
        })
        .collect()
}

#[test]
fn spec_matches_benchmark_json() {
    let doc = benchmark_json();
    for (key, specs) in [
        ("end_to_end", spec::END_TO_END),
        ("per_layer", spec::PER_LAYER),
    ] {
        let listed = doc.get(key).and_then(Json::as_arr).expect(key);
        assert_eq!(listed.len(), specs.len(), "{key} count");
        for (entry, m) in listed.iter().zip(specs) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.better.word()),
                "{}",
                m.name
            );
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (entry, w) in workloads.iter().zip(spec::WORKLOADS) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(w.name));
        assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
    assert!(spec::END_TO_END.iter().any(|m| m.name == "setup_s"));
}

#[test]
fn every_workload_emits_every_named_metric() {
    let doc = benchmark_json();
    for w in spec::WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = smoke(w.name, "7", trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(metrics.len(), listed.len(), "{} {key}", w.name);
            for entry in listed {
                let name = entry.get("name").and_then(Json::as_str).unwrap();
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{} does not emit {name}", w.name));
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{}: {name} = {value:?}",
                    w.name
                );
                assert_eq!(m.get("unit"), entry.get("unit"), "{name}");
                if key == "end_to_end" {
                    assert!(value.unwrap() > 0.0, "{}: {name} is 0", w.name);
                }
            }
        }
    }
}

#[test]
fn same_seed_same_counts() {
    for (workload, trace, counts) in [
        ("round_tcp", "0", &["bytes_per_msg"][..]),
        ("round_tcp_small", "0", &["bytes_per_msg"][..]),
        (
            "round_tcp",
            "1",
            &[
                "mixnet.client.sealed",
                "mixnet.server.entries",
                "net.swarm.connections",
                "net.reactor.accepts",
                "net.reactor.frames_in",
                "net.reactor.bytes_in",
                "net.reactor.bytes_out",
                "net.codec.submit_frame_bytes",
            ][..],
        ),
        (
            "mailbox_persist",
            "1",
            &[
                "net.reactor.accepts",
                "net.reactor.frames_in",
                "net.reactor.bytes_in",
                "net.reactor.bytes_out",
                "core.mailbox.log_flushes",
                "core.mailbox.log_bytes_per_entry",
            ][..],
        ),
    ] {
        let (first, second) = (
            values(&smoke(workload, "11", trace)),
            values(&smoke(workload, "11", trace)),
        );
        for name in counts {
            assert!(first[*name] > 0.0, "{workload}: {name} is 0");
            assert_eq!(first[*name], second[*name], "{workload}: {name}");
        }
    }
}

#[test]
fn trace_out_is_chrome_trace_json() {
    let dir = PathBuf::from(EXE).parent().unwrap().join("xrd-perf-tmp");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("smoke-trace-{}.json", std::process::id()));
    let (ok, _) = run(&[
        "--workload",
        "round_tcp_small",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--smoke",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert!(ok);
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let named = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .count()
    };
    // Two measured rounds, six chains mixing in each.
    assert_eq!(named("round"), 2);
    assert_eq!(named("net.coordinator.mix"), 12);
    assert!(events.iter().all(|e| {
        e.get("ph").and_then(Json::as_str) == Some("X")
            && e.get("dur").and_then(Json::as_f64).is_some()
            && e.get("args").and_then(|a| a.get("round")).is_some()
    }));
    std::fs::remove_file(path).unwrap();
}

#[test]
fn compare_passes_a_set_against_itself_and_fails_a_slower_one() {
    let dir = PathBuf::from(EXE).parent().unwrap().join("xrd-perf-tmp");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join(format!("smoke-a-{}.json", std::process::id()));
    let b = dir.join(format!("smoke-b-{}.json", std::process::id()));
    let status = Command::new(EXE)
        .args(["all", "--smoke", "--runs", "2", "--trace", "0", "--out"])
        .arg(&a)
        .output()
        .expect("all runs");
    assert!(status.status.success());
    let text = std::fs::read_to_string(&a).unwrap();
    let doc = Json::parse(&text).unwrap();
    assert_eq!(
        doc.get("runs").and_then(Json::as_arr).map(<[Json]>::len),
        Some(2 * spec::WORKLOADS.len())
    );
    for key in [
        "commit",
        "nproc",
        "cpu_model",
        "rustc",
        "field_backend",
        "tmp_fs",
        "seed",
        "network",
    ] {
        assert!(
            doc.get("env").and_then(|e| e.get(key)).is_some(),
            "env.{key}"
        );
    }

    let benchmark = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let compare = |b: &PathBuf| {
        Command::new(EXE)
            .arg("compare")
            .arg(&a)
            .arg(b)
            .arg("--benchmark")
            .arg(&benchmark)
            .output()
            .expect("compare runs")
    };
    let same = compare(&a);
    let table = String::from_utf8_lossy(&same.stdout).to_string();
    assert!(same.status.success(), "{table}");
    assert!(table.contains("round_tcp_small") && table.contains("fail_share"));

    // Byte counts repeat exactly, so doubling them is `worse` whatever
    // the timing noise of a two-round smoke run.
    fn double_bytes(doc: &mut Json) {
        match doc {
            Json::Obj(map) => {
                if let Some(Json::Obj(metric)) = map.get_mut("bytes_per_msg") {
                    let value = metric["value"].as_f64().unwrap();
                    metric.insert("value".into(), Json::Num(2.0 * value));
                }
                map.values_mut().for_each(double_bytes);
            }
            Json::Arr(items) => items.iter_mut().for_each(double_bytes),
            _ => {}
        }
    }
    let mut slower = doc;
    double_bytes(&mut slower);
    std::fs::write(&b, slower.render()).unwrap();
    let worse = compare(&b);
    assert!(!worse.status.success());
    assert!(String::from_utf8_lossy(&worse.stdout).contains("worse"));
    std::fs::remove_file(a).unwrap();
    std::fs::remove_file(b).unwrap();
}
