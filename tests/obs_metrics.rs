//! `Op::Metrics` end-to-end: scraping a live server over loopback TCP
//! returns the *same* snapshot the process would read locally from
//! `lds::obs::global()`.
//!
//! This equality is exact by design: the net layer deliberately
//! excludes the metrics op from its own instrumentation (no byte
//! counters, no latency record, no trace events), so serving the
//! scrape does not perturb the registry being scraped. The only
//! asynchrony left is the engine pool's worker bookkeeping (a worker
//! bumps `pool_parks` *after* `run_batch` returns, on its way back to
//! blocking), so the comparison retries briefly until the process
//! quiesces instead of demanding instant agreement.

use std::thread;
use std::time::Duration;

use lds::engine::{ModelSpec, Task, Topology};
use lds::graph::generators;
use lds::net::{Client, EngineSpec, NetServer};
use lds::obs::MetricsSnapshot;

fn hardcore_spec(n: usize) -> EngineSpec {
    EngineSpec::new(
        ModelSpec::Hardcore { lambda: 1.0 },
        Topology::Graph(generators::cycle(n)),
    )
}

/// Take the local snapshot and the wire snapshot until they agree
/// (the wire one second, so a quiesced process cannot race it).
fn converged_snapshots(client: &mut Client) -> (MetricsSnapshot, MetricsSnapshot) {
    let mut last = None;
    for _ in 0..20 {
        let local = lds::obs::global().snapshot();
        let wire = client.metrics().expect("metrics scrape");
        if local == wire {
            return (local, wire);
        }
        last = Some((local, wire));
        thread::sleep(Duration::from_millis(100));
    }
    last.expect("at least one attempt")
}

#[test]
fn wire_metrics_snapshot_matches_the_local_registry() {
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // drive real traffic through every layer so the registry is not
    // trivially empty: register, run a few tasks, ping
    let fp = client.register(&hardcore_spec(10)).unwrap();
    for seed in 0..4u64 {
        client.run(fp, Task::SampleExact, seed).unwrap();
    }
    client.run(fp, Task::Count, 0).unwrap();
    client.ping().unwrap();

    let (local, wire) = converged_snapshots(&mut client);
    assert_eq!(
        local, wire,
        "wire scrape must decode to the same snapshot the process reads locally"
    );
    assert_eq!(
        local.render_text(),
        wire.render_text(),
        "text exposition must agree too"
    );

    // the snapshot actually covers the instrumented layers
    for counter in ["serve_submitted", "net_bytes_in", "net_bytes_out"] {
        assert!(
            wire.counter(counter).is_some_and(|v| v > 0),
            "expected live counter {counter} in {wire:?}"
        );
    }
    for histogram in ["serve_request_latency_ns", "net_op_run_ns"] {
        let h = wire
            .histogram(histogram)
            .unwrap_or_else(|| panic!("expected histogram {histogram}"));
        assert!(h.count > 0, "{histogram} never recorded");
        assert!(h.max >= 1, "{histogram} recorded zero-duration ops only");
    }
    // five runs went through the run op; ping is its own histogram
    assert!(wire.histogram("net_op_run_ns").unwrap().count >= 5);
    assert!(wire.histogram("net_op_ping_ns").unwrap().count >= 1);

    // the tenant engine's SAW-oracle memo: queries, hits and computed
    // stop depths are live; evictions and budget exhaustions are
    // registered even while they read 0
    for counter in ["oracle_queries", "oracle_memo_hits"] {
        assert!(
            wire.counter(counter).is_some_and(|v| v > 0),
            "expected live counter {counter}"
        );
    }
    for counter in ["oracle_memo_evictions", "oracle_budget_exhausted"] {
        assert!(
            wire.counter(counter).is_some(),
            "expected counter {counter}"
        );
    }
    assert!(wire.gauge("oracle_memo_entries").is_some_and(|v| v > 0));
    assert!(wire.histogram("oracle_stop_depth").unwrap().count > 0);

    drop(client);
    server.shutdown();
}
