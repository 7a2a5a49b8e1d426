//! Multi-tenant determinism: N tenants fed interleaved chunks in
//! shuffled arrival orders produce per-tenant outputs byte-identical
//! to single-tenant runs.

mod common;

use common::{recorded_run, RecordedRun, TestDaemon};
use paddaemon::client::{http_get, send, Conn, SendJob};
use std::io::{BufRead, BufReader, Write};

/// Deterministic xorshift shuffle — arrival order varies by seed but
/// is reproducible in a failing run.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        items.swap(i, (seed as usize) % (i + 1));
    }
}

/// Streams every tenant's trace as interleaved chunks over persistent
/// connections, arrival order shuffled by `order_seed`, and returns
/// each tenant's summary reply.
fn stream_interleaved(
    daemon: &TestDaemon,
    runs: &[(&str, &RecordedRun)],
    chunk_lines: usize,
    order_seed: u64,
) -> Vec<String> {
    let mut conns: Vec<Conn> = Vec::new();
    let mut queues: Vec<Vec<String>> = Vec::new();
    for (tenant, run) in runs {
        let mut conn = Conn::connect(&daemon.data_addr).unwrap();
        writeln!(conn, "hello {tenant} jsonl").unwrap();
        conns.push(conn);
        let lines: Vec<&str> = run.telemetry.lines().chain(run.spans.lines()).collect();
        let chunks: Vec<String> = lines
            .chunks(chunk_lines)
            .map(|chunk| {
                let mut text = chunk.join("\n");
                text.push('\n');
                text
            })
            .collect();
        queues.push(chunks);
    }
    // Arrival schedule: every (tenant, chunk-index) pair, shuffled, but
    // per-tenant order preserved by indexing chunks sequentially.
    let mut schedule: Vec<usize> = queues
        .iter()
        .enumerate()
        .flat_map(|(t, chunks)| std::iter::repeat_n(t, chunks.len()))
        .collect();
    shuffle(&mut schedule, order_seed);
    let mut next: Vec<usize> = vec![0; queues.len()];
    for t in schedule {
        conns[t].write_all(queues[t][next[t]].as_bytes()).unwrap();
        next[t] += 1;
    }
    let mut summaries = Vec::new();
    for (t, mut conn) in conns.into_iter().enumerate() {
        writeln!(conn, "end").unwrap();
        conn.flush().unwrap();
        conn.finish_writes().unwrap();
        let mut reader = BufReader::new(conn);
        let mut hello = String::new();
        reader.read_line(&mut hello).unwrap();
        assert!(hello.starts_with("ok hello "), "tenant {t}: {hello:?}");
        let mut summary = String::new();
        reader.read_line(&mut summary).unwrap();
        summaries.push(summary);
    }
    summaries
}

#[test]
fn interleaved_shuffled_tenants_match_single_tenant_outputs() {
    let runs = [
        ("alpha", recorded_run(0xD0_1D)),
        ("beta", recorded_run(0xBEEF)),
        ("gamma", recorded_run(0xCAFE)),
    ];
    let named: Vec<(&str, &RecordedRun)> = runs.iter().map(|(n, r)| (*n, r)).collect();

    let daemon = TestDaemon::start("multitenant");
    let summaries = stream_interleaved(&daemon, &named, 64, 0x5EED);
    for ((tenant, run), summary) in runs.iter().zip(&summaries) {
        assert_eq!(
            summary, &run.summary_json,
            "{tenant}: interleaved summary diverged from the offline run"
        );
    }
    // Incident reports survive the interleaving too.
    for (tenant, run) in &runs {
        let (_, incidents) =
            http_get(&daemon.http_addr, &format!("/tenants/{tenant}/incidents")).unwrap();
        assert_eq!(&incidents, &run.incidents_json, "{tenant} incidents");
    }
    daemon.shutdown();
}

#[test]
fn arrival_order_does_not_change_any_tenant_output() {
    let runs = [
        ("alpha", recorded_run(0xD0_1D)),
        ("beta", recorded_run(0xBEEF)),
    ];
    let named: Vec<(&str, &RecordedRun)> = runs.iter().map(|(n, r)| (*n, r)).collect();
    let mut per_order = Vec::new();
    for order_seed in [1u64, 0xFEED_FACE] {
        let daemon = TestDaemon::start("ordering");
        // Different chunk sizes AND different shuffles per run.
        let chunk = if order_seed == 1 { 17 } else { 101 };
        per_order.push(stream_interleaved(&daemon, &named, chunk, order_seed));
        daemon.shutdown();
    }
    assert_eq!(
        per_order[0], per_order[1],
        "arrival order or chunking leaked into tenant outputs"
    );
    assert_eq!(per_order[0][0], runs[0].1.summary_json);
    assert_eq!(per_order[0][1], runs[1].1.summary_json);
}

/// A metric name outside the wire charset costs its tenant one parse
/// error and nothing else: it never becomes a series, so every label
/// value in the merged `/metrics` exposition stays quote-free, and the
/// other tenant's series read the same before and after.
#[test]
fn off_charset_metric_name_is_one_parse_error_of_its_tenant() {
    let daemon = TestDaemon::start("badname");
    let good = "{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\n\
                {\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":101}\n";
    let stream = |tenant: &str, telemetry: String| {
        let job = SendJob {
            tenant: tenant.to_string(),
            format: "jsonl",
            telemetry,
            end: true,
            ..SendJob::default()
        };
        send(&daemon.data_addr, &job).unwrap();
        http_get(&daemon.http_addr, "/metrics").unwrap().1
    };
    // The tenant's `pad_*` series, with its label replaced so two
    // tenants' series compare directly.
    let series = |metrics: &str, tenant: &str| -> Vec<String> {
        let label = format!("tenant=\"{tenant}\"");
        metrics
            .lines()
            .filter(|l| l.starts_with("pad_") && l.contains(&label))
            .map(|l| l.replace(&label, "tenant=\"T\""))
            .collect()
    };

    let before = stream("clean", good.to_string());
    let after = stream(
        "hostile",
        format!("{good}{{\"t\":100,\"m\":\"a\\\"b\",\"v\":2}}\n"),
    );

    assert!(after.contains("padsimd_tenant_parse_errors_total{tenant=\"hostile\"} 1\n"));
    assert!(after.contains("padsimd_tenant_parse_errors_total{tenant=\"clean\"} 0\n"));
    for line in after.lines().filter(|l| !l.starts_with('#')) {
        let Some((_, rest)) = line.split_once('{') else {
            continue;
        };
        let block = &rest[..rest.rfind('}').expect("closed label block")];
        assert_eq!(
            block.matches('"').count(),
            2 * block.split(',').count(),
            "a label value carries a quote: {line}"
        );
    }
    let clean = series(&before, "clean");
    assert!(!clean.is_empty());
    assert_eq!(
        series(&after, "clean"),
        clean,
        "the clean tenant's series moved"
    );
    assert_eq!(
        series(&after, "hostile"),
        clean,
        "the bad line left a series"
    );
    daemon.shutdown();
}
