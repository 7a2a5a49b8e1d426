//! Shared daemon state: the tenant registry, self-metrics counters,
//! wall-clock ops histograms, the bounded ops log, per-tenant alert
//! monitors, and the crash-recovery checkpoint codec.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use pad::pipeline::{
    self, default_alert_rules, PipelineConfig, ReplayPipeline, ReplaySummary, StreamMonitor,
};
use pad::policy::SecurityLevel;
use simkit::alert::{AlertEvent, AlertRule};
use simkit::jsonio::{JsonParser, ObjFields};
use simkit::ring::BoundedRing;
use simkit::telemetry::{
    parse_line, render_parsed, Format, MetricId, MetricRegistry, ParsedRecord, TelemetryReport,
    CSV_HEADER,
};
use simkit::trace::{parse_span_line, render_parsed_spans, ParsedSpan, SPAN_CSV_HEADER};

/// Monotonic daemon self-metrics, exported on `/metrics` as
/// `padsimd_*` counters.
#[derive(Debug, Default)]
pub struct Counters {
    /// Sessions opened (`hello` accepted).
    pub sessions_opened: AtomicU64,
    /// Sessions closed (`end`, EOF, or drain).
    pub sessions_closed: AtomicU64,
    /// Stream connections currently inside their read loop (a gauge:
    /// bumped on connect, dropped on return).
    pub active_sessions: AtomicU64,
    /// Telemetry records accepted across all tenants.
    pub records: AtomicU64,
    /// Span lines accepted across all tenants.
    pub spans: AtomicU64,
    /// Malformed wire lines (codec or protocol) that were skipped.
    pub parse_errors: AtomicU64,
    /// HTTP requests served.
    pub http_requests: AtomicU64,
    /// HTTP responses with a 2xx status.
    pub http_2xx: AtomicU64,
    /// HTTP responses with a 4xx status.
    pub http_4xx: AtomicU64,
    /// HTTP responses with a 5xx status.
    pub http_5xx: AtomicU64,
    /// Tenant base checkpoints written to the state directory (full
    /// document rewrites: first tick of a stream, boot compaction).
    pub checkpoints_written: AtomicU64,
    /// Delta frames appended to tenant checkpoint journals (the
    /// per-tick durability path; see
    /// [`DaemonState::append_checkpoint_frame`]).
    pub checkpoint_frames: AtomicU64,
    /// Data lines shed by per-tenant backpressure (never ingested and
    /// never acknowledged via the resume sequence, so a resuming client
    /// retransmits them).
    pub lines_shed: AtomicU64,
    /// Sessions closed by the idle-reap timeout.
    pub sessions_reaped: AtomicU64,
    /// Tenants currently over their buffered-line high watermark (a
    /// gauge: bumped on crossing, dropped when a fresh `hello` resets
    /// the stream).
    pub overloaded_tenants: AtomicU64,
}

impl Counters {
    /// Adds one to a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one from a gauge-style counter.
    pub fn drop_one(counter: &AtomicU64) {
        counter.fetch_sub(1, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Daemon-wide wall-clock histograms: ingest poll latency/batch sizes
/// and HTTP request latency. These are `/metrics`-only observability —
/// wall times never feed the alert engine, whose documents must stay a
/// pure function of the recorded stream.
#[derive(Debug)]
pub struct OpsMetrics {
    reg: MetricRegistry,
    ingest_latency: MetricId,
    poll_lines: MetricId,
    poll_records: MetricId,
    http_seconds: MetricId,
}

impl OpsMetrics {
    fn new() -> Self {
        let mut reg = MetricRegistry::new();
        let ingest_latency = reg.register_histogram("ingest.latency_seconds", 0.0, 0.25, 50);
        let poll_lines = reg.register_histogram("ingest.poll_lines", 0.0, 50_000.0, 50);
        let poll_records = reg.register_histogram("ingest.poll_records", 0.0, 50_000.0, 50);
        let http_seconds = reg.register_histogram("http.request_seconds", 0.0, 0.25, 50);
        OpsMetrics {
            reg,
            ingest_latency,
            poll_lines,
            poll_records,
            http_seconds,
        }
    }

    /// Records one wire poll: wall seconds spent inside the read loop
    /// between blocking waits, lines handled, records accepted.
    pub fn observe_poll(&mut self, seconds: f64, lines: u64, records: u64) {
        self.reg.observe(self.ingest_latency, seconds);
        self.reg.observe(self.poll_lines, lines as f64);
        self.reg.observe(self.poll_records, records as f64);
    }

    /// Records one HTTP exchange's wall seconds.
    pub fn observe_http(&mut self, seconds: f64) {
        self.reg.observe(self.http_seconds, seconds);
    }

    /// The registry, for `/metrics` rendering under `padsimd_`.
    pub fn registry(&self) -> &MetricRegistry {
        &self.reg
    }
}

/// One structured ops-log entry. No wall-clock timestamp on purpose:
/// the `seq` orders entries, and keeping timestamps out keeps replayed
/// logs diffable.
#[derive(Debug, Clone)]
pub struct OpsEntry {
    /// Monotonic sequence number (survives ring eviction).
    pub seq: u64,
    /// Event kind (`session_open`, `alert_fired`, `ready`, ...).
    pub kind: &'static str,
    /// Tenant the event concerns, empty for daemon-wide events.
    pub tenant: String,
    /// Free-form detail over the wire-safe charset (no escaping).
    pub detail: String,
}

/// Bounded ring of [`OpsEntry`]s: keeps the newest `cap` entries and
/// counts evictions, so `/logs` is always a cheap, bounded read.
#[derive(Debug)]
pub struct OpsLog {
    entries: BoundedRing<OpsEntry>,
    next_seq: u64,
}

/// Entries the ops-log ring retains before evicting the oldest.
pub const OPS_LOG_CAP: usize = 1024;

impl OpsLog {
    fn new(cap: usize) -> Self {
        OpsLog {
            entries: BoundedRing::new(cap),
            next_seq: 0,
        }
    }

    fn push(&mut self, kind: &'static str, tenant: &str, detail: &str) {
        // The entries render as JSON without escaping, so any byte that
        // would need an escape is squashed to keep `/logs` well-formed
        // whatever an error message drags in.
        let detail = detail
            .chars()
            .map(|c| match c {
                '"' | '\\' => '\'',
                c if c.is_control() => ' ',
                c => c,
            })
            .collect();
        self.entries.push(OpsEntry {
            seq: self.next_seq,
            kind,
            tenant: tenant.to_string(),
            detail,
        });
        self.next_seq += 1;
    }

    /// Oldest-retained-first JSONL, one entry per line (`/logs`).
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.entries.iter() {
            out.push_str(&format!(
                "{{\"seq\":{},\"kind\":\"{}\",\"tenant\":\"{}\",\"detail\":\"{}\"}}\n",
                e.seq, e.kind, e.tenant, e.detail
            ));
        }
        out
    }

    /// The same entries as one JSON array (for `daemon_report.json`).
    pub fn render_json_array(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"kind\":\"{}\",\"tenant\":\"{}\",\"detail\":\"{}\"}}",
                e.seq, e.kind, e.tenant, e.detail
            ));
        }
        out.push(']');
        out
    }

    /// Entries evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.entries.evicted()
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been logged (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One tenant's accumulated stream state.
///
/// The detector/policy pipeline is created lazily at the first tick
/// boundary, once the first tick's records have named every rack —
/// mirroring the offline CLI's whole-file rack inference (every rack
/// emits its draw gauge every tick, so the first tick already names
/// them all).
#[derive(Debug)]
pub struct Tenant {
    /// The tenant's wire name.
    pub name: String,
    /// Wire format of the tenant's data lines.
    pub format: Format,
    /// Every accepted telemetry record, in arrival order, each with its
    /// own copy of its name. Private: the scrape digest and the
    /// checkpoint caches each cover a prefix of it, so only the
    /// tenant's own methods may write it.
    records: Vec<ParsedRecord<'static>>,
    /// Every accepted span line, in arrival order.
    pub spans: Vec<ParsedSpan>,
    /// Records of the still-open first tick, before racks are known.
    pending: Vec<ParsedRecord<'static>>,
    /// The live pipeline, once racks are known.
    pipeline: Option<ReplayPipeline>,
    /// The finished summary, once the stream has ended.
    pub summary: Option<ReplaySummary>,
    /// Malformed lines charged to this tenant.
    pub parse_errors: u64,
    /// Sessions this tenant has opened.
    pub sessions: u64,
    /// Stream sequence number: data lines consumed since the stream
    /// opened (records, spans, and malformed lines alike — the resume
    /// protocol's unit is the client's data line). Reset with the
    /// stream; shed lines do NOT advance it.
    pub seq: u64,
    /// Data lines shed by backpressure, lifetime tally (like
    /// [`parse_errors`](Tenant::parse_errors), survives stream resets).
    pub shed: u64,
    /// Whether the tenant is currently over its buffered-line high
    /// watermark (edge-tracked so the overloaded-tenants gauge and the
    /// ops log see each crossing once).
    pub overloaded: bool,
    /// Fencing token: bumped every time a session attaches (hello or
    /// resume). A session that attached under an older generation is
    /// stale — its socket may still be draining buffered lines after a
    /// cut — and must not commit anything, or a resumed client would
    /// race it and duplicate (or mis-sequence) records. Monotonic for
    /// the tenant's lifetime; never checkpointed (restored tenants
    /// start over, sessions re-read it at attach).
    pub generation: u64,
    config: PipelineConfig,
    /// Self-observability sidecar (absent in `bare` mode): alert
    /// engine plus ingest-health metrics, driven on sim time so its
    /// documents match the offline replay byte-for-byte.
    monitor: Option<StreamMonitor>,
    /// The monitor's state just before [`finalize`](Tenant::finalize)
    /// ran its end-of-stream evaluation — what
    /// [`reopen`](Tenant::reopen) rewinds to when a connection drop
    /// finalized a stream the client is still sending.
    pre_finish_monitor: Option<String>,
    /// Whether a base checkpoint has been written for this stream
    /// (cleared by [`reset`](Tenant::reset)). Until it has,
    /// [`checkpoint_due`](Tenant::checkpoint_due) asks for a base write
    /// rather than a journal frame; runtime-only, never serialized.
    base_written: bool,
    /// Incrementally rendered records section of the checkpoint
    /// document (wire lines in the tenant's format), paired with the
    /// record count it covers.
    /// Records are append-only while a stream is open, so each is
    /// rendered once per stream and a checkpoint write costs the delta
    /// since the last write plus one buffer copy — not a full
    /// re-serialization of the stream.
    ckpt_records: (String, usize),
    /// The same incremental cache for the spans section.
    ckpt_spans: (String, usize),
    /// The `/metrics` digest of the first `.1` records, caught up only
    /// when a scrape reads it (see
    /// [`telemetry_report`](Tenant::telemetry_report)). Records only
    /// grow while a stream is open, so a scrape digests just what
    /// arrived since the previous one; the two writers that replace
    /// the log ([`reset`](Tenant::reset) and
    /// [`restore_from_document`](Tenant::restore_from_document)) empty
    /// it.
    digest: (Arc<TelemetryReport>, usize),
    /// Durable high-water mark into `ckpt_records` as `(bytes,
    /// records)`: everything before it is already on disk, in the base
    /// checkpoint or an appended journal frame. The next frame appends
    /// only the suffix.
    journal_records: (usize, usize),
    /// The same durable mark for the spans cache.
    journal_spans: (usize, usize),
    /// Next journal frame number; each frame's commit marker repeats
    /// it so a torn append is detectable.
    journal_frame: u64,
    /// Lineage tag for journal frames: the stream sequence the current
    /// base checkpoint covers. Frames repeat it, so a restore can
    /// discard frames left behind by an interrupted compaction of an
    /// earlier base (or an earlier stream) exactly.
    journal_base_seq: u64,
    /// Open append handle to the journal, held across ticks: reopening
    /// the file per frame costs ~10x the append itself. Dropped when a
    /// base write retires the journal.
    journal_file: Option<std::fs::File>,
}

impl Tenant {
    /// Creates an empty tenant stream.
    pub fn new(name: &str, format: Format, config: PipelineConfig) -> Self {
        Tenant {
            name: name.to_string(),
            format,
            records: Vec::new(),
            spans: Vec::new(),
            pending: Vec::new(),
            pipeline: None,
            summary: None,
            parse_errors: 0,
            sessions: 0,
            seq: 0,
            shed: 0,
            overloaded: false,
            generation: 0,
            config,
            monitor: None,
            pre_finish_monitor: None,
            base_written: false,
            ckpt_records: (String::new(), 0),
            ckpt_spans: (String::new(), 0),
            digest: Default::default(),
            journal_records: (0, 0),
            journal_spans: (0, 0),
            journal_frame: 0,
            journal_base_seq: 0,
            journal_file: None,
        }
    }

    /// Every accepted telemetry record, in arrival order.
    pub fn records(&self) -> &[ParsedRecord<'static>] {
        &self.records
    }

    /// The telemetry digest of every record so far, for a scrape to
    /// render after releasing the tenant's lock. Digests only the
    /// records that arrived since the previous call; the report is the
    /// one [`TelemetryReport::from_records`] builds over all of them,
    /// bit for bit. A finished tenant's report is shared, not copied.
    pub(crate) fn telemetry_report(&mut self) -> Arc<TelemetryReport> {
        let (report, covered) = &mut self.digest;
        if *covered < self.records.len() {
            Arc::make_mut(report).extend(&self.records[*covered..]);
            *covered = self.records.len();
        }
        Arc::clone(report)
    }

    /// Attaches a self-observability monitor running `rules`.
    pub fn attach_monitor(&mut self, rules: Vec<AlertRule>) {
        self.monitor = Some(StreamMonitor::new(rules));
    }

    /// The attached monitor, if self-observability is on.
    pub fn monitor(&self) -> Option<&StreamMonitor> {
        self.monitor.as_ref()
    }

    /// Resets the stream for a fresh session (`hello` on an existing
    /// tenant), keeping the session and error tallies.
    pub fn reset(&mut self, format: Format) {
        self.format = format;
        self.records.clear();
        self.spans.clear();
        self.pending.clear();
        self.pipeline = None;
        self.summary = None;
        self.seq = 0;
        self.base_written = false;
        self.ckpt_records = (String::new(), 0);
        self.ckpt_spans = (String::new(), 0);
        self.digest = Default::default();
        self.journal_records = (0, 0);
        self.journal_spans = (0, 0);
        self.journal_frame = 0;
        self.journal_base_seq = 0;
        self.journal_file = None;
        if let Some(mon) = &mut self.monitor {
            mon.reset();
        }
    }

    /// Buffered data lines: what the backpressure watermark bounds.
    pub fn buffered_lines(&self) -> usize {
        self.records.len() + self.spans.len()
    }

    /// Feeds one record in arrival order, creating the pipeline at the
    /// first tick boundary. Returns `true` when the record closed a
    /// detector tick — the checkpoint cadence. The tenant keeps the
    /// record [`into_owned`](ParsedRecord::into_owned): a borrowed name
    /// is copied, an owned one moved.
    pub fn ingest_record(&mut self, r: ParsedRecord<'_>) -> bool {
        let r = r.into_owned();
        let ticks_before = self.pipeline.as_ref().map_or(0, ReplayPipeline::tick_count);
        self.feed_pipeline(&r);
        if let Some(mon) = &mut self.monitor {
            let (summary, pipeline) = (&self.summary, &self.pipeline);
            mon.observe_record(&r, || stream_state(summary, pipeline));
        }
        self.records.push(r);
        self.seq += 1;
        self.pipeline.as_ref().map_or(0, ReplayPipeline::tick_count) != ticks_before
    }

    /// The detector-side half of [`ingest_record`](Tenant::ingest_record):
    /// routes one record into the pipeline, creating it at the first
    /// tick boundary. Also the kernel of
    /// [`replay_pipeline`](Tenant::replay_pipeline).
    fn feed_pipeline(&mut self, r: &ParsedRecord<'static>) {
        match &mut self.pipeline {
            Some(pipe) => pipe.ingest(r),
            None => {
                let first_tick_closed = self
                    .pending
                    .first()
                    .is_some_and(|first| first.time_ms != r.time_ms);
                if first_tick_closed {
                    let mut pipe = self.make_pipeline();
                    pipe.ingest(r);
                    self.pipeline = Some(pipe);
                } else {
                    self.pending.push(r.clone());
                }
            }
        }
    }

    /// Rebuilds the pipeline from scratch by replaying the record log —
    /// the only way pipeline state is ever rebuilt, shared by
    /// [`reopen`](Tenant::reopen) and
    /// [`restore_from_document`](Tenant::restore_from_document). Replay
    /// is deterministic, so the result is bit-identical to the pipeline
    /// that ingested the same records live under the same config.
    fn replay_pipeline(&mut self) {
        self.summary = None;
        self.pipeline = None;
        self.pending.clear();
        let records = std::mem::take(&mut self.records);
        for r in &records {
            self.feed_pipeline(r);
        }
        self.records = records;
    }

    /// Builds the pipeline from the buffered first tick and drains the
    /// buffer into it.
    fn make_pipeline(&mut self) -> ReplayPipeline {
        let racks = pipeline::try_infer_racks(&self.pending).unwrap_or(1);
        let mut pipe = ReplayPipeline::new(racks, self.config);
        for r in self.pending.drain(..) {
            pipe.ingest(&r);
        }
        pipe
    }

    /// Feeds one span in arrival order.
    pub fn ingest_span(&mut self, s: ParsedSpan) {
        self.spans.push(s);
        self.seq += 1;
    }

    /// [`ingest_record`](Tenant::ingest_record) plus checkpoint
    /// capture: the verbatim wire line lands in the checkpoint cache,
    /// so durability never re-renders what the wire already spelled
    /// out (re-parsing the same line yields the identical record). The
    /// capture only applies while the cache is caught up — it always
    /// is on the live path; a caller that bypassed it falls back to
    /// `refresh_ckpt_caches` rendering.
    pub fn ingest_record_wire(&mut self, line: &str, r: ParsedRecord<'_>) -> bool {
        let caught_up = self.ckpt_records.1 == self.records.len();
        let ticked = self.ingest_record(r);
        if caught_up {
            self.ckpt_records.0.push_str(line);
            self.ckpt_records.0.push('\n');
            self.ckpt_records.1 = self.records.len();
        }
        ticked
    }

    /// [`ingest_span`](Tenant::ingest_span) plus checkpoint capture of
    /// the verbatim wire line; see
    /// [`ingest_record_wire`](Tenant::ingest_record_wire).
    pub fn ingest_span_wire(&mut self, line: &str, s: ParsedSpan) {
        let caught_up = self.ckpt_spans.1 == self.spans.len();
        self.ingest_span(s);
        if caught_up {
            self.ckpt_spans.0.push_str(line);
            self.ckpt_spans.0.push('\n');
            self.ckpt_spans.1 = self.spans.len();
        }
    }

    /// Ends the stream: closes the final tick and caches the summary.
    /// Idempotent — a second `end` returns the same summary.
    pub fn finalize(&mut self) -> &ReplaySummary {
        if self.summary.is_none() {
            let pipe = match self.pipeline.take() {
                Some(pipe) => pipe,
                // The whole stream fit in one tick (or was empty).
                None => self.make_pipeline(),
            };
            let summary = pipe.finalize();
            if let Some(mon) = &mut self.monitor {
                // Keep the pre-finish state: a dropped connection
                // finalizes a stream its client is still sending, and a
                // later resume must rewind past this evaluation.
                self.pre_finish_monitor = Some(mon.snapshot_json());
                mon.finish(summary.final_level, false, summary.firing_count);
            }
            self.summary = Some(summary);
        }
        self.summary.as_ref().expect("summary just cached")
    }

    /// Rewinds a finalized stream back to its open state so a resuming
    /// client can keep sending — the recovery path when a dropped
    /// connection EOF-drained (and so finalized) a stream mid-send.
    ///
    /// The pipeline is rebuilt deterministically by replaying the
    /// record log (byte-identical to never having finalized), and the
    /// monitor rewinds to its pre-finish snapshot. No-op when the
    /// stream is open. (A monitored stream finished without a
    /// pre-finish snapshot cannot be rewound and stays finished —
    /// defensive only: `finalize` always captures one, and a restored
    /// `finished` checkpoint re-runs `finalize`.)
    pub fn reopen(&mut self) {
        if self.summary.is_none() {
            return;
        }
        if self.monitor.is_some() && self.pre_finish_monitor.is_none() {
            return;
        }
        self.replay_pipeline();
        if let (Some(mon), Some(snap)) = (&mut self.monitor, self.pre_finish_monitor.take()) {
            let parsed = JsonParser::parse_document(&snap)
                .expect("pre-finish snapshot is self-generated JSON");
            mon.restore_snapshot(&parsed)
                .expect("pre-finish snapshot matches the monitor's rules");
        }
    }

    /// Charges one malformed line to the tenant (and its monitor). The
    /// line still advances the stream sequence: the client sent it, so a
    /// resume must not replay it.
    pub fn note_parse_error(&mut self) {
        self.parse_errors += 1;
        self.seq += 1;
        if let Some(mon) = &mut self.monitor {
            mon.observe_parse_error();
        }
    }

    /// Records one wire poll's wall timing into the monitor, if any.
    pub fn observe_poll(&mut self, seconds: f64, lines: u64, records: u64) {
        if let Some(mon) = &mut self.monitor {
            mon.observe_poll(seconds, lines, records);
        }
    }

    /// Drains alert transitions pending since the last drain (empty
    /// without a monitor).
    pub fn take_transitions(&mut self) -> Vec<AlertEvent> {
        self.monitor
            .as_mut()
            .map(StreamMonitor::take_transitions)
            .unwrap_or_default()
    }

    /// This stream's `/alerts` JSON document, if self-observability is
    /// on — byte-identical to `padsim inspect --alerts` over the same
    /// records.
    pub fn alerts_json(&self) -> Option<String> {
        self.monitor.as_ref().map(StreamMonitor::alerts_json)
    }

    /// `true` once [`finalize`](Tenant::finalize) has run.
    pub fn finished(&self) -> bool {
        self.summary.is_some()
    }

    /// The current policy level: live from the pipeline while the
    /// stream is open, frozen from the summary after.
    pub fn level(&self) -> SecurityLevel {
        stream_state(&self.summary, &self.pipeline).0
    }

    /// Whether the fused detector verdict is currently firing (always
    /// `false` before the pipeline exists or after the stream ended).
    pub fn fused_fired(&self) -> bool {
        stream_state(&self.summary, &self.pipeline).1
    }

    /// One-line status JSON for the HTTP API.
    pub fn status_json(&self) -> String {
        format!(
            "{{\"tenant\":\"{}\",\"format\":\"{}\",\"records\":{},\"spans\":{},\
             \"parse_errors\":{},\"sessions\":{},\"seq\":{},\"shed\":{},\
             \"finished\":{},\"level\":{},\
             \"level_label\":\"{}\",\"fused_fired\":{}}}\n",
            self.name,
            self.format.extension(),
            self.records.len(),
            self.spans.len(),
            self.parse_errors,
            self.sessions,
            self.seq,
            self.shed,
            self.finished(),
            self.level().number(),
            self.level().label(),
            self.fused_fired()
        )
    }

    /// The tenant's incident report, reconstructed from its spans
    /// joined with its telemetry — the same JSON document
    /// `padsim incident --json` emits for the recorded files.
    pub fn incidents_json(&self) -> String {
        pipeline::reconstruct_json(&self.spans, &self.records)
    }

    /// Serializes the tenant's full stream state as one versioned
    /// checkpoint document (see [`checkpoint_schema`]).
    ///
    /// The document is line-oriented: a JSON meta line, then the
    /// retained records and spans as wire lines in the tenant's format
    /// (the exact-inverse codecs, so they round-trip bit-exactly), then
    /// the monitor snapshot. The detector pipeline is not serialized:
    /// a restore rebuilds it by replaying the records under the
    /// restoring daemon's own configuration.
    ///
    /// Takes `&mut self` to top up the incremental render caches: the
    /// records and spans sections only ever grow while a stream is
    /// open, so each line is rendered once per stream and repeated
    /// checkpoints pay only the delta plus a buffer copy.
    pub fn checkpoint_document(&mut self) -> String {
        use std::fmt::Write as _;
        self.refresh_ckpt_caches();
        let mut out =
            String::with_capacity(self.ckpt_records.0.len() + self.ckpt_spans.0.len() + 1024);
        let _ = write!(
            out,
            "{{\"version\":{CHECKPOINT_VERSION},\"tenant\":\"{}\",\"format\":\"{}\",\
             \"seq\":{},\"records\":{},\"spans\":{},\"parse_errors\":{},\"sessions\":{},\
             \"shed\":{},\"finished\":{}",
            self.name,
            self.format.extension(),
            self.seq,
            self.records.len(),
            self.spans.len(),
            self.parse_errors,
            self.sessions,
            self.shed,
            u8::from(self.summary.is_some()),
        );
        let _ = writeln!(
            out,
            ",\"has_monitor\":{}}}",
            u8::from(self.monitor.is_some())
        );
        out.push_str(&self.ckpt_records.0);
        out.push_str(&self.ckpt_spans.0);
        if let Some(mon) = &self.monitor {
            // A finished stream checkpoints the monitor's PRE-finish
            // state: the restore re-runs the end-of-stream evaluation
            // (a pure function of it) to reproduce the finished state,
            // which keeps the rewind point a post-crash resume needs —
            // an EOF-finalized stream is not necessarily a complete
            // one.
            match (&self.summary, &self.pre_finish_monitor) {
                (Some(_), Some(snap)) => out.push_str(snap),
                _ => out.push_str(&mon.snapshot_json()),
            }
            out.push('\n');
        }
        out
    }

    /// Tops up the incremental render caches with any records and
    /// spans accepted since the last call. Each line is rendered in the
    /// tenant's format (the format restore parses it in) exactly once
    /// per stream — base checkpoints copy the caches whole, journal
    /// frames append only the suffix past the durable marks.
    fn refresh_ckpt_caches(&mut self) {
        let delta = render_parsed(&self.records[self.ckpt_records.1..], self.format);
        let lines = delta.strip_prefix(CSV_HEADER).unwrap_or(&delta);
        self.ckpt_records.0.push_str(lines);
        self.ckpt_records.1 = self.records.len();
        let delta = render_parsed_spans(&self.spans[self.ckpt_spans.1..], self.format);
        let lines = delta.strip_prefix(SPAN_CSV_HEADER).unwrap_or(&delta);
        self.ckpt_spans.0.push_str(lines);
        self.ckpt_spans.1 = self.spans.len();
    }

    /// Whether the next durable write must be a full base checkpoint
    /// (no base exists for this stream yet) rather than an appended
    /// journal frame.
    ///
    /// Rewriting the document at every tick makes checkpoint cost
    /// quadratic in the stream length, and on the filesystems that
    /// back a state directory a create-and-rename is two orders of
    /// magnitude more expensive than an append. So a stream writes its
    /// base exactly once — at the first tick after it opens (or
    /// resets), and again at boot when
    /// [`DaemonState::load_checkpoints`] compacts base plus journal
    /// into a fresh base — and every later tick appends a delta frame.
    /// The journal is bounded by the stream itself, which the
    /// backpressure watermark already caps.
    pub fn checkpoint_due(&self) -> bool {
        !self.base_written
    }

    /// Restores the stream state serialized by
    /// [`checkpoint_document`](Tenant::checkpoint_document) into this
    /// freshly constructed tenant (same name and alert rules). The
    /// pipeline is rebuilt by replaying the restored records under this
    /// tenant's config, and a finished stream is finalized again.
    ///
    /// Also reads version-1 documents, whose extra pipeline snapshot
    /// line (announced by a `racks` meta field) is skipped.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural mismatch: wrong
    /// tenant name, version drift, truncated sections, malformed lines,
    /// or monitor state that does not fit the rebuilt alert rules.
    pub fn restore_from_document(&mut self, text: &str) -> Result<(), String> {
        let mut lines = text.lines();
        let meta_line = lines.next().ok_or("empty checkpoint")?;
        let meta = JsonParser::parse_document(meta_line).map_err(|e| format!("meta: {e}"))?;
        let meta = meta.as_object("checkpoint meta")?;
        let has_pipeline_snapshot = match meta.u64_field("version")? {
            1 => meta.opt_u64_field("racks")?.is_some(),
            CHECKPOINT_VERSION => false,
            version => {
                return Err(format!(
                    "checkpoint version {version} (this daemon reads 1 and {CHECKPOINT_VERSION})"
                ))
            }
        };
        let tenant = meta.str_field("tenant")?;
        if tenant != self.name {
            return Err(format!(
                "checkpoint is for tenant {tenant:?}, not {:?}",
                self.name
            ));
        }
        let format_name = meta.str_field("format")?;
        self.format = Format::from_name(format_name)
            .ok_or_else(|| format!("unknown checkpoint format {format_name:?}"))?;
        let record_count = meta.u64_field("records")?;
        let span_count = meta.u64_field("spans")?;
        self.seq = meta.u64_field("seq")?;
        self.parse_errors = meta.u64_field("parse_errors")?;
        self.sessions = meta.u64_field("sessions")?;
        self.shed = meta.u64_field("shed")?;
        let finished = meta.u64_field("finished")? == 1;
        let has_monitor = meta.u64_field("has_monitor")? == 1;

        // Data lines are verbatim wire lines in the tenant's own
        // format; they double as the rebuilt checkpoint cache, so a
        // later base write copies instead of re-rendering.
        self.ckpt_records = (String::new(), 0);
        self.ckpt_spans = (String::new(), 0);
        self.digest = Default::default();
        self.records = Vec::with_capacity(record_count as usize);
        for i in 0..record_count {
            let line = lines
                .next()
                .ok_or_else(|| format!("truncated after {i} of {record_count} records"))?;
            let record =
                parse_line(line, i as usize + 2, self.format).map_err(|e| e.to_string())?;
            self.records.push(record.into_owned());
            self.ckpt_records.0.push_str(line);
            self.ckpt_records.0.push('\n');
        }
        self.ckpt_records.1 = record_count as usize;
        self.spans = Vec::with_capacity(span_count as usize);
        for i in 0..span_count {
            let line = lines
                .next()
                .ok_or_else(|| format!("truncated after {i} of {span_count} spans"))?;
            self.spans.push(
                parse_span_line(line, i as usize + 2 + record_count as usize, self.format)
                    .map_err(|e| e.to_string())?,
            );
            self.ckpt_spans.0.push_str(line);
            self.ckpt_spans.0.push('\n');
        }
        self.ckpt_spans.1 = span_count as usize;
        if has_pipeline_snapshot {
            lines.next().ok_or("missing pipeline snapshot line")?;
        }
        if has_monitor {
            let snapshot_line = lines.next().ok_or("missing monitor snapshot line")?;
            let mon = self
                .monitor
                .as_mut()
                .ok_or("checkpoint has monitor state but self-observability is off")?;
            let snapshot = JsonParser::parse_document(snapshot_line)
                .map_err(|e| format!("monitor snapshot: {e}"))?;
            mon.restore_snapshot(&snapshot)
                .map_err(|e| format!("monitor snapshot: {e}"))?;
        } else if self.monitor.is_some() {
            return Err("checkpoint has no monitor state but self-observability is on".to_string());
        }
        if lines.next().is_some() {
            return Err("trailing content after checkpoint".to_string());
        }
        self.replay_pipeline();
        if finished {
            // The checkpoint holds the OPEN-stream state (the monitor
            // snapshot above is the pre-finish one). Re-run the
            // end-of-stream evaluation: summary and post-finish monitor
            // state are pure functions of the open state, and
            // `finalize` re-captures the pre-finish snapshot — so a
            // resume after restart can still rewind a stream that an
            // EOF finalized mid-send.
            self.finalize();
        }
        // The document just restored IS the durable base: later ticks
        // append journal frames instead of rewriting it.
        self.base_written = true;
        self.journal_base_seq = self.seq;
        Ok(())
    }

    /// Renders one journal delta frame: a meta line carrying the
    /// absolute stream tallies, the cached data lines past the durable
    /// marks, and a commit marker that makes a torn append detectable.
    /// The marks advance only after the frame reaches the file (see
    /// [`DaemonState::append_checkpoint_frame`]).
    fn journal_frame_document(&mut self) -> String {
        use std::fmt::Write as _;
        self.refresh_ckpt_caches();
        let frame_no = self.journal_frame;
        let mut out = String::with_capacity(
            96 + (self.ckpt_records.0.len() - self.journal_records.0)
                + (self.ckpt_spans.0.len() - self.journal_spans.0),
        );
        let _ = writeln!(
            out,
            "{{\"frame\":{frame_no},\"base\":{},\"records\":{},\"spans\":{},\"seq\":{},\
             \"parse_errors\":{},\"shed\":{},\"finished\":{}}}",
            self.journal_base_seq,
            self.ckpt_records.1 - self.journal_records.1,
            self.ckpt_spans.1 - self.journal_spans.1,
            self.seq,
            self.parse_errors,
            self.shed,
            u8::from(self.summary.is_some()),
        );
        out.push_str(&self.ckpt_records.0[self.journal_records.0..]);
        out.push_str(&self.ckpt_spans.0[self.journal_spans.0..]);
        let _ = writeln!(out, "ok frame {frame_no}");
        out
    }

    /// Replays a checkpoint journal — the delta frames appended after
    /// the base document — on top of the freshly restored base state.
    /// Frames feed the normal ingest path, so the result is
    /// byte-identical to having processed the same lines live.
    ///
    /// Stale frames (sequence at or below the current one — left
    /// behind when a crash interrupted base compaction) are skipped. A
    /// torn or corrupt tail ends the replay: every frame before the
    /// last valid commit marker is applied, the rest is dropped — on a
    /// stream socket that tail is indistinguishable from a cut
    /// mid-write, and the resume protocol re-delivers it. Returns the
    /// applied frame count and the reason the replay stopped early, if
    /// it did.
    pub fn apply_journal(&mut self, text: &str) -> (u64, Option<String>) {
        let mut lines = text.lines();
        let mut applied = 0u64;
        loop {
            let Some(meta_line) = lines.next() else {
                return (applied, None);
            };
            let doc = match JsonParser::parse_document(meta_line) {
                Ok(doc) => doc,
                Err(e) => return (applied, Some(format!("frame meta: {e}"))),
            };
            let frame = (|| -> Result<_, String> {
                let meta = doc.as_object("frame meta")?;
                Ok((
                    meta.u64_field("frame")?,
                    meta.u64_field("base")?,
                    meta.u64_field("records")?,
                    meta.u64_field("spans")?,
                    meta.u64_field("seq")?,
                    meta.u64_field("parse_errors")?,
                    meta.u64_field("shed")?,
                    meta.u64_field("finished")? == 1,
                ))
            })();
            let (frame_no, base, nr, ns, seq, parse_errors, shed, finished) = match frame {
                Ok(frame) => frame,
                Err(e) => return (applied, Some(format!("frame meta: {e}"))),
            };
            let mut records = Vec::with_capacity(nr as usize);
            for _ in 0..nr {
                let Some(line) = lines.next() else {
                    return (applied, Some(format!("frame {frame_no} torn mid-records")));
                };
                match parse_line(line, 1, self.format) {
                    Ok(r) => records.push((line, r)),
                    Err(e) => return (applied, Some(format!("frame {frame_no}: {e}"))),
                }
            }
            let mut spans = Vec::with_capacity(ns as usize);
            for _ in 0..ns {
                let Some(line) = lines.next() else {
                    return (applied, Some(format!("frame {frame_no} torn mid-spans")));
                };
                match parse_span_line(line, 1, self.format) {
                    Ok(s) => spans.push((line, s)),
                    Err(e) => return (applied, Some(format!("frame {frame_no}: {e}"))),
                }
            }
            let commit = format!("ok frame {frame_no}");
            if lines.next() != Some(commit.as_str()) {
                return (
                    applied,
                    Some(format!("frame {frame_no} missing its commit marker")),
                );
            }
            if base != self.journal_base_seq {
                continue; // stale: a frame from an earlier base's lineage
            }
            if seq < self.seq || (seq == self.seq && !finished) {
                continue; // the restored state already covers it
            }
            let Some(error_delta) = parse_errors.checked_sub(self.parse_errors) else {
                return (
                    applied,
                    Some(format!("frame {frame_no} rewinds parse_errors")),
                );
            };
            if self.seq + error_delta + nr + ns != seq {
                return (
                    applied,
                    Some(format!(
                        "frame {frame_no} does not extend the restored stream"
                    )),
                );
            }
            // A dropped connection may have EOF-finalized the stream
            // before the session that wrote this frame resumed it.
            self.reopen();
            for _ in 0..error_delta {
                self.note_parse_error();
            }
            for (line, r) in records {
                self.ingest_record_wire(line, r);
            }
            for (line, s) in spans {
                self.ingest_span_wire(line, s);
            }
            self.shed = shed;
            if finished {
                self.finalize();
            }
            applied += 1;
        }
    }
}

/// A tenant's policy level, fused verdict and cumulative detector rising
/// edges, as its stream monitor reads them: the level and the edges live
/// from the pipeline while the stream is open, frozen from the summary
/// after it ends; the verdict from the pipeline alone, so `false` before
/// the pipeline exists or after the stream ended. It takes the two
/// fields it reads rather than the tenant, so the monitor can call it
/// while the tenant's monitor field is borrowed.
fn stream_state(
    summary: &Option<ReplaySummary>,
    pipeline: &Option<ReplayPipeline>,
) -> (SecurityLevel, bool, usize) {
    match (summary, pipeline) {
        (None, Some(pipe)) => pipe.monitor_state(),
        (Some(summary), pipe) => (
            summary.final_level,
            pipe.as_ref().is_some_and(|p| p.stack().fused().fired),
            summary.firing_count,
        ),
        (None, None) => (SecurityLevel::Normal, false, 0),
    }
}

/// Checkpoint document version this daemon writes and reads.
pub const CHECKPOINT_VERSION: u64 = 2;

/// The pinned checkpoint schema: document layout, meta fields, and the
/// snapshot field tree. CI diffs this against
/// `tests/data/checkpoint_schema.txt` so drift is a reviewed change.
pub fn checkpoint_schema() -> String {
    format!(
        "padsimd tenant checkpoint schema v{CHECKPOINT_VERSION}\n\
         \n\
         layout (line-oriented):\n  \
         1: meta JSON\n  \
         next <records>: telemetry records, verbatim wire lines in the \
         tenant's format\n  \
         next <spans>: trace spans, verbatim wire lines in the tenant's \
         format\n  \
         next 1 iff has_monitor=1: monitor snapshot JSON (the PRE-finish \
         state when finished=1; restore re-runs the end-of-stream evaluation)\n\
         \n\
         meta fields:\n  \
         version tenant format seq records spans parse_errors sessions shed \
         finished has_monitor\n\
         \n\
         monitor snapshot fields:\n  \
         registry[metrics[name kind value|stats|histogram]]\n  \
         engine[rules runtimes[state [since] [value] [last_sample] [last_beat] gaps] \
         events[t rule fired value] events_dropped fresh] [open_tick] last_firings\n\
         \n\
         journal (<tenant>.ckpt.log, append-only deltas over the base):\n  \
         frame = meta line, then <records> record lines and <spans> span \
         lines (verbatim wire lines), then commit marker `ok frame <n>`\n  \
         frame meta fields: frame base records spans seq parse_errors shed \
         finished\n  \
         base repeats the seq the base document covers; frames from another \
         lineage (an interrupted compaction's leftovers) are skipped\n  \
         seq is absolute after the frame; replay stops at the last intact \
         commit marker, a torn tail is discarded (resume re-delivers)\n  \
         boot compaction: restore folds base+journal into a fresh base and \
         removes the journal before serving\n"
    )
}

/// Everything the listener, session, and HTTP threads share.
#[derive(Debug)]
pub struct DaemonState {
    /// Self-metrics.
    pub counters: Counters,
    /// Set by a `shutdown` control line; every session loop polls it.
    /// Written only by [`request_shutdown`](DaemonState::request_shutdown),
    /// which also wakes [`wait_for_shutdown`](DaemonState::wait_for_shutdown).
    shutdown: AtomicBool,
    /// Held while `shutdown` is set, so a waiter cannot miss the wake.
    shutdown_lock: Mutex<()>,
    /// Notified when `shutdown` is set.
    shutdown_signal: Condvar,
    /// Set once the listeners are bound and serving; cleared on drain.
    /// `/readyz` is this AND not shutting down — `/healthz` stays pure
    /// liveness.
    ready: AtomicBool,
    /// Whether self-observability (monitors, ops histograms) is on.
    /// Off only for the bench's bare-ingest baseline.
    pub self_obs: bool,
    /// Pipeline knobs applied to every tenant.
    pub config: PipelineConfig,
    /// Wall-clock ops histograms (`/metrics` only).
    pub ops: Mutex<OpsMetrics>,
    /// Directory for per-tenant crash-recovery checkpoints; `None`
    /// disables checkpointing.
    pub state_dir: Option<PathBuf>,
    /// Per-tenant backpressure high watermark: once a tenant holds this
    /// many buffered data lines, further lines are shed (accounted,
    /// never ingested) and new `hello`s are answered `busy`.
    pub max_buffered_lines: usize,
    /// Close a session that has read nothing (no data, no `ping`) for
    /// this long; `None` lets idle sessions linger forever.
    pub idle_timeout: Option<Duration>,
    alert_rules: Vec<AlertRule>,
    ops_log: Mutex<OpsLog>,
    tenants: Mutex<BTreeMap<String, Arc<Mutex<Tenant>>>>,
}

/// Default per-tenant buffered-line high watermark.
pub const MAX_BUFFERED_LINES_DEFAULT: usize = 1 << 20;

impl DaemonState {
    /// Creates the shared state with self-observability on and the
    /// default alert rules.
    pub fn new(config: PipelineConfig) -> Self {
        Self::with_rules(config, default_alert_rules(), true)
    }

    /// Creates state with no monitors and no ops instrumentation — the
    /// bench baseline that measures what self-observability costs.
    pub fn bare(config: PipelineConfig) -> Self {
        Self::with_rules(config, Vec::new(), false)
    }

    /// Creates the shared state with explicit alert rules.
    pub fn with_rules(config: PipelineConfig, alert_rules: Vec<AlertRule>, self_obs: bool) -> Self {
        DaemonState {
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            shutdown_lock: Mutex::new(()),
            shutdown_signal: Condvar::new(),
            ready: AtomicBool::new(false),
            self_obs,
            config,
            ops: Mutex::new(OpsMetrics::new()),
            state_dir: None,
            max_buffered_lines: MAX_BUFFERED_LINES_DEFAULT,
            idle_timeout: None,
            alert_rules,
            ops_log: Mutex::new(OpsLog::new(OPS_LOG_CAP)),
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// `true` once a shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a shutdown (idempotent) and wakes
    /// [`serve`](crate::server::serve), which waits for one.
    pub fn request_shutdown(&self) {
        let _guard = self.shutdown_lock.lock().expect("shutdown lock");
        self.shutdown.store(true, Ordering::SeqCst);
        self.shutdown_signal.notify_all();
    }

    /// Blocks until a shutdown has been requested.
    pub(crate) fn wait_for_shutdown(&self) {
        let mut guard = self.shutdown_lock.lock().expect("shutdown lock");
        while !self.shutting_down() {
            guard = self.shutdown_signal.wait(guard).expect("shutdown lock");
        }
    }

    /// Marks the daemon ready (listeners bound) or draining.
    pub fn set_ready(&self, ready: bool) {
        self.ready.store(ready, Ordering::SeqCst);
    }

    /// Ready to accept work: listeners bound and not draining.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst) && !self.shutting_down()
    }

    /// The alert rules every tenant monitor runs.
    pub fn alert_rules(&self) -> &[AlertRule] {
        &self.alert_rules
    }

    /// Appends one entry to the bounded ops log.
    pub fn log_event(&self, kind: &'static str, tenant: &str, detail: &str) {
        self.ops_log
            .lock()
            .expect("ops log lock")
            .push(kind, tenant, detail);
    }

    /// Runs `f` over the ops log under its lock.
    pub fn with_ops_log<T>(&self, f: impl FnOnce(&OpsLog) -> T) -> T {
        f(&self.ops_log.lock().expect("ops log lock"))
    }

    /// Opens (or resets) a tenant stream and returns its handle.
    pub fn open_tenant(&self, name: &str, format: Format) -> (Arc<Mutex<Tenant>>, u64) {
        let mut tenants = self.lock_tenants();
        let tenant = tenants
            .entry(name.to_string())
            .or_insert_with(|| {
                let mut tenant = Tenant::new(name, format, self.config);
                if self.self_obs {
                    tenant.attach_monitor(self.alert_rules.clone());
                }
                Arc::new(Mutex::new(tenant))
            })
            .clone();
        drop(tenants);
        let mut guard = tenant.lock().expect("tenant lock");
        guard.reset(format);
        guard.sessions += 1;
        guard.generation += 1;
        let generation = guard.generation;
        if guard.overloaded {
            // A fresh stream empties the buffers, so the watermark
            // crossing ends here.
            guard.overloaded = false;
            Counters::drop_one(&self.counters.overloaded_tenants);
        }
        drop(guard);
        Counters::bump(&self.counters.sessions_opened);
        self.log_event("session_open", name, "");
        (tenant, generation)
    }

    /// Opens a tenant stream for a resuming client *without* resetting
    /// it, returning the handle, the stream sequence number already
    /// consumed — the `ok hello <tenant> seq <n>` ack — and the new
    /// fencing generation. A tenant the daemon has never seen resumes
    /// from zero.
    ///
    /// # Errors
    ///
    /// Returns a message when the announced wire format contradicts a
    /// non-empty existing stream.
    pub fn resume_tenant(
        &self,
        name: &str,
        format: Format,
    ) -> Result<(Arc<Mutex<Tenant>>, u64, u64), String> {
        let mut tenants = self.lock_tenants();
        let tenant = tenants
            .entry(name.to_string())
            .or_insert_with(|| {
                let mut tenant = Tenant::new(name, format, self.config);
                if self.self_obs {
                    tenant.attach_monitor(self.alert_rules.clone());
                }
                Arc::new(Mutex::new(tenant))
            })
            .clone();
        drop(tenants);
        let mut guard = tenant.lock().expect("tenant lock");
        if guard.buffered_lines() == 0 && guard.seq == 0 {
            guard.format = format;
        } else if guard.format != format {
            return Err(format!(
                "resume format {} does not match the open stream's {}",
                format.extension(),
                guard.format.extension()
            ));
        }
        // A connection drop may have EOF-drained (finalized) the stream
        // mid-send; rewind it so the resuming client can keep going.
        guard.reopen();
        guard.sessions += 1;
        guard.generation += 1;
        let generation = guard.generation;
        let seq = guard.seq;
        drop(guard);
        Counters::bump(&self.counters.sessions_opened);
        self.log_event("session_resume", name, &format!("seq={seq}"));
        Ok((tenant, seq, generation))
    }

    /// The base checkpoint file path for `tenant`, if checkpointing is
    /// on.
    pub fn checkpoint_path(&self, tenant: &str) -> Option<PathBuf> {
        self.state_dir
            .as_ref()
            .map(|dir| dir.join(format!("{tenant}.ckpt")))
    }

    /// The checkpoint journal path for `tenant`, if checkpointing is
    /// on. The journal holds the delta frames appended since the base
    /// document was written (see
    /// [`append_checkpoint_frame`](DaemonState::append_checkpoint_frame)).
    pub fn journal_path(&self, tenant: &str) -> Option<PathBuf> {
        self.state_dir
            .as_ref()
            .map(|dir| dir.join(format!("{tenant}.ckpt.log")))
    }

    /// Writes `tenant`'s base checkpoint durably (write-to-temp then
    /// rename, so a crash mid-write leaves the previous base intact)
    /// and drops the journal, whose frames the new base now covers — a
    /// stale frame would only be skipped at restore anyway. A no-op
    /// without a state directory.
    ///
    /// # Errors
    ///
    /// Returns the first filesystem error. The durable marks only
    /// advance on success, so a failed write is simply retried at the
    /// next tick boundary.
    pub fn write_checkpoint(&self, tenant: &mut Tenant) -> std::io::Result<()> {
        let Some(path) = self.checkpoint_path(&tenant.name) else {
            return Ok(());
        };
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, tenant.checkpoint_document())?;
        std::fs::rename(&tmp, &path)?;
        tenant.base_written = true;
        tenant.journal_records = (tenant.ckpt_records.0.len(), tenant.ckpt_records.1);
        tenant.journal_spans = (tenant.ckpt_spans.0.len(), tenant.ckpt_spans.1);
        tenant.journal_frame = 0;
        tenant.journal_base_seq = tenant.seq;
        // Drop the open handle before unlinking: a later frame must
        // land in a fresh file, not the unlinked inode.
        tenant.journal_file = None;
        match std::fs::remove_file(self.journal_path(&tenant.name).expect("state dir is set")) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        Counters::bump(&self.counters.checkpoints_written);
        Ok(())
    }

    /// Appends one delta frame — the data lines accepted since the
    /// last durable point plus the updated stream tallies — to
    /// `tenant`'s checkpoint journal. This is the per-tick durability
    /// path: an append costs microseconds where the base's
    /// create-and-rename costs hundreds, so every tick boundary (and
    /// the stream close) can afford one, keeping the crash rewind to
    /// at most a tick. A no-op without a state directory.
    ///
    /// # Errors
    ///
    /// Returns the first filesystem error. The durable marks only
    /// advance on success, so a failed append folds its delta into the
    /// next frame.
    pub fn append_checkpoint_frame(&self, tenant: &mut Tenant) -> std::io::Result<()> {
        use std::io::Write as _;
        let Some(path) = self.journal_path(&tenant.name) else {
            return Ok(());
        };
        let frame = tenant.journal_frame_document();
        if tenant.journal_file.is_none() {
            tenant.journal_file = Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)?,
            );
        }
        let file = tenant.journal_file.as_mut().expect("just opened");
        file.write_all(frame.as_bytes())?;
        tenant.journal_records = (tenant.ckpt_records.0.len(), tenant.ckpt_records.1);
        tenant.journal_spans = (tenant.ckpt_spans.0.len(), tenant.ckpt_spans.1);
        tenant.journal_frame += 1;
        Counters::bump(&self.counters.checkpoint_frames);
        Ok(())
    }

    /// Restores every `*.ckpt` in the state directory into the tenant
    /// registry (startup recovery). A corrupt or mismatched checkpoint
    /// is skipped with a `checkpoint_error` ops-log entry rather than
    /// failing the boot; each restored tenant logs `checkpoint_restore`
    /// with its resume sequence. Returns the restored-tenant count.
    ///
    /// # Errors
    ///
    /// Returns the directory-scan error, if any (a missing directory is
    /// treated as empty).
    pub fn load_checkpoints(&self) -> std::io::Result<usize> {
        let Some(dir) = &self.state_dir else {
            return Ok(0);
        };
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "ckpt"))
            .collect();
        paths.sort();
        let mut restored = 0;
        for path in paths {
            let name = match path.file_stem().and_then(|s| s.to_str()) {
                Some(name) if crate::proto::valid_tenant(name) => name.to_string(),
                _ => continue,
            };
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => {
                    self.log_event("checkpoint_error", &name, &format!("read: {e}"));
                    continue;
                }
            };
            let mut tenant = Tenant::new(&name, Format::Jsonl, self.config);
            if self.self_obs {
                tenant.attach_monitor(self.alert_rules.clone());
            }
            match tenant.restore_from_document(&text) {
                Ok(()) => {
                    let journal = self.journal_path(&name).expect("state dir is set");
                    let mut frames = 0;
                    if let Ok(journal_text) = std::fs::read_to_string(&journal) {
                        let (applied, stopped) = tenant.apply_journal(&journal_text);
                        frames = applied;
                        if let Some(reason) = stopped {
                            self.log_event(
                                "checkpoint_error",
                                &name,
                                &format!("journal: {reason}"),
                            );
                        }
                    }
                    // Compact base plus journal into one fresh base: a
                    // torn journal tail must not sit under the frames a
                    // restarted daemon appends after it.
                    if let Err(e) = self.write_checkpoint(&mut tenant) {
                        self.log_event("checkpoint_error", &name, &format!("compact: {e}"));
                    }
                    let seq = tenant.seq;
                    self.lock_tenants()
                        .insert(name.clone(), Arc::new(Mutex::new(tenant)));
                    self.log_event(
                        "checkpoint_restore",
                        &name,
                        &format!("seq={seq} frames={frames}"),
                    );
                    restored += 1;
                }
                Err(e) => self.log_event("checkpoint_error", &name, &e),
            }
        }
        Ok(restored)
    }

    /// Looks up a tenant by name.
    pub fn tenant(&self, name: &str) -> Option<Arc<Mutex<Tenant>>> {
        self.lock_tenants().get(name).cloned()
    }

    /// Snapshot of every tenant handle, in name order.
    pub fn tenants(&self) -> Vec<(String, Arc<Mutex<Tenant>>)> {
        self.lock_tenants()
            .iter()
            .map(|(name, tenant)| (name.clone(), tenant.clone()))
            .collect()
    }

    fn lock_tenants(&self) -> MutexGuard<'_, BTreeMap<String, Arc<Mutex<Tenant>>>> {
        self.tenants.lock().expect("tenant registry lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::telemetry::parse;

    fn records(text: &str) -> Vec<ParsedRecord<'_>> {
        parse(text, Format::Jsonl).unwrap()
    }

    #[test]
    fn tenant_summary_matches_offline_batch_replay() {
        let trace = "{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\n\
                     {\"t\":0,\"m\":\"rack-01.draw_w\",\"v\":90}\n\
                     {\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":101}\n\
                     {\"t\":100,\"m\":\"rack-01.draw_w\",\"v\":91}\n\
                     {\"t\":200,\"m\":\"rack-00.draw_w\",\"v\":102}\n\
                     {\"t\":200,\"m\":\"rack-01.draw_w\",\"v\":92}\n";
        let parsed = records(trace);
        let offline = pipeline::replay_records(2, PipelineConfig::default(), &parsed);

        let mut tenant = Tenant::new("acme", Format::Jsonl, PipelineConfig::default());
        for r in &parsed {
            tenant.ingest_record(r.clone());
        }
        assert_eq!(tenant.finalize(), &offline);
        assert_eq!(tenant.finalize().to_json(), offline.to_json(), "idempotent");
    }

    #[test]
    fn single_tick_stream_still_finalizes() {
        let mut tenant = Tenant::new("t", Format::Jsonl, PipelineConfig::default());
        for r in records("{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":1}\n") {
            tenant.ingest_record(r);
        }
        let summary = tenant.finalize().clone();
        assert_eq!(summary.ticks, 1);
        assert_eq!(summary.racks, 1);
    }

    #[test]
    fn empty_stream_finalizes_to_zero_ticks() {
        let mut tenant = Tenant::new("t", Format::Jsonl, PipelineConfig::default());
        let summary = tenant.finalize().clone();
        assert_eq!(summary.ticks, 0);
        assert_eq!(summary.records, 0);
        assert_eq!(summary.final_level, SecurityLevel::Normal);
    }

    #[test]
    fn open_tenant_resets_but_keeps_tallies() {
        let state = DaemonState::new(PipelineConfig::default());
        let (tenant, _) = state.open_tenant("a", Format::Jsonl);
        {
            let mut guard = tenant.lock().unwrap();
            for r in records("{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":1}\n") {
                guard.ingest_record(r);
            }
            guard.parse_errors += 1;
            guard.finalize();
        }
        let (again, _) = state.open_tenant("a", Format::Csv);
        let guard = again.lock().unwrap();
        assert_eq!(guard.sessions, 2);
        assert_eq!(guard.parse_errors, 1, "tallies survive the reset");
        assert!(guard.records().is_empty());
        assert!(!guard.finished());
        assert_eq!(guard.format, Format::Csv);
        assert_eq!(state.tenants().len(), 1);
    }

    #[test]
    fn ops_log_ring_evicts_oldest_and_counts() {
        let mut log = OpsLog::new(3);
        for i in 0..5 {
            log.push("session_open", "t", &format!("n{i}"));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let jsonl = log.render_jsonl();
        assert!(!jsonl.contains("\"seq\":1"), "oldest evicted");
        assert!(jsonl.starts_with("{\"seq\":2,\"kind\":\"session_open\""));
        assert!(jsonl.ends_with("\"detail\":\"n4\"}\n"));
        assert!(log.render_json_array().starts_with("[{\"seq\":2"));
    }

    #[test]
    fn tenant_alerts_match_the_offline_monitor_byte_for_byte() {
        let trace = "{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":100}\n\
                     {\"t\":100,\"m\":\"rack-00.draw_w\",\"v\":101}\n\
                     {\"t\":200,\"m\":\"rack-00.draw_w\",\"v\":102}\n\
                     {\"t\":300,\"m\":\"rack-00.draw_w\",\"v\":103}\n";
        let parsed = records(trace);
        let state = DaemonState::new(PipelineConfig::default());
        let (tenant, _) = state.open_tenant("acme", Format::Jsonl);
        let mut guard = tenant.lock().unwrap();
        for r in &parsed {
            guard.ingest_record(r.clone());
        }
        guard.finalize();
        let live = guard.alerts_json().expect("monitor attached");
        let (_, offline) = pipeline::monitor_records(
            1,
            PipelineConfig::default(),
            pipeline::default_alert_rules(),
            &parsed,
        );
        assert_eq!(live, offline.alerts_json());
    }

    #[test]
    fn tenant_monitor_reads_the_verdict_after_the_closing_record() {
        // Each tick opens with the cluster draw, which jumps at tick 80
        // and fires two detectors at once: tick 80's first record flips
        // the fused verdict, and it is the record that closes tick 79 in
        // the monitor.
        let mut text = String::new();
        for i in 0..160u64 {
            let t = i * 100;
            let rack = 100.0 + (i % 7) as f64;
            let cluster = if i >= 80 { 4000.0 } else { rack };
            text.push_str(&format!(
                "{{\"t\":{t},\"m\":\"cluster.draw_w\",\"v\":{cluster}}}\n\
                 {{\"t\":{t},\"m\":\"rack-00.draw_w\",\"v\":{rack}}}\n"
            ));
        }
        let parsed = records(&text);
        let mut tenant = fresh_monitored("acme");
        // The reference reads the pipeline's state after every record.
        let mut pipe = ReplayPipeline::new(1, PipelineConfig::default());
        let mut reference = StreamMonitor::new(default_alert_rules());
        for r in &parsed {
            tenant.ingest_record(r.clone());
            pipe.ingest(r);
            let state = (
                pipe.level(),
                pipe.stack().fused().fired,
                pipe.stack().bank().firings().len(),
            );
            reference.observe_record(r, || state);
            assert_eq!(
                tenant.monitor().expect("monitor attached").snapshot_json(),
                reference.snapshot_json(),
                "after the record at {} ms",
                r.time_ms
            );
        }
        assert!(pipe.stack().fused().fired);
    }

    #[test]
    fn bare_state_runs_without_monitors_or_log_noise() {
        let state = DaemonState::bare(PipelineConfig::default());
        let (tenant, _) = state.open_tenant("t", Format::Jsonl);
        let mut guard = tenant.lock().unwrap();
        for r in records("{\"t\":0,\"m\":\"rack-00.draw_w\",\"v\":1}\n") {
            guard.ingest_record(r);
        }
        assert!(guard.monitor().is_none());
        assert!(guard.alerts_json().is_none());
        assert!(guard.take_transitions().is_empty());
    }

    /// A deterministic multi-tick, multi-rack trace with enough
    /// movement to exercise detector state.
    fn spiky_trace(ticks: u64) -> Vec<ParsedRecord<'static>> {
        let mut text = String::new();
        for t in 0..ticks {
            for rack in 0..2 {
                let spike = if t % 17 == 0 { 40.0 } else { 0.0 };
                let v = 100.0 + rack as f64 * 5.0 + (t % 7) as f64 + spike;
                text.push_str(&format!(
                    "{{\"t\":{},\"m\":\"rack-0{rack}.draw_w\",\"v\":{v}}}\n",
                    t * 100
                ));
            }
        }
        records(&text)
            .into_iter()
            .map(ParsedRecord::into_owned)
            .collect()
    }

    fn fresh_monitored(name: &str) -> Tenant {
        let mut tenant = Tenant::new(name, Format::Jsonl, PipelineConfig::default());
        tenant.attach_monitor(default_alert_rules());
        tenant
    }

    #[test]
    fn checkpoint_round_trips_an_open_stream_bit_exactly() {
        let trace = spiky_trace(60);
        for cut in [1usize, 7, 35, 59] {
            let mut live = fresh_monitored("acme");
            for r in &trace[..cut] {
                live.ingest_record(r.clone());
            }
            live.ingest_span(ParsedSpan {
                id: 0,
                name: "attack.drain".to_string(),
                parent: None,
                start_ms: 0,
                end_ms: 100,
                attrs: vec![("rack".to_string(), 1.0)],
            });
            live.note_parse_error();
            let doc = live.checkpoint_document();

            let mut restored = fresh_monitored("acme");
            restored.restore_from_document(&doc).unwrap();
            assert_eq!(restored.seq, live.seq, "cut {cut}");
            assert_eq!(restored.checkpoint_document(), doc, "cut {cut}");

            // Both halves converge on byte-identical final documents.
            for r in &trace[cut..] {
                live.ingest_record(r.clone());
                restored.ingest_record(r.clone());
            }
            assert_eq!(
                restored.finalize().to_json(),
                live.finalize().to_json(),
                "cut {cut}"
            );
            assert_eq!(restored.alerts_json(), live.alerts_json(), "cut {cut}");
            assert_eq!(
                restored.incidents_json(),
                live.incidents_json(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn reopen_rewinds_a_mid_stream_finalize_bit_exactly() {
        let trace = spiky_trace(60);
        for cut in [1usize, 23, 59] {
            let mut clean = fresh_monitored("t");
            let mut dropped = fresh_monitored("t");
            for (i, r) in trace.iter().enumerate() {
                clean.ingest_record(r.clone());
                dropped.ingest_record(r.clone());
                if i + 1 == cut {
                    // Connection drop: EOF drains and finalizes…
                    dropped.finalize();
                    // …and the resume rewinds it.
                    dropped.reopen();
                    assert!(!dropped.finished());
                }
            }
            assert_eq!(
                dropped.finalize().to_json(),
                clean.finalize().to_json(),
                "cut {cut}"
            );
            assert_eq!(dropped.alerts_json(), clean.alerts_json(), "cut {cut}");
        }
    }

    #[test]
    fn checkpoint_restores_a_finished_stream() {
        let trace = spiky_trace(40);
        let mut live = fresh_monitored("done");
        for r in &trace {
            live.ingest_record(r.clone());
        }
        live.finalize();
        let doc = live.checkpoint_document();
        let mut restored = fresh_monitored("done");
        restored.restore_from_document(&doc).unwrap();
        assert!(restored.finished());
        assert_eq!(restored.finalize().to_json(), live.finalize().to_json());
        assert_eq!(restored.alerts_json(), live.alerts_json());
    }

    #[test]
    fn checkpoint_rejects_structural_mismatches() {
        let mut live = fresh_monitored("a");
        for r in spiky_trace(10) {
            live.ingest_record(r);
        }
        let doc = live.checkpoint_document();

        let e = fresh_monitored("b")
            .restore_from_document(&doc)
            .unwrap_err();
        assert!(e.contains("tenant"), "{e}");

        let bumped = doc.replacen("{\"version\":2", "{\"version\":9", 1);
        let e = fresh_monitored("a")
            .restore_from_document(&bumped)
            .unwrap_err();
        assert!(e.contains("version"), "{e}");

        let truncated: String = doc.lines().take(3).map(|l| format!("{l}\n")).collect();
        let e = fresh_monitored("a")
            .restore_from_document(&truncated)
            .unwrap_err();
        assert!(e.contains("truncated"), "{e}");

        let mut bare = Tenant::new("a", Format::Jsonl, PipelineConfig::default());
        let e = bare.restore_from_document(&doc).unwrap_err();
        assert!(e.contains("self-observability"), "{e}");
    }

    #[test]
    fn resume_tenant_keeps_state_and_reports_seq() {
        let state = DaemonState::new(PipelineConfig::default());
        let (tenant, _) = state.open_tenant("r", Format::Jsonl);
        {
            let mut guard = tenant.lock().unwrap();
            for r in spiky_trace(5) {
                guard.ingest_record(r);
            }
        }
        let (again, seq, _) = state.resume_tenant("r", Format::Jsonl).unwrap();
        assert_eq!(seq, 10, "5 ticks x 2 racks consumed");
        let guard = again.lock().unwrap();
        assert_eq!(guard.records().len(), 10, "resume does not reset");
        assert_eq!(guard.sessions, 2);
        drop(guard);
        let e = state.resume_tenant("r", Format::Csv).unwrap_err();
        assert!(e.contains("format"), "{e}");
        // A never-seen tenant resumes from zero.
        let (_, seq, _) = state.resume_tenant("fresh", Format::Csv).unwrap();
        assert_eq!(seq, 0);
    }

    #[test]
    fn load_checkpoints_restores_tenants_from_disk() {
        let dir =
            std::env::temp_dir().join(format!("padsimd-state-test-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut state = DaemonState::new(PipelineConfig::default());
        state.state_dir = Some(dir.clone());
        let (tenant, _) = state.open_tenant("persisted", Format::Jsonl);
        {
            let mut guard = tenant.lock().unwrap();
            for r in spiky_trace(20) {
                guard.ingest_record(r);
            }
            state.write_checkpoint(&mut guard).unwrap();
        }
        assert_eq!(Counters::get(&state.counters.checkpoints_written), 1);
        std::fs::write(dir.join("broken.ckpt"), "not a checkpoint\n").unwrap();

        let mut reborn = DaemonState::new(PipelineConfig::default());
        reborn.state_dir = Some(dir.clone());
        assert_eq!(reborn.load_checkpoints().unwrap(), 1, "corrupt one skipped");
        let restored = reborn.tenant("persisted").expect("restored from disk");
        let mut guard = restored.lock().unwrap();
        assert_eq!(guard.records().len(), 40);
        assert_eq!(guard.seq, 40);
        let mut live = tenant.lock().unwrap();
        assert_eq!(guard.checkpoint_document(), live.checkpoint_document());
        drop((guard, live));
        let log = reborn.with_ops_log(OpsLog::render_jsonl);
        assert!(log.contains("\"kind\":\"checkpoint_restore\""), "{log}");
        assert!(log.contains("\"kind\":\"checkpoint_error\""), "{log}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn drain_span(id: u64, t_ms: u64) -> ParsedSpan {
        ParsedSpan {
            id,
            name: "attack.drain".to_string(),
            parent: None,
            start_ms: t_ms,
            end_ms: t_ms + 100,
            attrs: vec![("rack".to_string(), 1.0)],
        }
    }

    #[test]
    fn csv_checkpoint_without_wire_lines_round_trips() {
        // Records and spans fed through the parsed-value entry points
        // reach the checkpoint through the render fallback, which must
        // write the tenant's own format: restore parses in it.
        let mut live = Tenant::new("c", Format::Csv, PipelineConfig::default());
        live.attach_monitor(default_alert_rules());
        for r in spiky_trace(12) {
            live.ingest_record(r);
        }
        live.ingest_span(drain_span(0, 300));
        let doc = live.checkpoint_document();
        let mut restored = Tenant::new("c", Format::Csv, PipelineConfig::default());
        restored.attach_monitor(default_alert_rules());
        restored.restore_from_document(&doc).unwrap();
        assert_eq!(restored.seq, live.seq);
        assert_eq!(restored.checkpoint_document(), doc);
        assert_eq!(restored.finalize().to_json(), live.finalize().to_json());
        assert_eq!(restored.alerts_json(), live.alerts_json());
    }

    /// Streams 30 ticks x 2 racks (plus a few spans) through a
    /// monitored tenant the way a session does — verbatim wire lines,
    /// the base at the first tick, a journal frame at every later tick
    /// and at `end` — and returns the base and journal files.
    fn checkpoint_files(format: Format) -> (String, String) {
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "padsimd-state-test-torn-{}-{}",
            std::process::id(),
            CALLS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut state = DaemonState::new(PipelineConfig::default());
        state.state_dir = Some(dir.clone());
        let (tenant, _) = state.open_tenant("torn", format);
        let mut guard = tenant.lock().unwrap();
        let text = render_parsed(&spiky_trace(30), format);
        let lines = text.lines().filter(|l| *l != CSV_HEADER.trim_end());
        for (i, line) in lines.enumerate() {
            let r = parse_line(line, i + 1, format).unwrap();
            let ticked = guard.ingest_record_wire(line, r);
            if i % 20 == 5 {
                let span = drain_span(i as u64, i as u64 * 50);
                let rendered = render_parsed_spans(std::slice::from_ref(&span), format);
                let span_line = rendered.lines().last().unwrap();
                guard.ingest_span_wire(span_line, span);
            }
            if ticked {
                if guard.checkpoint_due() {
                    state.write_checkpoint(&mut guard).unwrap();
                } else {
                    state.append_checkpoint_frame(&mut guard).unwrap();
                }
            }
        }
        guard.finalize();
        state.append_checkpoint_frame(&mut guard).unwrap();
        drop(guard);
        let base = std::fs::read_to_string(dir.join("torn.ckpt")).unwrap();
        let journal = std::fs::read_to_string(dir.join("torn.ckpt.log")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (base, journal)
    }

    /// Restores `base` plus `journal` into a fresh monitored tenant and
    /// returns what a restore must agree on.
    fn restore_state(format: Format, base: &str, journal: &str) -> (u64, bool, String) {
        let mut tenant = Tenant::new("torn", format, PipelineConfig::default());
        tenant.attach_monitor(default_alert_rules());
        tenant.restore_from_document(base).unwrap();
        tenant.apply_journal(journal);
        (tenant.seq, tenant.finished(), tenant.checkpoint_document())
    }

    #[test]
    fn torn_journal_restores_its_last_committed_frame() {
        for format in [Format::Jsonl, Format::Csv] {
            let (base, journal) = checkpoint_files(format);
            // Byte offsets where each `ok frame <n>` marker line ends
            // (before its newline): a cut at or past one keeps that
            // frame, a cut before it drops the frame.
            let marker_ends: Vec<usize> = journal
                .match_indices("\nok frame ")
                .map(|(i, _)| i + 1 + journal[i + 1..].find('\n').unwrap())
                .collect();
            assert_eq!(marker_ends.len(), 29, "28 later ticks plus the end frame");
            let full = restore_state(format, &base, &journal);
            assert_eq!(full.0, 63, "60 records and 3 spans");
            assert!(full.1, "the end frame finishes the stream");
            let mut expected = restore_state(format, &base, "");
            let mut committed = 0;
            for k in 0..=journal.len() {
                if committed < marker_ends.len() && marker_ends[committed] == k {
                    committed += 1;
                    expected = restore_state(format, &base, &journal[..k]);
                }
                assert_eq!(
                    restore_state(format, &base, &journal[..k]),
                    expected,
                    "{format:?} journal cut at byte {k}"
                );
            }
            assert_eq!(expected, full);
        }
    }

    #[test]
    fn torn_base_is_rejected_unless_only_its_newline_is_cut() {
        for format in [Format::Jsonl, Format::Csv] {
            let (base, _) = checkpoint_files(format);
            let mut whole = Tenant::new("torn", format, PipelineConfig::default());
            whole.attach_monitor(default_alert_rules());
            whole.restore_from_document(&base).unwrap();
            let expected = (whole.seq, whole.checkpoint_document());
            for k in 0..base.len() {
                let mut tenant = Tenant::new("torn", format, PipelineConfig::default());
                tenant.attach_monitor(default_alert_rules());
                let restored = tenant.restore_from_document(&base[..k]);
                if k + 1 == base.len() {
                    restored.unwrap();
                    assert_eq!((tenant.seq, tenant.checkpoint_document()), expected);
                } else {
                    assert!(restored.is_err(), "{format:?} base cut at byte {k}");
                }
            }
        }
    }

    #[test]
    fn version_1_state_directory_still_restores() {
        // A base plus journal written by a version-1 daemon for an open
        // stream: the base carries `racks` and a pipeline snapshot line.
        let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/checkpoint_v1");
        let dir =
            std::env::temp_dir().join(format!("padsimd-state-test-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for file in ["legacy.ckpt", "legacy.ckpt.log"] {
            std::fs::copy(format!("{fixture}/{file}"), dir.join(file)).unwrap();
        }
        let mut state = DaemonState::new(PipelineConfig::default());
        state.state_dir = Some(dir.clone());
        assert_eq!(state.load_checkpoints().unwrap(), 1);
        let log = state.with_ops_log(OpsLog::render_jsonl);
        assert!(!log.contains("checkpoint_error"), "{log}");
        let tenant = state.tenant("legacy").expect("restored from disk");
        let mut restored = tenant.lock().unwrap();
        assert_eq!(restored.seq, 25);
        assert!(!restored.finished());

        let trace = spiky_trace(30);
        let mut clean = fresh_monitored("legacy");
        for r in &trace {
            clean.ingest_record(r.clone());
        }
        for r in &trace[25..] {
            restored.ingest_record(r.clone());
        }
        assert_eq!(restored.finalize().to_json(), clean.finalize().to_json());
        assert_eq!(restored.alerts_json(), clean.alerts_json());
        drop(restored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readiness_is_bound_and_not_draining() {
        let state = DaemonState::new(PipelineConfig::default());
        assert!(!state.is_ready(), "not ready before listeners bind");
        state.set_ready(true);
        assert!(state.is_ready());
        state.request_shutdown();
        assert!(!state.is_ready(), "draining is not ready");
    }
}
