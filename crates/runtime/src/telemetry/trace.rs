//! The structured trace layer: spans and events appended as JSONL to a
//! `--trace-out FILE` sink.
//!
//! Every record is one line of JSON rendered by the in-repo [`Json`]
//! serializer — the same renderer reports use — so every emitted line is
//! guaranteed to round-trip through [`Json::parse`]. Records share a
//! fixed envelope:
//!
//! ```text
//! {"ts_ms":<u64>,"kind":"span"|"event","name":"…","dur_ms":<f64|null>,"fields":{…}}
//! ```
//!
//! `ts_ms` is milliseconds since the sink was opened (monotonic, not
//! wall-clock, so traces are meaningful even across clock steps);
//! `dur_ms` is `null` for point events. Writes go through a buffered
//! writer and each record is rendered to a full line before entering the
//! writer, then flushed — a crash can truncate at most the final line,
//! never interleave two records, and every *complete* line on disk
//! parses.
//!
//! Tracing is a side channel by contract: nothing in a trace sink may
//! influence report artifacts, store contents, or merge gates. The
//! determinism suite pins that (`--trace-out` on vs. off produces
//! byte-identical campaign artifacts).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::report::Json;

/// A shared, append-only JSONL trace sink.
#[derive(Debug)]
pub struct TraceSink {
    writer: Mutex<BufWriter<File>>,
    epoch: Instant,
    records: AtomicU64,
}

impl TraceSink {
    /// Creates (truncating) `path` and returns a sink writing to it.
    ///
    /// # Errors
    ///
    /// The underlying `File::create` error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Arc<TraceSink>> {
        let file = File::create(path)?;
        Ok(Arc::new(TraceSink {
            writer: Mutex::new(BufWriter::new(file)),
            epoch: Instant::now(),
            records: AtomicU64::new(0),
        }))
    }

    /// Records a point event.
    pub fn event(&self, name: &str, fields: Vec<(String, Json)>) {
        self.write_record("event", name, None, fields);
    }

    /// Records a completed span of `dur_ms` milliseconds.
    pub fn span(&self, name: &str, dur_ms: f64, fields: Vec<(String, Json)>) {
        self.write_record("span", name, Some(dur_ms), fields);
    }

    /// Starts a span clock; call [`SpanGuard::finish`] (or drop it) to
    /// emit the record with the measured duration.
    pub fn start_span(self: &Arc<Self>, name: impl Into<String>) -> SpanGuard {
        SpanGuard {
            sink: Arc::clone(self),
            name: name.into(),
            started: Instant::now(),
            fields: Vec::new(),
            done: false,
        }
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    fn write_record(
        &self,
        kind: &str,
        name: &str,
        dur_ms: Option<f64>,
        fields: Vec<(String, Json)>,
    ) {
        let record = Json::Obj(vec![
            (
                "ts_ms".into(),
                Json::Int(self.epoch.elapsed().as_millis() as i64),
            ),
            ("kind".into(), Json::str(kind)),
            ("name".into(), Json::str(name)),
            (
                "dur_ms".into(),
                match dur_ms {
                    Some(ms) => Json::Num(ms),
                    None => Json::Null,
                },
            ),
            ("fields".into(), Json::Obj(fields)),
        ]);
        let mut line = record.render();
        line.push('\n');
        // render-then-write keeps each record a single buffered write;
        // flush per record so a crash loses at most the line in flight
        let mut writer = self.writer.lock().expect("trace sink poisoned");
        if writer.write_all(line.as_bytes()).is_ok() {
            writer.flush().ok();
            self.records.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// An in-flight span: accumulates fields, measures its own duration, and
/// emits exactly one record when finished (or dropped).
#[derive(Debug)]
pub struct SpanGuard {
    sink: Arc<TraceSink>,
    name: String,
    started: Instant,
    fields: Vec<(String, Json)>,
    done: bool,
}

impl SpanGuard {
    /// Attaches a field to the eventual record.
    pub fn field(&mut self, key: impl Into<String>, value: Json) -> &mut Self {
        self.fields.push((key.into(), value));
        self
    }

    /// Emits the span record now, consuming the guard.
    pub fn finish(mut self) {
        self.emit();
    }

    fn emit(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let dur_ms = self.started.elapsed().as_secs_f64() * 1e3;
        self.sink
            .span(&self.name, dur_ms, std::mem::take(&mut self.fields));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.emit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_trace(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fahana-trace-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn every_emitted_line_round_trips_through_the_parser() {
        let path = temp_trace("roundtrip");
        let sink = TraceSink::create(&path).unwrap();
        sink.event(
            "worker_start",
            vec![
                ("shard".into(), Json::Int(2)),
                ("label".into(), Json::str("a/b")),
            ],
        );
        sink.span(
            "scenario",
            12.5,
            vec![("name".into(), Json::str("pi/balanced \"quoted\""))],
        );
        let mut guard = sink.start_span("wave");
        guard.field("tasks", Json::Int(3));
        guard.finish();
        drop(sink);

        let raw = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = raw.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let record = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(record.get("ts_ms").unwrap().as_i64().is_some());
            let kind = record.get("kind").unwrap().as_str().unwrap();
            assert!(kind == "span" || kind == "event", "{kind}");
            assert!(record.get("name").unwrap().as_str().is_some());
            assert!(record.get("fields").is_some());
        }
        // events carry null durations, spans real ones
        let event = Json::parse(lines[0]).unwrap();
        assert!(matches!(event.get("dur_ms"), Some(Json::Null)));
        let span = Json::parse(lines[1]).unwrap();
        assert_eq!(span.get("dur_ms").unwrap().as_f64(), Some(12.5));
        let wave = Json::parse(lines[2]).unwrap();
        assert_eq!(
            wave.get("fields").unwrap().get("tasks").unwrap().as_i64(),
            Some(3)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dropped_guards_emit_exactly_once() {
        let path = temp_trace("guard");
        let sink = TraceSink::create(&path).unwrap();
        {
            let mut guard = sink.start_span("implicit");
            guard.field("via", Json::str("drop"));
        } // emits here
        assert_eq!(sink.records(), 1);
        let guard = sink.start_span("explicit");
        guard.finish(); // consuming finish cannot double-emit on drop
        assert_eq!(sink.records(), 2);
        drop(sink);
        std::fs::remove_file(&path).ok();
    }
}
