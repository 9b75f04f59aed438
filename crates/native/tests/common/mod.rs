//! Helpers shared by the native integration suites.

use ddrace_program::TraceEvent;
use ddrace_trace::TraceWriter;
use std::sync::{Arc, Mutex};

/// A shared `Vec<u8>` sink threads can write into and the test can read
/// back after `finish_recording`.
#[derive(Clone, Default, Debug)]
pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// The recorded events, checked by [`decode_recording`].
    pub fn events(&self) -> Vec<TraceEvent> {
        decode_recording(&self.0.lock().unwrap())
    }
}

/// The events of a finished recording, after asserting that its bytes
/// equal one `TraceWriter::record_event` per decoded event. The monitor
/// appends each thread's flushed records as one run; this pins that a
/// frame closes after the same record as it would one record at a time,
/// also inside a run (only a recording of several frames can show it).
pub fn decode_recording(bytes: &[u8]) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    ddrace_trace::decode_events_into(bytes, |e| events.push(e.clone())).unwrap();
    let mut writer = TraceWriter::new(Vec::new()).unwrap();
    for event in &events {
        writer.record_event(event);
    }
    let per_record = writer.finish().unwrap();
    assert!(
        per_record == bytes,
        "the recording ({} bytes) differs from its per-record re-encoding ({} bytes)",
        bytes.len(),
        per_record.len()
    );
    events
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Real-thread counts to run: `DDRACE_NATIVE_THREADS` selects one (CI
/// matrixes over it); otherwise `default`.
pub fn thread_counts(default: &[usize]) -> Vec<usize> {
    match std::env::var("DDRACE_NATIVE_THREADS") {
        Ok(v) => vec![v.parse().expect("DDRACE_NATIVE_THREADS must be a number")],
        Err(_) => default.to_vec(),
    }
}
