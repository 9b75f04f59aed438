//! Helpers shared by the native integration suites.

use std::sync::{Arc, Mutex};

/// A shared `Vec<u8>` sink threads can write into and the test can read
/// back after `finish_recording`.
#[derive(Clone, Default, Debug)]
pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

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
