//! Thin timing wrappers over the layers' public extension traits. Each
//! forwards every call unchanged and records a span around it, so the
//! traced run sees time spent below a layer's front door.

use std::sync::atomic::{AtomicU64, Ordering};

use scan_core::simulate::PrimitiveScans;
use scan_core::{ChunkSource, ScanDeadline, Segments};
use scan_service::{BatchBackend, ScanKind};

use crate::trace;

/// A [`BatchBackend`] that records `engine.batch` spans (the backend runs
/// the engine's kernels) and counts the batches and elements it executes.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    // Statistics only: they publish no other data.
    batches: AtomicU64,
    elems: AtomicU64,
}

impl<B> TimedBackend<B> {
    pub fn new(inner: B) -> Self {
        TimedBackend {
            inner,
            batches: AtomicU64::new(0),
            elems: AtomicU64::new(0),
        }
    }

    /// (coalesced batches executed, elements they carried).
    pub fn batches_and_elems(&self) -> (u64, u64) {
        (
            self.batches.load(Ordering::Relaxed),
            self.elems.load(Ordering::Relaxed),
        )
    }
}

impl<B: BatchBackend> BatchBackend for TimedBackend<B> {
    fn seg_scan(
        &self,
        kind: ScanKind,
        values: &[u64],
        segs: &Segments,
        deadline: Option<&ScanDeadline>,
    ) -> scan_core::Result<Vec<u64>> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.elems.fetch_add(values.len() as u64, Ordering::Relaxed);
        let _s = trace::span("engine.batch");
        self.inner.seg_scan(kind, values, segs, deadline)
    }

    fn scan_one(
        &self,
        kind: ScanKind,
        values: &[u64],
        deadline: Option<&ScanDeadline>,
    ) -> scan_core::Result<Vec<u64>> {
        let _s = trace::span("engine.batch");
        self.inner.scan_one(kind, values, deadline)
    }
}

/// A [`PrimitiveScans`] backend that records `checked.kernel` spans.
#[derive(Debug)]
pub struct TimedScans<P>(pub P);

impl<P: PrimitiveScans> PrimitiveScans for TimedScans<P> {
    fn plus_scan(&self, a: &[u64]) -> Vec<u64> {
        let _s = trace::span("checked.kernel");
        self.0.plus_scan(a)
    }

    fn max_scan(&self, a: &[u64]) -> Vec<u64> {
        let _s = trace::span("checked.kernel");
        self.0.max_scan(a)
    }
}

/// A [`ChunkSource`] that records `stream.source` spans.
#[derive(Debug)]
pub struct TimedSource<C>(pub C);

impl<T, C: ChunkSource<T>> ChunkSource<T> for TimedSource<C> {
    fn next_chunk(&mut self, buf: &mut Vec<T>) -> usize {
        let _s = trace::span("stream.source");
        self.0.next_chunk(buf)
    }

    fn seek(&mut self, chunk: u64) -> bool {
        self.0.seek(chunk)
    }
}
