//! Operations executable by a simulated thread.

use crate::SimTime;

/// Streaming-kernel flavours (the paper's four access patterns, §V-A):
/// copy `a[i] = b[i]`, read `a = b[i]`, write `b[i] = a`, and
/// triad `a[i] = b[i] + s·c[i]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// `a[i] = b[i]`.
    Copy,
    /// `a = b[i]`.
    Read,
    /// `b[i] = a`.
    Write,
    /// `a[i] = b[i] + s*c[i]`.
    Triad,
}

impl StreamKind {
    /// The four kernels, in the paper's order.
    pub const ALL: [StreamKind; 4] = [
        StreamKind::Copy,
        StreamKind::Read,
        StreamKind::Write,
        StreamKind::Triad,
    ];

    /// Bytes moved per line-iteration as the paper counts them (reads +
    /// writes): copy 2, read 1, write 1, triad 3.
    pub fn bytes_per_line(self) -> u64 {
        match self {
            StreamKind::Copy => 128,
            StreamKind::Read | StreamKind::Write => 64,
            StreamKind::Triad => 192,
        }
    }

    /// Lower-case kernel name used in tables/CSVs.
    pub fn name(self) -> &'static str {
        match self {
            StreamKind::Copy => "copy",
            StreamKind::Read => "read",
            StreamKind::Write => "write",
            StreamKind::Triad => "triad",
        }
    }

    /// Inverse of [`name`](Self::name), for decoding cached results.
    pub fn from_name(name: &str) -> Option<StreamKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One simulated-thread operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Coherent single-line read.
    Read(u64),
    /// Coherent single-line write (RFO).
    Write(u64),
    /// Non-temporal store of one line.
    NtStore(u64),
    /// Explicitly flush one line from the executing tile's caches
    /// (clflush-style): the tile drops the line from L1/L2, surrenders its
    /// directory slot, and writes back if dirty.
    Evict(u64),
    /// Vectorized copy through the caches (overlapped).
    CopyBuf {
        /// Source base address.
        src: u64,
        /// Destination base address.
        dst: u64,
        /// Bytes to copy.
        bytes: u64,
        /// Vectorized access (deeper MLP).
        vectorized: bool,
    },
    /// Bulk streaming kernel over `lines` lines (chunked by the runner).
    Stream {
        /// Kernel flavour.
        kind: StreamKind,
        /// Output buffer base (`a[i]`).
        a: u64,
        /// First input buffer base (`b[i]`).
        b: u64,
        /// Second input buffer base (`c[i]`, triad only).
        c: u64,
        /// Lines per buffer.
        lines: u64,
        /// Vectorized access (deeper MLP).
        vectorized: bool,
    },
    /// Busy computation for a fixed duration.
    Compute(SimTime),
    /// Write `val` to the flag at `addr` (coherent write + wake waiters).
    SetFlag {
        /// Flag line address.
        addr: u64,
        /// Value to publish (monotone counters).
        val: u64,
    },
    /// Block until the flag at `addr` is ≥ `val`; then pay a re-read.
    WaitFlag {
        /// Flag line address.
        addr: u64,
        /// Minimum value to wait for.
        val: u64,
    },
    /// Wait until an absolute simulated time (window synchronization).
    WaitUntil(SimTime),
    /// Begin measured interval `k` for this thread.
    MarkStart(usize),
    /// End measured interval `k`.
    MarkEnd(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_per_line() {
        assert_eq!(StreamKind::Copy.bytes_per_line(), 128);
        assert_eq!(StreamKind::Triad.bytes_per_line(), 192);
        assert_eq!(StreamKind::Read.bytes_per_line(), 64);
    }

    #[test]
    fn names() {
        for k in StreamKind::ALL {
            assert!(!k.name().is_empty());
        }
    }
}
